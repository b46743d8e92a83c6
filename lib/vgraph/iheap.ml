type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 64) () = { data = Array.make (max capacity 4) 0; len = 0 }

let is_empty h = h.len = 0

let grow h =
  let data = Array.make (2 * Array.length h.data) 0 in
  Array.blit h.data 0 data 0 h.len;
  h.data <- data

let add h x =
  if h.len = Array.length h.data then grow h;
  (* sift up *)
  let d = h.data in
  let i = ref h.len in
  h.len <- h.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if Array.unsafe_get d p > x then begin
      Array.unsafe_set d !i (Array.unsafe_get d p);
      i := p
    end
    else continue := false
  done;
  Array.unsafe_set d !i x

let pop_min h =
  if h.len = 0 then invalid_arg "Iheap.pop_min: empty";
  let d = h.data in
  let root = Array.unsafe_get d 0 in
  h.len <- h.len - 1;
  let n = h.len in
  if n > 0 then begin
    let x = Array.unsafe_get d n in
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < n && Array.unsafe_get d r < Array.unsafe_get d l then r else l
        in
        if Array.unsafe_get d c < x then begin
          Array.unsafe_set d !i (Array.unsafe_get d c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set d !i x
  end;
  root

let clear h = h.len <- 0
