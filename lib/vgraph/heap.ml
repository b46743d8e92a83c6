type 'a t = { cmp : 'a -> 'a -> int; data : 'a Vec.t }

let create ~cmp ~dummy () = { cmp; data = Vec.create ~dummy () }

let size h = Vec.length h.data

let is_empty h = size h = 0

let swap h i j =
  let x = Vec.get h.data i and y = Vec.get h.data j in
  Vec.set h.data i y;
  Vec.set h.data j x

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp (Vec.get h.data i) (Vec.get h.data parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let n = size h in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && h.cmp (Vec.get h.data l) (Vec.get h.data !smallest) < 0 then smallest := l;
  if r < n && h.cmp (Vec.get h.data r) (Vec.get h.data !smallest) < 0 then smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let add h x =
  let i = Vec.push h.data x in
  sift_up h i

let pop_min h =
  if is_empty h then invalid_arg "Heap.pop_min: empty";
  let root = Vec.get h.data 0 in
  let last = Vec.pop h.data in
  if not (is_empty h) then begin
    Vec.set h.data 0 last;
    sift_down h 0
  end;
  root
