(* VSIDS activities and an indexed binary max-heap of variables, MiniSat's
   order heap.  Slots [0, size) of [heap] hold variables; [pos] maps a
   variable back to its slot, or -1 when the heap does not hold it. *)

type t = {
  mutable act : float array; (* var -> activity; entry 0 unused *)
  mutable inc : float;
  mutable heap : int array; (* slot -> var *)
  mutable pos : int array; (* var -> slot, or -1 *)
  mutable size : int;
  mutable nvars : int;
}

let create () =
  {
    act = Array.make 4 0.;
    inc = 1.0;
    heap = Array.make 4 0;
    pos = Array.make 4 (-1);
    size = 0;
    nvars = 0;
  }

let activity o v = o.act.(v)
let is_empty o = o.size = 0
let elements o = List.init o.size (fun i -> o.heap.(i))

(* [a] is decided before [b]: higher activity, ties to the lower var *)
let before o a b =
  let x = o.act.(a) and y = o.act.(b) in
  x > y || (x = y && a < b)

let place o v i =
  o.heap.(i) <- v;
  o.pos.(v) <- i

let rec sift_up o v i =
  let p = (i - 1) / 2 in
  if i > 0 && before o v o.heap.(p) then begin
    place o o.heap.(p) i;
    sift_up o v p
  end
  else place o v i

let rec sift_down o v i =
  let l = (2 * i) + 1 in
  if l >= o.size then place o v i
  else
    let c =
      if l + 1 < o.size && before o o.heap.(l + 1) o.heap.(l) then l + 1 else l
    in
    if before o o.heap.(c) v then begin
      place o o.heap.(c) i;
      sift_down o v c
    end
    else place o v i

let insert o v =
  if o.pos.(v) < 0 then begin
    o.size <- o.size + 1;
    sift_up o v (o.size - 1)
  end

let new_var o =
  o.nvars <- o.nvars + 1;
  let cap = Array.length o.act in
  if o.nvars >= cap then begin
    let extend a fill =
      let b = Array.make (2 * cap) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    o.act <- extend o.act 0.;
    o.heap <- extend o.heap 0;
    o.pos <- extend o.pos (-1)
  end;
  insert o o.nvars

let bump o v =
  o.act.(v) <- o.act.(v) +. o.inc;
  if o.act.(v) > 1e100 then begin
    for i = 1 to o.nvars do
      o.act.(i) <- o.act.(i) *. 1e-100
    done;
    o.inc <- o.inc *. 1e-100;
    (* Floyd's heapify: scaling can round distinct activities to equal
       ones, which the old heap order need not break by variable *)
    for i = (o.size / 2) - 1 downto 0 do
      sift_down o o.heap.(i) i
    done
  end
  else if o.pos.(v) >= 0 then sift_up o v o.pos.(v)

let decay o = o.inc <- o.inc /. 0.95

let pop o =
  if o.size = 0 then invalid_arg "Sat.Order.pop: empty";
  let v = o.heap.(0) in
  o.pos.(v) <- -1;
  o.size <- o.size - 1;
  if o.size > 0 then sift_down o o.heap.(o.size) 0;
  v
