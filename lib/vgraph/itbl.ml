type t = {
  mutable keys : int array; (* -1 marks an empty slot *)
  mutable vals : int array;
  mutable size : int;
  mutable bits : int; (* capacity = 2^bits *)
}

let create n =
  let bits = ref 4 in
  while 3 lsl !bits < 4 * n do
    incr bits
  done;
  {
    keys = Array.make (1 lsl !bits) (-1);
    vals = Array.make (1 lsl !bits) 0;
    size = 0;
    bits = !bits;
  }

let length t = t.size

(* Fibonacci hashing: the top [bits] bits of the key times an odd
   constant near 2^62 / phi, so packed keys whose low bits repeat still
   spread *)
let home bits k = (k * 0x278DDE6E5FD29F05) lsr (Sys.int_size - bits)

(* The slot holding [k], or the empty slot where its probe ends *)
let slot keys bits k =
  let mask = Array.length keys - 1 in
  let i = ref (home bits k) in
  while
    let k' = Array.unsafe_get keys !i in
    k' <> k && k' >= 0
  do
    i := (!i + 1) land mask
  done;
  !i

let find t k =
  if k < 0 then invalid_arg "Itbl: negative key or value";
  let i = slot t.keys t.bits k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i else -1

let grow t =
  let keys = t.keys and vals = t.vals in
  let bits = t.bits + 1 in
  let nkeys = Array.make (1 lsl bits) (-1) in
  let nvals = Array.make (1 lsl bits) 0 in
  Array.iteri
    (fun i k ->
      if k >= 0 then begin
        let j = slot nkeys bits k in
        nkeys.(j) <- k;
        nvals.(j) <- vals.(i)
      end)
    keys;
  t.keys <- nkeys;
  t.vals <- nvals;
  t.bits <- bits

(* The value bound to [k], or -1 after binding [k] to [v] *)
let find_or_add t k v =
  if k < 0 || v < 0 then invalid_arg "Itbl: negative key or value";
  if 4 * (t.size + 1) > 3 * Array.length t.keys then grow t;
  let i = slot t.keys t.bits k in
  if Array.unsafe_get t.keys i = k then Array.unsafe_get t.vals i
  else begin
    Array.unsafe_set t.keys i k;
    Array.unsafe_set t.vals i v;
    t.size <- t.size + 1;
    -1
  end

let add t k v =
  if find_or_add t k v >= 0 then invalid_arg "Itbl.add: key already bound"
