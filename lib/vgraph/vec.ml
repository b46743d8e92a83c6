type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  let capacity = max capacity 1 in
  { data = Array.make capacity dummy; len = 0; dummy }

let length v = v.len

let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then
    invalid_arg (Printf.sprintf "Vec: index %d out of bounds (len %d)" i v.len)

let get v i =
  check v i;
  Array.unsafe_get v.data i

let set v i x =
  check v i;
  Array.unsafe_set v.data i x

let grow v =
  let n = Array.length v.data in
  let data = Array.make (2 * n) v.dummy in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v;
  let i = v.len in
  Array.unsafe_set v.data i x;
  v.len <- i + 1;
  i

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = Array.unsafe_get v.data v.len in
  Array.unsafe_set v.data v.len v.dummy;
  x

let clear v =
  Array.fill v.data 0 v.len v.dummy;
  v.len <- 0

let shrink v n =
  if n < 0 || n > v.len then invalid_arg "Vec.shrink";
  Array.fill v.data n (v.len - n) v.dummy;
  v.len <- n

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i (Array.unsafe_get v.data i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc

let to_list v =
  let rec loop i acc = if i < 0 then acc else loop (i - 1) (get v i :: acc) in
  loop (v.len - 1) []

let copy v = { data = Array.copy v.data; len = v.len; dummy = v.dummy }
