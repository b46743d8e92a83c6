(* The source and sink arcs are implicit: [source.(v)] and [sink.(v)] hold
   their residual capacities, [inf] on a blocked node's sink arc.  The
   closure arcs live in per-node linked lists over growable arrays, arc
   [a] paired with its reverse [a lxor 1]. *)

let inf = max_int / 4

type t = {
  n : int;
  source : int array;
  sink : int array;
  first : int array;
  mutable next : int array;
  mutable dst : int array;
  mutable cap : int array;
  mutable arcs : int;
  level : int array;
  cur : int array;
  queue : int array;
  mutable augmentations : int;
}

let create n =
  {
    n;
    source = Array.make n 0;
    sink = Array.make n 0;
    first = Array.make n (-1);
    next = Array.make 64 0;
    dst = Array.make 64 0;
    cap = Array.make 64 0;
    arcs = 0;
    level = Array.make n (-1);
    cur = Array.make n (-1);
    queue = Array.make n 0;
    augmentations = 0;
  }

let clear t =
  Array.fill t.source 0 t.n 0;
  Array.fill t.sink 0 t.n 0;
  Array.fill t.first 0 t.n (-1);
  t.arcs <- 0

let set_weight t v w =
  t.source.(v) <- max 0 (-w);
  t.sink.(v) <- max 0 w

let block t v =
  t.source.(v) <- 0;
  t.sink.(v) <- inf

let add_arc t u v =
  if t.arcs + 2 > Array.length t.dst then begin
    let grow a =
      let b = Array.make (2 * Array.length a) 0 in
      Array.blit a 0 b 0 t.arcs;
      b
    in
    t.next <- grow t.next;
    t.dst <- grow t.dst;
    t.cap <- grow t.cap
  end;
  let a = t.arcs in
  t.dst.(a) <- v;
  t.cap.(a) <- inf;
  t.next.(a) <- t.first.(u);
  t.first.(u) <- a;
  t.dst.(a + 1) <- u;
  t.cap.(a + 1) <- 0;
  t.next.(a + 1) <- t.first.(v);
  t.first.(v) <- a + 1;
  t.arcs <- a + 2

(* Breadth-first levels over the residual network, the nodes the source
   arcs still feed at level 0; whether a node with sink residual is
   reached.  When none is, the levelled nodes are the least minimum
   cut's source side. *)
let levels t =
  Array.fill t.level 0 t.n (-1);
  let qt = ref 0 in
  for v = 0 to t.n - 1 do
    if t.source.(v) > 0 then begin
      t.level.(v) <- 0;
      t.queue.(!qt) <- v;
      incr qt
    end
  done;
  let reached = ref false in
  let qh = ref 0 in
  while !qh < !qt do
    let v = t.queue.(!qh) in
    incr qh;
    if t.sink.(v) > 0 then reached := true;
    let a = ref t.first.(v) in
    while !a >= 0 do
      let w = t.dst.(!a) in
      if t.cap.(!a) > 0 && t.level.(w) < 0 then begin
        t.level.(w) <- t.level.(v) + 1;
        t.queue.(!qt) <- w;
        incr qt
      end;
      a := t.next.(!a)
    done
  done;
  !reached

(* Sends at most [f] units from [v] to the sink, through its own sink arc
   first and then along arcs that climb one level; a node that cannot
   pass all it is offered leaves the level graph for this phase. *)
let rec push t v f =
  let direct = min f t.sink.(v) in
  if direct > 0 then begin
    if t.sink.(v) < inf then t.sink.(v) <- t.sink.(v) - direct;
    t.augmentations <- t.augmentations + 1
  end;
  let sent = ref direct in
  while !sent < f && t.cur.(v) >= 0 do
    let a = t.cur.(v) in
    let w = t.dst.(a) in
    if t.cap.(a) > 0 && t.level.(w) = t.level.(v) + 1 then begin
      let want = min (f - !sent) t.cap.(a) in
      let d = push t w want in
      t.cap.(a) <- t.cap.(a) - d;
      t.cap.(a lxor 1) <- t.cap.(a lxor 1) + d;
      sent := !sent + d;
      if d < want then t.cur.(v) <- t.next.(a)
    end
    else t.cur.(v) <- t.next.(a)
  done;
  if !sent < f then t.level.(v) <- -1;
  !sent

let solve t =
  let before = t.augmentations in
  while levels t do
    Array.blit t.first 0 t.cur 0 t.n;
    for v = 0 to t.n - 1 do
      if t.level.(v) = 0 then t.source.(v) <- t.source.(v) - push t v t.source.(v)
    done
  done;
  Obs.count "flow.augmentations" (t.augmentations - before);
  let closure = ref [] in
  for v = t.n - 1 downto 0 do
    if t.level.(v) >= 0 then closure := v :: !closure
  done;
  !closure
