(* ------------------------------------------------------------------ *)
(* Incremental engine.                                                 *)
(*                                                                     *)
(* One CSR image of the retiming graph (predecessor and successor      *)
(* halves) is built per search and shared, read-only, by every FEAS    *)
(* run; each run owns a small mutable state (labels, arrivals and the  *)
(* Kahn/DFS scratch).  A FEAS round then touches only the "dirty"      *)
(* region — the zero-weight-successor closure of the vertices whose    *)
(* label changed — instead of re-deriving the whole zero-weight        *)
(* subgraph:                                                           *)
(*   · incrementing r(v) changes retimed weights only on edges         *)
(*     incident to v, so arrivals can change only inside that          *)
(*     closure (a clean vertex keeps its zero-predecessor set and      *)
(*     their final arrivals);                                          *)
(*   · within the region arrivals are recomputed by a local Kahn       *)
(*     pass seeded with the arrivals of clean zero-predecessors.       *)
(* Legality is likewise incremental: an edge weight can only drop      *)
(* when its source was incremented, so checking the out-edges of the   *)
(* round's violators catches the first illegal labeling.               *)
(* ------------------------------------------------------------------ *)

type csr = {
  g : Rgraph.t;
  n : int;
  delay : int array;
  pof : int array;  (* length n+1: predecessor offsets *)
  psrc : int array;
  pw : int array;
  sof : int array;  (* length n+1: successor offsets *)
  sdst : int array;
  sw : int array;
}

type state = {
  c : csr;
  r : int array;
  delta : int array;
  indeg : int array;
  best : int array;
  queue : int array;
  dirty : int array;
  mutable ndirty : int;
  mark : int array;
  mutable stamp : int;
  viol : int array;
  mutable nviol : int;
}

let csr (g : Rgraph.t) =
  let c = Rgraph.csr g in
  {
    g;
    n = c.Rgraph.nv;
    delay = g.delay;
    pof = c.pred_off;
    psrc = c.pred_src;
    pw = c.pred_weight;
    sof = c.succ_off;
    sdst = c.succ_dst;
    sw = c.succ_weight;
  }

let make_state c =
  let n = max c.n 1 in
  {
    c;
    r = Array.make n 0;
    delta = Array.make n 0;
    indeg = Array.make n 0;
    best = Array.make n 0;
    queue = Array.make n 0;
    dirty = Array.make n 0;
    ndirty = 0;
    mark = Array.make n (-1);
    stamp = 0;
    viol = Array.make n 0;
    nviol = 0;
  }

(* Arrival of every vertex from scratch: one Kahn pass over the implicit
   zero-weight subgraph. *)
let full_arrival st =
  let c = st.c in
  let n = c.n in
  let r = st.r in
  let indeg = st.indeg and best = st.best and queue = st.queue in
  for v = 0 to n - 1 do
    indeg.(v) <- 0;
    best.(v) <- 0
  done;
  for v = 0 to n - 1 do
    for k = c.pof.(v) to c.pof.(v + 1) - 1 do
      let w = c.pw.(k) + r.(v) - r.(c.psrc.(k)) in
      assert (w >= 0);
      if w = 0 then indeg.(v) <- indeg.(v) + 1
    done
  done;
  let qt = ref 0 in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then begin
      queue.(!qt) <- v;
      incr qt
    end
  done;
  let qh = ref 0 in
  while !qh < !qt do
    let v = queue.(!qh) in
    incr qh;
    let dv = best.(v) + c.delay.(v) in
    st.delta.(v) <- dv;
    for k = c.sof.(v) to c.sof.(v + 1) - 1 do
      let y = c.sdst.(k) in
      if c.sw.(k) + r.(y) - r.(v) = 0 then begin
        if dv > best.(y) then best.(y) <- dv;
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then begin
          queue.(!qt) <- y;
          incr qt
        end
      end
    done
  done;
  (* a zero-weight cycle would mean a register-free feedback loop *)
  assert (!qt = n)

(* Recompute arrivals after the labels of [st.viol] were incremented.
   The affected region is the closure of the changed vertices over
   currently-zero-weight successor edges (an out-edge of a changed vertex
   just dropped 1 -> 0, an in-edge of a changed vertex rose 0 -> 1; both
   endpoints whose arrival can move are in that closure). *)
let update_arrival st =
  let c = st.c in
  let r = st.r in
  st.stamp <- st.stamp + 1;
  let stamp = st.stamp in
  let mark = st.mark and queue = st.queue and dirty = st.dirty in
  let qt = ref 0 in
  for i = 0 to st.nviol - 1 do
    let v = st.viol.(i) in
    if mark.(v) <> stamp then begin
      mark.(v) <- stamp;
      queue.(!qt) <- v;
      incr qt
    end
  done;
  st.ndirty <- 0;
  while !qt > 0 do
    decr qt;
    let v = queue.(!qt) in
    dirty.(st.ndirty) <- v;
    st.ndirty <- st.ndirty + 1;
    for k = c.sof.(v) to c.sof.(v + 1) - 1 do
      let y = c.sdst.(k) in
      if c.sw.(k) + r.(y) - r.(v) = 0 && mark.(y) <> stamp then begin
        mark.(y) <- stamp;
        queue.(!qt) <- y;
        incr qt
      end
    done
  done;
  let indeg = st.indeg and best = st.best in
  for i = 0 to st.ndirty - 1 do
    let v = dirty.(i) in
    indeg.(v) <- 0;
    best.(v) <- 0
  done;
  for i = 0 to st.ndirty - 1 do
    let v = dirty.(i) in
    for k = c.pof.(v) to c.pof.(v + 1) - 1 do
      let u = c.psrc.(k) in
      let w = c.pw.(k) + r.(v) - r.(u) in
      assert (w >= 0);
      if w = 0 then
        if mark.(u) = stamp then indeg.(v) <- indeg.(v) + 1
        else if st.delta.(u) > best.(v) then best.(v) <- st.delta.(u)
    done
  done;
  let qh = ref 0 in
  qt := 0;
  for i = 0 to st.ndirty - 1 do
    let v = dirty.(i) in
    if indeg.(v) = 0 then begin
      queue.(!qt) <- v;
      incr qt
    end
  done;
  while !qh < !qt do
    let v = queue.(!qh) in
    incr qh;
    let dv = best.(v) + c.delay.(v) in
    st.delta.(v) <- dv;
    for k = c.sof.(v) to c.sof.(v + 1) - 1 do
      let y = c.sdst.(k) in
      if c.sw.(k) + r.(y) - r.(v) = 0 then begin
        (* zero successors of a dirty vertex are dirty by construction *)
        if dv > best.(y) then best.(y) <- dv;
        indeg.(y) <- indeg.(y) - 1;
        if indeg.(y) = 0 then begin
          queue.(!qt) <- y;
          incr qt
        end
      end
    done
  done;
  assert (!qt = st.ndirty);
  Obs.count "feas.dirty_vertices" st.ndirty

type outcome = Feasible | Illegal | Exhausted

(* FEAS rounds at [period], starting from the labeling held in [st]
   (whose [delta] must be current).  On [Feasible], [st.r] holds the
   result; on [Illegal]/[Exhausted] the state is left mid-iteration. *)
let run st ~period =
  let c = st.c in
  let n = c.n in
  let r = st.r in
  st.nviol <- 0;
  for v = 2 to n - 1 do
    if st.delta.(v) > period then begin
      st.viol.(st.nviol) <- v;
      st.nviol <- st.nviol + 1
    end
  done;
  let rounds = ref 0 in
  let outcome = ref Feasible in
  while st.nviol > 0 && !outcome = Feasible do
    if !rounds > n then outcome := Exhausted
    else begin
      incr rounds;
      Obs.count "feas.rounds" 1;
      Obs.count "feas.relabels" st.nviol;
      for i = 0 to st.nviol - 1 do
        let v = st.viol.(i) in
        r.(v) <- r.(v) + 1
      done;
      (* only out-edges of incremented vertices can have dropped below 0 *)
      let legal = ref true in
      for i = 0 to st.nviol - 1 do
        let v = st.viol.(i) in
        for k = c.sof.(v) to c.sof.(v + 1) - 1 do
          if c.sw.(k) + r.(c.sdst.(k)) - r.(v) < 0 then legal := false
        done
      done;
      if not !legal then outcome := Illegal
      else begin
        update_arrival st;
        st.nviol <- 0;
        for i = 0 to st.ndirty - 1 do
          let v = st.dirty.(i) in
          if v >= 2 && st.delta.(v) > period then begin
            st.viol.(st.nviol) <- v;
            st.nviol <- st.nviol + 1
          end
        done
      end
    end
  done;
  !outcome

(* ------------------------------------------------------------------ *)
(* Least solutions                                                     *)
(*                                                                     *)
(* The labelings that are legal, meet a period and keep both hosts at  *)
(* 0 are the solutions of a difference-constraint system, so they form *)
(* a lattice: each vertex has a least and a greatest label over them,  *)
(* and a solution lies above a labeling t exactly when t lies below    *)
(* the greatest one.  FEAS from a legal start t makes only forced      *)
(* increments (a violating vertex lies below every solution above the  *)
(* current labeling), so it ends at the least solution above t when    *)
(* there is one.                                                       *)
(*                                                                     *)
(* It ends within n - 1 rounds: with gap(v) the distance from the      *)
(* current label to that solution, every vertex whose gap is the       *)
(* largest is violating (lowering the solution by 1 on exactly those   *)
(* vertices would otherwise give a smaller one), so the largest gap    *)
(* falls by one per round; and it starts at most n - 1, since a        *)
(* constraint chain is simple and each W/D step                        *)
(* r(v) >= r(u) - W(u,v) + 1 adds at most one to the bound that t's    *)
(* own legality gives.  So a pass that goes illegal or exhausts its    *)
(* n + 1 rounds proves that no solution lies above t.                  *)
(*                                                                     *)
(* Every legal labeling is at least r0(v) = -W(host, v), and r0 is     *)
(* itself legal (triangle inequality), so FEAS from r0 ends at the     *)
(* least solution or proves the period infeasible.  The same pass on   *)
(* the reversed graph, where arrival times become departure times and  *)
(* -r is a solution iff r is, gives the greatest.                      *)
(*                                                                     *)
(* A vertex the host cannot reach has no lower bound; it starts at     *)
(* -(latch total + n + 2) and rises at most n + 1, so it stays below   *)
(* every label the host can force, its out-edges keep a latch, and it  *)
(* cannot move the reachable vertices.                                 *)
(* ------------------------------------------------------------------ *)

type bounds = { lb : int array; ub : int array }

let unbounded = max_int / 4

let reverse c =
  { c with pof = c.sof; psrc = c.sdst; pw = c.sw; sof = c.pof; sdst = c.psrc; sw = c.pw }

(* Least distances over the successor half of [c] from the initial
   distances [init] (non-negative, max_int for none), max_int where none
   reaches: Dijkstra with entries [d lsl bits lor v]. *)
let min_weights c ~latches init =
  let bits = ref 1 in
  while 1 lsl !bits < c.n do incr bits done;
  let bits = !bits in
  let top = Array.fold_left (fun m d -> if d = max_int then m else max m d) 0 init in
  if latches > (max_int asr (bits + 1)) - top then invalid_arg "Feas: latch total overflows";
  let w = Array.copy init in
  let heap = Vgraph.Iheap.create () in
  Array.iteri (fun v d -> if d < max_int then Vgraph.Iheap.add heap ((d lsl bits) lor v)) init;
  while not (Vgraph.Iheap.is_empty heap) do
    let e = Vgraph.Iheap.pop_min heap in
    let v = e land ((1 lsl bits) - 1) in
    let wv = e lsr bits in
    if wv = w.(v) then
      for k = c.sof.(v) to c.sof.(v + 1) - 1 do
        let y = c.sdst.(k) in
        let nw = wv + c.sw.(k) in
        if nw < w.(y) then begin
          w.(y) <- nw;
          Vgraph.Iheap.add heap ((nw lsl bits) lor y)
        end
      done
  done;
  w

(* Load the least legal labeling from [src] into [st], with its
   arrivals; returns W(src, .). *)
let start_least st ~src =
  let c = st.c in
  let latches = Array.fold_left ( + ) 0 c.pw in
  let w = min_weights c ~latches (Array.init c.n (fun v -> if v = src then 0 else max_int)) in
  for v = 2 to c.n - 1 do
    st.r.(v) <- (if w.(v) = max_int then -(latches + c.n + 2) else -w.(v))
  done;
  full_arrival st;
  w

(* The least solution at [period] on [c] ([-unbounded] where [src]
   cannot reach). *)
let least c ~src ~period =
  let st = make_state c in
  let w = start_least st ~src in
  match run st ~period with
  | Feasible ->
      Some (Array.mapi (fun v x -> if v >= 2 && w.(v) = max_int then -unbounded else x) st.r)
  | Illegal | Exhausted -> None

(* ------------------------------------------------------------------ *)
(* Public API                                                          *)
(* ------------------------------------------------------------------ *)

let arrival g ~r =
  let c = csr g in
  let st = make_state c in
  Array.blit r 0 st.r 0 c.n;
  full_arrival st;
  st.delta

let period_of g ~r = Array.fold_left max 0 (arrival g ~r)

let bounds g ~period =
  Obs.span ~name:"feas.bounds" @@ fun () ->
  let c = csr g in
  (* even the hosts' zero delay exceeds a negative period *)
  match if period < 0 then None else least c ~src:Rgraph.host ~period with
  | None -> None
  | Some lb ->
      (* the forward pass found a solution, so the reversed one does too *)
      let neg = Option.get (least (reverse c) ~src:Rgraph.host_sink ~period) in
      Some { lb; ub = Array.map (fun x -> -x) neg }

(* The least legal labeling above [start] is [top − d], with [d] the
   least distances from the initial ones [top − start]; FEAS from there
   makes only forced increments. *)
let least_above g ~period start =
  let c = csr g in
  let st = make_state c in
  let latches = Array.fold_left ( + ) 0 c.pw in
  let top = Array.fold_left max 0 start in
  let d = min_weights c ~latches (Array.map (fun x -> top - x) start) in
  Array.iteri (fun v dv -> st.r.(v) <- top - dv) d;
  if st.r.(Rgraph.host) <> 0 || st.r.(Rgraph.host_sink) <> 0 then None
  else begin
    full_arrival st;
    match run st ~period with
    | Feasible -> Some (Array.sub st.r 0 c.n)
    | Illegal | Exhausted -> None
  end

(* Arrival times forward, and departure times as the arrivals of the
   reversed graph under the negated labels. *)
type timing = { fwd : state; bwd : state }

let timing g =
  let c = csr g in
  { fwd = make_state c; bwd = make_state (reverse c) }

(* From [v], back along the critical predecessors of [st]'s arrivals:
   with [cut], to where the delay from [v] first exceeds [period],
   otherwise to the chain start.  Returns the vertex reached and the
   latches the path crosses in the graph. *)
let walk st ~period ~cut v =
  let c = st.c and r = st.r in
  let rec go y delay w =
    if cut && delay > period then (y, w)
    else
      let target = st.delta.(y) - c.delay.(y) in
      let rec pred k =
        if k = c.pof.(y + 1) then (y, w)
        else
          let p = c.psrc.(k) in
          if c.pw.(k) + r.(y) - r.(p) = 0 && st.delta.(p) = target then
            go p (delay + c.delay.(p)) (w + c.pw.(k))
          else pred (k + 1)
      in
      pred c.pof.(y)
  in
  go v c.delay.(v) 0

let long_paths tm ~r ~period =
  let f = tm.fwd and b = tm.bwd in
  let c = f.c in
  Array.blit r 0 f.r 0 c.n;
  full_arrival f;
  for v = 0 to c.n - 1 do
    b.r.(v) <- -r.(v)
  done;
  full_arrival b;
  let acc = ref [] in
  for v = c.n - 1 downto 0 do
    if f.delta.(v) > period && f.delta.(v) - c.delay.(v) <= period then begin
      let s, w = walk f ~period ~cut:false v in
      acc := (s, v, w) :: !acc
    end;
    if f.delta.(v) = c.delay.(v) && b.delta.(v) > period then begin
      let t, w = walk b ~period ~cut:true v in
      acc := (v, t, w) :: !acc
    end
  done;
  !acc

(* Bisection over the delay profile (max gate delay up to the unretimed
   period).  Solutions at p' < p are solutions at p, so the least
   solution rises as the period falls, and each probe can start from
   the least solution of the smallest period met so far (r0 before
   that): the start lies below the least solution at the probed period,
   so a probe that goes illegal or exhausts its rounds proves that
   period infeasible. *)
let min_period g =
  Obs.span ~name:"feas.min_period" @@ fun () ->
  let c = csr g in
  let n = c.n in
  let st = make_state c in
  full_arrival st;
  let hi0 = Array.fold_left max 0 st.delta in
  let lo0 = Array.fold_left max 0 g.Rgraph.delay in
  Obs.attr (fun () -> [ ("lo", Obs.Int lo0); ("hi", Obs.Int hi0) ]);
  ignore (start_least st ~src:Rgraph.host);
  let best_r = Array.copy st.r and best_delta = Array.copy st.delta in
  (* hi0 is met, but its least solution is not known yet: starting one
     above it probes hi0 like any other period *)
  let lo = ref (lo0 - 1) and hi = ref (hi0 + 1) in
  let probe p =
    Array.blit best_r 0 st.r 0 n;
    Array.blit best_delta 0 st.delta 0 n;
    if run st ~period:p = Feasible then begin
      Array.blit st.r 0 best_r 0 n;
      Array.blit st.delta 0 best_delta 0 n;
      hi := p
    end
    else lo := p
  in
  (* the delay-profile lower bound first: balanced pipelines stop there *)
  probe lo0;
  while !hi - !lo > 1 do
    probe ((!lo + !hi) / 2)
  done;
  (!hi, best_r)
