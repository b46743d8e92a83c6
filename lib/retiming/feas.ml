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
(* Lattice bounds                                                      *)
(*                                                                     *)
(* The labelings that are legal, meet a period and keep both hosts at  *)
(* 0 are the solutions of a difference-constraint system, so they form *)
(* a lattice: each vertex has a least and a greatest label over them.  *)
(* Every legal labeling is at least r0(v) = -W(host, v), and r0 is     *)
(* itself legal (triangle inequality), so FEAS from r0 -- every        *)
(* increment forced, as from the all-zero start -- ends at the least   *)
(* solution.  The same pass on the reversed graph, where arrival times *)
(* become departure times and -r is a solution iff r is, gives the     *)
(* greatest.                                                           *)
(*                                                                     *)
(* A feasible pass ends within n - 1 rounds: with gap(v) the distance  *)
(* from the current label to the least solution, every vertex whose   *)
(* gap is the largest is violating (lowering the solution by 1 on      *)
(* exactly those vertices would otherwise give a smaller solution), so *)
(* the largest gap falls by one per round; and it starts at most       *)
(* n - 1, since a constraint chain from the host is simple and each    *)
(* W/D step r(v) >= r(u) - W(u,v) + 1 adds at most one to the          *)
(* legality bound.  So a pass that exhausts its n + 1 rounds has met   *)
(* an infeasible period, just like one that goes illegal.              *)
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

(* W(src, v) over the successor half of [c], max_int where [src] cannot
   reach [v]: Dijkstra with entries [W lsl bits lor v]. *)
let min_weights c ~latches src =
  let bits = ref 1 in
  while 1 lsl !bits < c.n do incr bits done;
  let bits = !bits in
  if latches > max_int asr (bits + 1) then invalid_arg "Feas.bounds: latch total overflows";
  let w = Array.make c.n max_int in
  let heap = Vgraph.Iheap.create () in
  w.(src) <- 0;
  Vgraph.Iheap.add heap src;
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

(* The least solution at [period] on [c] ([-unbounded] where [src]
   cannot reach), by FEAS from the least legal labeling. *)
let least c ~latches ~src ~period =
  let w = min_weights c ~latches src in
  let st = make_state c in
  for v = 2 to c.n - 1 do
    st.r.(v) <- (if w.(v) = max_int then -(latches + c.n + 2) else -w.(v))
  done;
  full_arrival st;
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

let feasible ?init g ~period =
  let c = csr g in
  let st = make_state c in
  (match init with
  | Some r ->
      assert (Rgraph.is_legal g ~r:(Rgraph.normalize g ~r));
      Array.blit r 0 st.r 0 c.n
  | None -> ());
  full_arrival st;
  match run st ~period with
  | Feasible -> Some (Rgraph.normalize g ~r:st.r)
  | Illegal | Exhausted -> None

(* Warm-started binary search.
   FEAS from the all-zero labeling computes the pointwise-minimal feasible
   retiming at its period (every increment it performs is forced), and the
   feasible labelings at period p' < p are a subset of those at p — so the
   minimal labelings are monotone: r_min(p) <= r_min(p') pointwise.
   Seeding FEAS at p' with r_min(p) is therefore sound (it starts below
   the labeling it must reach) and preserves minimality, so the invariant
   carries across the whole search.  A run that exhausts its round bound
   is re-checked cold before the period is declared infeasible. *)
let min_period ?pool g =
  Obs.span ~name:"feas.min_period" @@ fun () ->
  let c = csr g in
  let n = c.n in
  let st = make_state c in
  full_arrival st;
  let hi0 = Array.fold_left max 0 st.delta in
  let lo0 = Array.fold_left max 0 g.Rgraph.delay in
  Obs.attr (fun () -> [ ("lo", Obs.Int lo0); ("hi", Obs.Int hi0) ]);
  if hi0 <= lo0 then (hi0, Array.make n 0)
  else begin
    let best_r = Array.make n 0 in
    let best_delta = Array.copy st.delta in
    let save st =
      Array.blit st.r 0 best_r 0 n;
      Array.blit st.delta 0 best_delta 0 n
    in
    let restore st =
      Array.blit best_r 0 st.r 0 n;
      Array.blit best_delta 0 st.delta 0 n
    in
    (* probe [p] on [st], warm from the saved minimal labeling of the
       current upper bound; false-negative-free thanks to the cold retry *)
    let probe st p =
      restore st;
      match run st ~period:p with
      | Feasible -> true
      | Illegal -> false
      | Exhausted ->
          Array.fill st.r 0 n 0;
          full_arrival st;
          run st ~period:p = Feasible
    in
    let lo = ref (lo0 - 1) and hi = ref hi0 in
    (* delay-profile lower bound first: for balanced pipelines the search
       collapses to a single FEAS run *)
    if probe st lo0 then begin
      save st;
      hi := lo0
    end
    else lo := lo0;
    (match pool with
    | Some pool when Par.Pool.jobs pool > 1 && !hi - !lo > 2 ->
        let jobs = Par.Pool.jobs pool in
        while !hi - !lo > 1 do
          let w = !hi - !lo - 1 in
          let np = min jobs w in
          let pts =
            if np = 1 then [ (!lo + !hi) / 2 ]
            else
              List.init np (fun j -> !lo + 1 + (j * (w - 1) / (np - 1)))
          in
          let results =
            Par.Pool.map pool
              (fun p ->
                let stp = make_state c in
                let ok = probe stp p in
                (p, ok, (if ok then Some (Array.copy stp.r) else None)))
              pts
          in
          let feas = List.filter (fun (_, ok, _) -> ok) results in
          (match feas with
          | [] -> lo := List.fold_left (fun acc (p, _, _) -> max acc p) !lo results
          | _ ->
              let p, _, rl =
                List.fold_left
                  (fun ((bp, _, _) as b) ((p, _, _) as x) ->
                    if p < bp then x else b)
                  (List.hd feas) (List.tl feas)
              in
              hi := p;
              Array.blit (Option.get rl) 0 best_r 0 n;
              Array.blit (Option.get rl) 0 st.r 0 n;
              full_arrival st;
              Array.blit st.delta 0 best_delta 0 n;
              List.iter
                (fun (q, ok, _) -> if (not ok) && q < !hi then lo := max !lo q)
                results)
        done
    | _ ->
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if probe st mid then begin
            save st;
            hi := mid
          end
          else lo := mid
        done);
    (!hi, Array.copy best_r)
  end

let bounds g ~period =
  Obs.span ~name:"feas.bounds" @@ fun () ->
  let c = csr g in
  let latches = Array.fold_left ( + ) 0 c.pw in
  (* even the hosts' zero delay exceeds a negative period *)
  match if period < 0 then None else least c ~latches ~src:Rgraph.host ~period with
  | None -> None
  | Some lb ->
      (* the forward pass found a solution, so the reversed one does too *)
      let neg = Option.get (least (reverse c) ~latches ~src:Rgraph.host_sink ~period) in
      Some { lb; ub = Array.map (fun x -> -x) neg }
