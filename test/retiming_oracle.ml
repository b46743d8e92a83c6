(* Reference retiming engines, kept as test oracles for {!Feas},
   {!Minarea} and {!Vgraph.Mincost_flow}: the original cold-start FEAS,
   the unpruned W/D-matrix constraints (one boxed lexicographic Dijkstra
   per source), the list-adjacency successive-shortest-paths flow, and
   the exact minimum period and label bounds of the full constraint
   system by Bellman–Ford.  The shipped engines must reach the same
   periods, the same least labelings and the same optimal kept latch
   counts. *)

open Vgraph

(* ---- FEAS ---- *)

(* Rebuilds the zero-weight subgraph and re-sorts it on every FEAS round,
   and cold-starts every period probed by the binary search. *)
module Naive_feas = struct
  let zero_weight_topo (g : Rgraph.t) ~r =
    (* subgraph of register-free edges *)
    let sub = Digraph.create () in
    Digraph.add_nodes sub (Digraph.node_count g.graph);
    Digraph.iter_edges
      (fun _ e ->
        let w = e.weight + r.(e.dst) - r.(e.src) in
        assert (w >= 0);
        if w = 0 then ignore (Digraph.add_edge sub e.src e.dst))
      g.graph;
    (sub, Topo.sort_exn sub)

  let arrival g ~r =
    let sub, order = zero_weight_topo g ~r in
    let n = Digraph.node_count sub in
    let delta = Array.make n 0 in
    List.iter
      (fun v ->
        let best = ref 0 in
        Digraph.iter_pred sub v (fun _ e -> best := max !best delta.(e.src));
        delta.(v) <- !best + g.delay.(v))
      order;
    delta

  let period_of g ~r = Array.fold_left max 0 (arrival g ~r)

  let feasible ?init g ~period =
    let n = Digraph.node_count g.Rgraph.graph in
    let r = match init with Some r -> Array.copy r | None -> Array.make n 0 in
    assert (Rgraph.is_legal g ~r:(Rgraph.normalize g ~r));
    (* FEAS: repeatedly advance every too-late gate by one register.  The host
       vertices are pinned; if an increment would make an I/O edge negative
       the period is unachievable (a register cannot move past the
       environment), which surfaces as an illegal intermediate labeling. *)
    let ok = ref false in
    let legal = ref true in
    let i = ref 0 in
    while !legal && (not !ok) && !i <= n do
      let delta = arrival g ~r in
      let violated = ref false in
      for v = 2 to n - 1 do
        if delta.(v) > period then begin
          violated := true;
          r.(v) <- r.(v) + 1
        end
      done;
      if not !violated then ok := true
      else if not (Rgraph.is_legal g ~r) then legal := false;
      incr i
    done;
    if !ok then Some (Rgraph.normalize g ~r) else None

  let min_period g =
    let n = Digraph.node_count g.Rgraph.graph in
    let r0 = Array.make n 0 in
    let hi0 = period_of g ~r:r0 in
    let lo0 = Array.fold_left max 0 g.delay in
    let rec search lo hi best =
      if lo >= hi then best
      else
        let mid = (lo + hi) / 2 in
        match feasible g ~period:mid with
        | Some r -> search lo mid (mid, r)
        | None -> search (mid + 1) hi best
    in
    search lo0 hi0 (hi0, r0)
end

(* ---- W/D matrices ---- *)

(* Lexicographic shortest paths: minimum primary weight and, among paths
   of equal weight, maximum sum of [tie e] — the (W(u,v), D(u,v)) pair of
   Leiserson–Saxe retiming with the latch count as weight and gate delay
   as tie-breaker.  Heap entries are ordered by (w, -d); a node is settled
   the first time it is popped with its current best label.  Unreachable
   entries are (max_int, 0). *)
let lexicographic g ~src ~tie =
  let n = Digraph.node_count g in
  let w = Array.make n max_int in
  let d = Array.make n 0 in
  let cmp (w1, nd1, _) (w2, nd2, _) =
    if w1 <> w2 then compare w1 w2 else compare nd1 nd2
  in
  let heap = Heap.create ~cmp ~dummy:(0, 0, -1) () in
  w.(src) <- 0;
  d.(src) <- 0;
  Heap.add heap (0, 0, src);
  while not (Heap.is_empty heap) do
    let wv, ndv, v = Heap.pop_min heap in
    if wv = w.(v) && ndv = -d.(v) then
      Digraph.iter_succ g v (fun _ e ->
          assert (e.weight >= 0);
          let w' = wv + e.weight in
          let d' = d.(v) + tie e in
          let better =
            w' < w.(e.dst) || (w' = w.(e.dst) && d' > d.(e.dst))
          in
          if better then begin
            w.(e.dst) <- w';
            d.(e.dst) <- d';
            Heap.add heap (w', -d', e.dst)
          end)
  done;
  (w, d)

(* The W/D matrices, row by row: (W(u, ·), D(u, ·)) for every source u. *)
let wd (g : Rgraph.t) =
  Array.init (Digraph.node_count g.graph) (fun u ->
      lexicographic g.graph ~src:u ~tie:(fun e -> g.delay.(e.dst)))

(* Every violating pair: r(u) − r(v) ≤ W(u,v) − 1 whenever D(u,v) > period,
   including u = v for a vertex whose own delay exceeds the period (an
   unsatisfiable 0 ≤ −1, as no retiming can meet that period).  [wd]
   (default [wd g]) shares the matrices between periods. *)
let period_constraints ?wd:m (g : Rgraph.t) ~period =
  let m = match m with Some m -> m | None -> wd g in
  let n = Digraph.node_count g.graph in
  let acc = ref [] in
  for u = 0 to n - 1 do
    let w, d = m.(u) in
    for v = 0 to n - 1 do
      if w.(v) < max_int then begin
        let duv = d.(v) + g.delay.(u) in
        if duv > period then acc := (u, v, w.(v) - 1) :: !acc
      end
    done
  done;
  !acc

(* ---- min-cost flow ---- *)

(* Plain successive shortest paths over list adjacency.  Its Bellman–Ford
   init silently proceeds with stale potentials on a negative-cost cycle,
   where the shipped solver raises. *)
let flow_reference ~nodes ~(arcs : Mincost_flow.arc list) supply =
  let m = List.length arcs in
  if Array.length supply <> nodes then invalid_arg "flow_reference: supply size";
  if Array.fold_left ( + ) 0 supply <> 0 then
    invalid_arg "flow_reference: supplies must sum to zero";
  let head = Array.make (2 * m) 0 in
  let tail = Array.make (2 * m) 0 in
  let res = Array.make (2 * m) 0 in
  let cost_ = Array.make (2 * m) 0 in
  let adj = Array.make nodes [] in
  List.iteri
    (fun i (a : Mincost_flow.arc) ->
      if a.capacity < 0 then invalid_arg "flow_reference: negative capacity";
      let f = 2 * i and b = (2 * i) + 1 in
      head.(f) <- a.dst;
      tail.(f) <- a.src;
      res.(f) <- a.capacity;
      cost_.(f) <- a.cost;
      head.(b) <- a.src;
      tail.(b) <- a.dst;
      res.(b) <- 0;
      cost_.(b) <- -a.cost;
      adj.(a.src) <- f :: adj.(a.src);
      adj.(a.dst) <- b :: adj.(a.dst))
    arcs;
  let excess = Array.copy supply in
  let pi = Array.make nodes 0 in
  let dist = Array.make nodes 0 in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds < nodes do
    changed := false;
    incr rounds;
    for a = 0 to (2 * m) - 1 do
      if res.(a) > 0 && dist.(tail.(a)) + cost_.(a) < dist.(head.(a)) then begin
        dist.(head.(a)) <- dist.(tail.(a)) + cost_.(a);
        changed := true
      end
    done
  done;
  Array.blit dist 0 pi 0 nodes;
  let infeasible = ref false in
  let total_excess () =
    let t = ref 0 in
    Array.iter (fun e -> if e > 0 then t := !t + e) excess;
    !t
  in
  let parent_arc = Array.make nodes (-1) in
  while (not !infeasible) && total_excess () > 0 do
    let d = Array.make nodes max_int in
    Array.fill parent_arc 0 nodes (-1);
    let heap =
      Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) ~dummy:(0, -1) ()
    in
    for v = 0 to nodes - 1 do
      if excess.(v) > 0 then begin
        d.(v) <- 0;
        Heap.add heap (0, v)
      end
    done;
    (* the first deficit node settled is a nearest one *)
    let sink = ref (-1) in
    while !sink = -1 && not (Heap.is_empty heap) do
      let dv, v = Heap.pop_min heap in
      if dv = d.(v) then
        if excess.(v) < 0 then sink := v
        else
          List.iter
            (fun a ->
              if res.(a) > 0 then begin
                let w = head.(a) in
                let rc = cost_.(a) + pi.(v) - pi.(w) in
                assert (rc >= 0);
                let nd = dv + rc in
                if nd < d.(w) then begin
                  d.(w) <- nd;
                  parent_arc.(w) <- a;
                  Heap.add heap (nd, w)
                end
              end)
            adj.(v)
    done;
    if !sink = -1 then infeasible := true
    else begin
      let cap = d.(!sink) in
      for v = 0 to nodes - 1 do
        pi.(v) <- pi.(v) + min d.(v) cap
      done;
      let rec bottleneck v acc =
        let a = parent_arc.(v) in
        if a = -1 then acc else bottleneck tail.(a) (min acc res.(a))
      in
      let s = !sink in
      let rec path_src v = if parent_arc.(v) = -1 then v else path_src tail.(parent_arc.(v)) in
      let src = path_src s in
      let amount = min (min excess.(src) (- excess.(s))) (bottleneck s max_int) in
      assert (amount > 0);
      let rec push v =
        let a = parent_arc.(v) in
        if a <> -1 then begin
          res.(a) <- res.(a) - amount;
          res.(a lxor 1) <- res.(a lxor 1) + amount;
          push tail.(a)
        end
      in
      push s;
      excess.(src) <- excess.(src) - amount;
      excess.(s) <- excess.(s) + amount
    end
  done;
  if !infeasible then None
  else begin
    let flow = Array.make m 0 in
    let total = ref 0 in
    List.iteri
      (fun i (a : Mincost_flow.arc) ->
        let f = res.((2 * i) + 1) in
        flow.(i) <- f;
        total := !total + (f * a.cost))
      arcs;
    Some { Mincost_flow.flow; potentials = pi; total_cost = !total }
  end

(* ---- the full constraint system ---- *)

(* Legality as difference constraints, the two host vertices tied. *)
let edge_constraints (g : Rgraph.t) =
  let acc = ref [ (Rgraph.host, Rgraph.host_sink, 0); (Rgraph.host_sink, Rgraph.host, 0) ] in
  Digraph.iter_edges (fun _ e -> acc := (e.src, e.dst, e.weight) :: !acc) g.graph;
  !acc

(* Whether r(u) − r(v) ≤ b for every (u, v, b) has a solution: Bellman–
   Ford from a virtual source over the constraint graph (edge v -> u of
   weight b).  Only a negative cycle can close a cycle of predecessor
   pointers, so a round that leaves one decides unsatisfiable without
   waiting out all n rounds. *)
let satisfiable n constraints =
  let cs = Array.of_list constraints in
  let dist = Array.make n 0 and pred = Array.make n (-1) in
  let walk = Array.make n (-1) in
  let pred_cycle () =
    (* each walk follows predecessors until it meets a visited vertex,
       which closes a cycle iff this same walk visited it *)
    Array.fill walk 0 n (-1);
    let found = ref false in
    for s = 0 to n - 1 do
      let v = ref s in
      while !v >= 0 && walk.(!v) < 0 do
        walk.(!v) <- s;
        v := pred.(!v)
      done;
      if !v >= 0 && walk.(!v) = s then found := true
    done;
    !found
  in
  let rec rounds k =
    let changed = ref false in
    Array.iter
      (fun (u, v, b) ->
        if dist.(v) + b < dist.(u) then begin
          dist.(u) <- dist.(v) + b;
          pred.(u) <- v;
          changed := true
        end)
      cs;
    (not !changed) || ((not (pred_cycle ())) && k < n && rounds (k + 1))
  in
  rounds 0

(* ---- exact period ---- *)

(* Whether some legal labeling with the hosts tied meets [period]: the
   full system (every violating W/D pair plus the edge constraints) is
   satisfiable. *)
let meets ?wd (g : Rgraph.t) ~period =
  let constraints = period_constraints ?wd g ~period @ edge_constraints g in
  satisfiable (Digraph.node_count g.graph) constraints

(* The least period, from the largest gate delay up, that [meets]. *)
let min_period ?wd:m (g : Rgraph.t) =
  let wd = match m with Some m -> m | None -> wd g in
  let rec up period = if meets ~wd g ~period then period else up (period + 1) in
  up (Array.fold_left max 0 g.delay)

(* ---- lattice bounds ---- *)

(* Each vertex's least and greatest label over every solution of the full
   system at [period] (every violating W/D pair plus the edge
   constraints) with the host at 0: Bellman–Ford from the host over the
   constraint graph gives the greatest labels, over its reverse the
   negated least ones.  [None] when the system is unsatisfiable;
   [min_int]/[max_int] where the host reaches no bound. *)
let bounds ?wd (g : Rgraph.t) ~period =
  let n = Digraph.node_count g.graph in
  let constraints = period_constraints ?wd g ~period @ edge_constraints g in
  if not (satisfiable n constraints) then None
  else begin
    let from_host edges =
      let dist = Array.make n max_int in
      dist.(Rgraph.host) <- 0;
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (s, d, w) ->
            if dist.(s) < max_int && dist.(s) + w < dist.(d) then begin
              dist.(d) <- dist.(s) + w;
              changed := true
            end)
          edges
      done;
      dist
    in
    let ub = from_host (List.map (fun (u, v, b) -> (v, u, b)) constraints) in
    let neg_lb = from_host constraints in
    Some (Array.map (fun d -> if d = max_int then min_int else -d) neg_lb, ub)
  end

(* ---- min-area retiming ---- *)

(* The latch-minimal retiming at [period], from the parts above: every
   violating W/D pair plus the edge constraints, a Bellman–Ford
   feasibility pass, and the reference flow on the dual.  The objective
   is the latch count {!Rgraph.apply} keeps, built from the origins, not
   from [g.groups]: the connections that start at one source signal
   share one latch chain, so a source with several connections gets a
   mirror vertex m, with r(v) − r(m) ≤ w_max − w for each connection
   into v of weight w, and adds r(m) − r(u) where a lone connection adds
   r(v) − r(u).  Unlike {!Minarea.solve} it bounds no label. *)
let minarea ?wd (g : Rgraph.t) ~period =
  let n = Digraph.node_count g.graph in
  let connections =
    List.concat
      [
        List.concat
          (List.mapi
             (fun v os -> List.map (fun o -> (o, v)) (Array.to_list os))
             (Array.to_list g.fanin_origin));
        List.map (fun o -> (o, Rgraph.host_sink)) (Array.to_list g.po_origin);
        List.map (fun (_, o) -> (o, Rgraph.host_sink)) (Array.to_list g.exposed_origin);
      ]
  in
  let by_src = Hashtbl.create 64 in
  List.iter
    (fun ((o : Rgraph.origin), v) ->
      Hashtbl.replace by_src o.src
        ((o, v) :: Option.value ~default:[] (Hashtbl.find_opt by_src o.src)))
    connections;
  let sources = Hashtbl.fold (fun _ cs acc -> cs :: acc) by_src [] in
  let nodes = n + List.length (List.filter (fun cs -> List.length cs > 1) sources) in
  let a = Array.make nodes 0 in
  let mirrors = ref [] and next = ref n in
  List.iter
    (fun cs ->
      let u = (fst (List.hd cs)).Rgraph.vertex in
      a.(u) <- a.(u) - 1;
      match cs with
      | [ (_, v) ] -> a.(v) <- a.(v) + 1
      | _ ->
          let m = !next in
          incr next;
          a.(m) <- 1;
          let wmax = List.fold_left (fun w ((o : Rgraph.origin), _) -> max w o.weight) 0 cs in
          List.iter
            (fun ((o : Rgraph.origin), v) -> mirrors := (v, m, wmax - o.weight) :: !mirrors)
            cs)
    sources;
  let constraints = period_constraints ?wd g ~period @ edge_constraints g @ !mirrors in
  if not (satisfiable nodes constraints) then None
  else begin
    let cap = 1 + Array.fold_left (fun acc x -> acc + abs x) 0 a in
    let arcs =
      List.map
        (fun (u, v, b) -> { Mincost_flow.src = u; dst = v; capacity = cap; cost = b })
        constraints
    in
    match flow_reference ~nodes ~arcs (Array.map (fun x -> -x) a) with
    | None -> None
    | Some { potentials; _ } ->
        let r = Rgraph.normalize g ~r:(Array.map (fun p -> -p) potentials) in
        if List.for_all (fun (u, v, b) -> r.(u) - r.(v) <= b) constraints then
          Some (Array.sub r 0 n)
        else None
  end
