open Vgraph
(* Constraints have the form r(u) - r(v) <= b.  The LP
     min Σ_v a(v)·r(v)   s.t.   r(u) − r(v) ≤ b(u,v)
   is the dual of a min-cost flow problem: one arc per constraint
   (u -> v, cost b, infinite capacity), node net outflow −a(v); the
   optimal node potentials π give r = −π.

   The objective counts the latches {!Rgraph.apply} keeps: a fanout
   group, the edges u -> v_i of weights w_i that start at one source
   signal, keeps max_i (w_i + r(v_i)) − r(u) latches in one shared chain
   (Leiserson & Saxe's fanout sharing).  A group of one edge adds
   r(v) − r(u) to the objective.  A larger group gets a mirror vertex m
   with r(v_i) − r(m) ≤ w_max − w_i and adds r(m) − r(u); at the optimum
   r(m) = max_i (w_i + r(v_i)) − w_max.  So the objective and the kept
   count differ by a constant: each group's w_max plus the exposed
   latches.  Mirrors are numbered after the vertices. *)

let edge_constraints g =
  (* the two host vertices must retime identically *)
  let acc = ref [ (Rgraph.host, Rgraph.host_sink, 0); (Rgraph.host_sink, Rgraph.host, 0) ] in
  Digraph.iter_edges (fun _ e -> acc := (e.src, e.dst, e.weight) :: !acc) g.Rgraph.graph;
  !acc

(* The objective a over the vertices and mirrors, and the mirrors'
   constraints. *)
let objective (g : Rgraph.t) =
  let n = Rgraph.vertex_count g in
  let groups = Array.map (Array.map (Digraph.edge g.graph)) g.groups in
  let shared = List.filter (fun es -> Array.length es > 1) (Array.to_list groups) in
  let a = Array.make (n + List.length shared) 0 in
  Array.iter
    (fun (es : Digraph.edge array) ->
      a.(es.(0).src) <- a.(es.(0).src) - 1;
      if Array.length es = 1 then a.(es.(0).dst) <- a.(es.(0).dst) + 1)
    groups;
  let mirror m es =
    a.(m) <- 1;
    let wmax = Array.fold_left (fun w (e : Digraph.edge) -> max w e.weight) 0 es in
    Array.to_list (Array.map (fun (e : Digraph.edge) -> (e.dst, m, wmax - e.weight)) es)
  in
  (a, List.concat (List.mapi (fun k es -> mirror (n + k) es) shared))

(* [bound] (the vertices' lb or ub) extended to the mirrors: at the
   optimum a mirror sits at max_i (r(v_i) − (w_max − w_i)), which ranges
   from that maximum over lb to that maximum over ub, since lb and ub are
   themselves solutions.  A missing bound stays missing: a fanout without
   one adds nothing to the least maximum and lifts the greatest out of
   range.  The heaviest edge's constraint has b = 0, so every mirror
   takes a value at least [-Feas.unbounded]. *)
let mirror_bound bound ~nodes mirror_constraints =
  let n = Array.length bound in
  let b = Array.append bound (Array.make (nodes - n) (-Feas.unbounded)) in
  List.iter
    (fun (v, m, c) ->
      let x = if abs bound.(v) >= Feas.unbounded then bound.(v) else bound.(v) - c in
      if x > b.(m) then b.(m) <- x)
    mirror_constraints;
  b

(* ------------------------------------------------------------------ *)
(* W/D-matrix period constraints.                                      *)
(* ------------------------------------------------------------------ *)

let node_bits n =
  let b = ref 1 in
  while 1 lsl !b < n do incr b done;
  !b

(* Whether every key [W·DB + (DB−1−D)], shifted past the node bits, fits
   an int: W is bounded by the total latch count and D by the total
   delay. *)
let keys_pack (g : Rgraph.t) =
  let db = 1 + Array.fold_left ( + ) 0 g.delay in
  let wb = ref 1 in
  Digraph.iter_edges (fun _ e -> wb := !wb + e.weight) g.graph;
  !wb <= max_int asr (node_bits (Digraph.node_count g.graph) + 2) / db

(* One lexicographic Dijkstra per free source finds its violating pairs;
   three ideas make that cheap:

   Packed Dijkstra: the lexicographic (min W, then max D) search runs over
   the shared {!Rgraph.csr} image with reusable distance/heap scratch and
   keys [W·DB + (DB−1−D)] packed into an unboxed int heap (DB bounds the
   accumulated delay; min-weight paths are simple because zero-weight
   cycles would be register-free feedback loops).

   Lattice bounds: with every label held in [lb, ub] (see {!Feas.bounds}),
   the pair (u, v) is implied when ub(u) − lb(v) ≤ W(u,v) − 1, and any
   pair with a fixed endpoint is implied too, since every solution gives
   that endpoint its one label.  So only free vertices are searched, and
   a source's search stops once its popped W reaches ub(u) − (least
   finite free lb) + 1: every target from there on is implied (a source
   the host reaches only reaches vertices with finite lb).

   Dominance pruning: the constraint [r(u) − r(v) ≤ W(u,v) − 1] is implied
   whenever some violating predecessor [x] of [v] has
   [W(u,x) + w(x→v) ≤ W(u,v)]: chaining x's constraint with the base edge
   constraint of [x→v] gives a bound at least as strong (and x's own
   constraint is emitted or implied in turn — a cyclic chain would
   need two zero-weight edges closing a register-free cycle, which cannot
   exist).  Such an [x] has a smaller W than [v], so the stopped search
   has settled it.  Only the earliest violating vertices along each
   shortest path survive, typically a few percent of the violating pairs.
   (Stopping the search itself at the violation frontier was tried and
   rejected: it starves the dominance check of marked predecessors,
   inflating the kept set ~7x and shifting the cost into the flow.)

   Sources are swept in parallel on the {!Par.Pool} when one is given;
   every chunk runs against the shared read-only CSR with its own
   scratch, and returns its pairs in source order. *)
let period_constraints_csr (c : Rgraph.csr) ~delay ~period ~lb ~ub ~lb_min ~sources ~lo ~hi
    () =
  let n = c.nv in
  let db = 1 + Array.fold_left ( + ) 0 delay in
  let wmax = Array.fold_left ( + ) 0 c.succ_weight in
  let node_bits = node_bits n in
  let w = Array.make n max_int in
  let d = Array.make n 0 in
  let touched = Array.make n 0 in
  let ntouched = ref 0 in
  let cand = Array.make n (-1) in
  let heap = Iheap.create () in
  let acc = ref [] in
  let kept = ref 0 and pruned = ref 0 in
  for i = lo to hi do
    let u = sources.(i) in
    (* lexicographic Dijkstra from u, stopped at W = cutoff *)
    let cutoff = if lb.(u) = -Feas.unbounded then max_int else ub.(u) - lb_min + 1 in
    let stop = if cutoff > wmax then max_int else cutoff * db in
    let du = delay.(u) in
    ntouched := 0;
    w.(u) <- 0;
    d.(u) <- 0;
    touched.(!ntouched) <- u;
    incr ntouched;
    (* key(v) = w(v)·db + (db − 1 − d(v)); entry = key lsl node_bits | v *)
    Iheap.add heap (((db - 1) lsl node_bits) lor u);
    let searching = ref true in
    while !searching && not (Iheap.is_empty heap) do
      let e = Iheap.pop_min heap in
      let v = e land ((1 lsl node_bits) - 1) in
      let key = e lsr node_bits in
      if key >= stop then searching := false
      else if key = (w.(v) * db) + (db - 1 - d.(v)) then
        for k = c.succ_off.(v) to c.succ_off.(v + 1) - 1 do
          let y = c.succ_dst.(k) in
          let nw = w.(v) + c.succ_weight.(k) in
          let nd = d.(v) + delay.(y) in
          if
            nw < w.(y)
            || (nw = w.(y) && nd > d.(y))
          then begin
            if w.(y) = max_int then begin
              touched.(!ntouched) <- y;
              incr ntouched
            end;
            w.(y) <- nw;
            d.(y) <- nd;
            Iheap.add heap ((((nw * db) + (db - 1 - nd)) lsl node_bits) lor y)
          end
        done
    done;
    (* violating targets of u among the settled vertices *)
    for i = 0 to !ntouched - 1 do
      let v = touched.(i) in
      if v <> u && w.(v) < cutoff && d.(v) + du > period then cand.(v) <- u
    done;
    (* emit the pairs neither the bounds nor dominance imply *)
    for i = 0 to !ntouched - 1 do
      let v = touched.(i) in
      if cand.(v) = u then begin
        let implied = ref (lb.(v) = ub.(v) || ub.(u) - lb.(v) <= w.(v) - 1) in
        let k = ref c.pred_off.(v) in
        let stop = c.pred_off.(v + 1) in
        while (not !implied) && !k < stop do
          let x = c.pred_src.(!k) in
          if cand.(x) = u && w.(x) + c.pred_weight.(!k) <= w.(v) then
            implied := true;
          incr k
        done;
        if !implied then incr pruned
        else begin
          acc := (u, v, w.(v) - 1) :: !acc;
          incr kept
        end
      end
    done;
    (* reset scratch *)
    for i = 0 to !ntouched - 1 do
      let v = touched.(i) in
      w.(v) <- max_int;
      d.(v) <- 0
    done;
    Iheap.clear heap
  done;
  (List.rev !acc, !kept, !pruned)

let period_constraints ?pool g ~period ~lb ~ub ~free =
  Obs.span ~name:"minarea.period_constraints" @@ fun () ->
  let c = Rgraph.csr g in
  let delay = g.Rgraph.delay in
  let sources = Array.of_list (List.filter free (List.init c.nv Fun.id)) in
  let lb_min =
    Array.fold_left
      (fun m v -> if lb.(v) = -Feas.unbounded then m else min m lb.(v))
      max_int sources
  in
  let ns = Array.length sources in
  Obs.count "minarea.sources_searched" ns;
  let chunks =
    match pool with
    | Some pool when Par.Pool.jobs pool > 1 && ns > 64 ->
        let jobs = Par.Pool.jobs pool in
        let pieces = min ns (4 * jobs) in
        List.init pieces (fun i -> (i * ns / pieces, ((i + 1) * ns / pieces) - 1))
    | _ -> [ (0, ns - 1) ]
  in
  let work (lo, hi) =
    period_constraints_csr c ~delay ~period ~lb ~ub ~lb_min ~sources ~lo ~hi ()
  in
  let results =
    match (pool, chunks) with
    | Some pool, _ :: _ :: _ -> Par.Pool.map pool work chunks
    | _ -> List.map work chunks
  in
  let kept = List.fold_left (fun t (_, k, _) -> t + k) 0 results in
  let pruned = List.fold_left (fun t (_, _, p) -> t + p) 0 results in
  Obs.count "minarea.constraints_kept" kept;
  Obs.count "minarea.constraints_pruned" pruned;
  Obs.attr (fun () ->
      [ ("sources", Obs.Int ns); ("kept", Obs.Int kept); ("pruned", Obs.Int pruned) ]);
  List.concat_map (fun (l, _, _) -> l) results

(* ------------------------------------------------------------------ *)
(* LP via min-cost flow                                                *)
(* ------------------------------------------------------------------ *)

let internal msg = failwith ("Minarea.solve: internal error: " ^ msg)

let lp_solve ~nvertices ~constraints ~a =
  (* Feasibility first: the difference-constraint graph (edge v -> u with
     weight b per constraint r(u) - r(v) <= b) must have no negative cycle;
     otherwise the flow below would see a negative-cost cycle.  Its
     distances double as reduced-cost-feasible initial potentials for the
     flow (π = −dist), so Bellman–Ford runs exactly once. *)
  let bf =
    Obs.span ~name:"minarea.bellman_ford" @@ fun () ->
    let cg = Digraph.create () in
    Digraph.add_nodes cg nvertices;
    List.iter (fun (u, v, b) -> ignore (Digraph.add_edge cg ~weight:b v u)) constraints;
    Bellman_ford.feasible_potentials cg
  in
  let dist = match bf with Some d -> d | None -> internal "infeasible constraint system" in
  let cap = 1 + Array.fold_left (fun acc x -> acc + abs x) 0 a in
  let arcs =
    List.map
      (fun (u, v, b) -> { Mincost_flow.src = u; dst = v; capacity = cap; cost = b })
      constraints
  in
  let supply = Array.map (fun x -> -x) a in
  let init_potentials = Array.map (fun p -> -p) dist in
  match Mincost_flow.solve ~init_potentials ~nodes:nvertices ~arcs supply with
  | Some { potentials; _ } -> Array.map (fun p -> -p) potentials
  | None -> internal "infeasible flow"

(* The vertices whose bound needs an arc to the host.  [carry c] is
   [Some (x, y)] when the kept constraint [c] carries x's bound to y:
   for (u, v, b), u's lower bound to v when lb(u) − b = lb(v), and v's
   upper bound to u when ub(v) + b = ub(u).  A vertex reached along such
   a chain from a vertex with an arc has its bound implied, so only the
   vertices without a carrying in-edge get an arc, then one per cycle
   still uncovered.  Arcs into and out of the host for every free vertex
   would make the host a hub that most augmenting searches of the flow
   cross. *)
let uncarried ~n ~bounded carry constraints =
  let succ = Array.make n [] and entered = Array.make n false in
  List.iter
    (fun c ->
      match carry c with
      | Some (x, y) when bounded x && bounded y ->
          succ.(x) <- y :: succ.(x);
          entered.(y) <- true
      | Some _ | None -> ())
    constraints;
  let covered = Array.make n false in
  let rec cover = function
    | [] -> ()
    | x :: rest when covered.(x) -> cover rest
    | x :: rest ->
        covered.(x) <- true;
        cover (succ.(x) @ rest)
  in
  let pick roots v =
    if bounded v && not covered.(v) then begin
      cover [ v ];
      v :: roots
    end
    else roots
  in
  let vs = List.init n Fun.id in
  let roots = List.fold_left (fun r v -> if entered.(v) then r else pick r v) [] vs in
  List.rev (List.fold_left pick roots vs)

(* The LP over the free vertices and mirrors and the host: the W/D pairs
   and the edge and mirror constraints the bounds do not imply, plus the
   host arcs of the bounds no kept constraint carries; a fixed vertex or
   mirror takes its one label.  Returns the labeling of the vertices and
   mirrors and the constraints it must satisfy. *)
let solve_bounded ?pool ?period g ~lb ~ub =
  let n = Rgraph.vertex_count g in
  let a, mirror_constraints = objective g in
  let nodes = Array.length a in
  let lb = mirror_bound lb ~nodes mirror_constraints in
  let ub = mirror_bound ub ~nodes mirror_constraints in
  let free v = lb.(v) < ub.(v) in
  let count lo hi = List.length (List.filter free (List.init (hi - lo) (( + ) lo))) in
  Obs.count "minarea.fixed_vertices" (n - count 0 n);
  Obs.count "minarea.mirrors" (count n nodes);
  let pairs =
    match period with
    | Some c -> period_constraints ?pool g ~period:c ~lb ~ub ~free
    | None -> []
  in
  let edges =
    List.filter
      (fun (u, v, b) -> free u && free v && ub.(u) - lb.(v) > b)
      (edge_constraints g @ mirror_constraints)
  in
  let kept = pairs @ edges in
  let bounded b v = free v && abs b.(v) < Feas.unbounded in
  let host_arcs =
    List.map
      (fun v -> (Rgraph.host, v, -lb.(v)))
      (uncarried ~n:nodes ~bounded:(bounded lb)
         (fun (u, v, b) -> if lb.(u) - b = lb.(v) then Some (u, v) else None)
         kept)
    @ List.map
        (fun v -> (v, Rgraph.host, ub.(v)))
        (uncarried ~n:nodes ~bounded:(bounded ub)
           (fun (u, v, b) -> if ub.(v) + b = ub.(u) then Some (v, u) else None)
           kept)
  in
  let constraints = kept @ host_arcs in
  (* flow node 0 is the host, the free vertices and mirrors follow in
     order *)
  let node = Array.make nodes 0 in
  let k = ref 1 in
  for v = 0 to nodes - 1 do
    if v <> Rgraph.host && free v then begin
      node.(v) <- !k;
      incr k
    end
  done;
  let fa = Array.make !k 0 in
  for v = 0 to nodes - 1 do
    if v <> Rgraph.host && free v then begin
      fa.(node.(v)) <- a.(v);
      fa.(0) <- fa.(0) - a.(v)
    end
  done;
  let mapped = List.map (fun (u, v, b) -> (node.(u), node.(v), b)) constraints in
  let p = lp_solve ~nvertices:!k ~constraints:mapped ~a:fa in
  (Array.init nodes (fun v -> if free v then p.(node.(v)) - p.(0) else lb.(v)), constraints)

let solve ?period ?pool g =
  Obs.span ~name:"minarea.solve" @@ fun () ->
  let n = Rgraph.vertex_count g in
  if period <> None && not (keys_pack g) then
    invalid_arg "Minarea.solve: the W/D path keys overflow an int";
  (* the period's bounds decide infeasibility before any constraint is
     built; without a period every vertex is free and nothing is
     implied *)
  let bounds =
    match period with
    | Some c -> Feas.bounds g ~period:c
    | None -> Some { Feas.lb = Array.make n (-Feas.unbounded); ub = Array.make n Feas.unbounded }
  in
  match bounds with
  | None -> None
  | Some { Feas.lb; ub } ->
      let labels, constraints = solve_bounded ?pool ?period g ~lb ~ub in
      let r = Array.sub labels 0 n in
      let satisfied (u, v, b) = labels.(u) - labels.(v) <= b in
      if not (List.for_all satisfied constraints && Rgraph.is_legal g ~r) then
        internal "labels break their constraints";
      (match period with
      | Some c when Feas.period_of g ~r > c -> internal "labels miss the period"
      | Some _ | None -> ());
      Some r
