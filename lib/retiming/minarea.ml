open Vgraph
(* Constraints have the form r(u) - r(v) <= b.  The LP
     min Σ_v a(v)·r(v)   s.t.   r(u) − r(v) ≤ b(u,v)
   with a(v) = indeg(v) − outdeg(v) is the dual of a min-cost flow problem:
   one arc per constraint (u -> v, cost b, infinite capacity), node net
   outflow −a(v); the optimal node potentials π give r = −π. *)

let edge_constraints g =
  (* the two host vertices must retime identically *)
  let acc = ref [ (Rgraph.host, Rgraph.host_sink, 0); (Rgraph.host_sink, Rgraph.host, 0) ] in
  Digraph.iter_edges (fun _ e -> acc := (e.src, e.dst, e.weight) :: !acc) g.Rgraph.graph;
  !acc

let objective g =
  let n = Digraph.node_count g.Rgraph.graph in
  let a = Array.make n 0 in
  Digraph.iter_edges
    (fun _ e ->
      a.(e.dst) <- a.(e.dst) + 1;
      a.(e.src) <- a.(e.src) - 1)
    g.Rgraph.graph;
  a

let check_constraints r constraints =
  List.for_all (fun (u, v, b) -> r.(u) - r.(v) <= b) constraints

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
  match bf with
  | None -> None
  | Some dist ->
      let cap = 1 + Array.fold_left (fun acc x -> acc + abs x) 0 a in
      let arcs =
        List.map
          (fun (u, v, b) -> { Mincost_flow.src = u; dst = v; capacity = cap; cost = b })
          constraints
      in
      let supply = Array.map (fun x -> -x) a in
      let init_potentials = Array.map (fun p -> -p) dist in
      match Mincost_flow.solve ~init_potentials ~nodes:nvertices ~arcs supply with
      | None -> None
      | Some { potentials; _ } -> Some (Array.map (fun p -> -p) potentials)

(* Largest graph that gets the exact (quadratic) W/D constraints. *)
let max_exact_vertices = 4000

let internal msg = failwith ("Minarea.solve: internal error: " ^ msg)

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

(* The LP over the free vertices and the host: the W/D pairs and the
   edges the bounds do not imply, plus the host arcs of the bounds no
   kept constraint carries; a fixed vertex takes its one label.  Returns
   the full labeling and the constraints it must satisfy, or [None] when
   the system is infeasible. *)
let solve_bounded ?pool g ~n ~pairs_at ~lb ~ub =
  let free v = lb.(v) < ub.(v) in
  Obs.count "minarea.fixed_vertices" (n - List.length (List.filter free (List.init n Fun.id)));
  let pairs =
    match pairs_at with
    | Some c -> period_constraints ?pool g ~period:c ~lb ~ub ~free
    | None -> []
  in
  let edges =
    List.filter
      (fun (u, v, b) -> free u && free v && ub.(u) - lb.(v) > b)
      (edge_constraints g)
  in
  let kept = pairs @ edges in
  let bounded b v = free v && abs b.(v) < Feas.unbounded in
  let host_arcs =
    List.map
      (fun v -> (Rgraph.host, v, -lb.(v)))
      (uncarried ~n ~bounded:(bounded lb)
         (fun (u, v, b) -> if lb.(u) - b = lb.(v) then Some (u, v) else None)
         kept)
    @ List.map
        (fun v -> (v, Rgraph.host, ub.(v)))
        (uncarried ~n ~bounded:(bounded ub)
           (fun (u, v, b) -> if ub.(v) + b = ub.(u) then Some (v, u) else None)
           kept)
  in
  let constraints = kept @ host_arcs in
  (* flow node 0 is the host, the free vertices follow in order *)
  let node = Array.make n 0 in
  let k = ref 1 in
  for v = 0 to n - 1 do
    if v <> Rgraph.host && free v then begin
      node.(v) <- !k;
      incr k
    end
  done;
  let a = objective g in
  let fa = Array.make !k 0 in
  for v = 0 to n - 1 do
    if v <> Rgraph.host && free v then begin
      fa.(node.(v)) <- a.(v);
      fa.(0) <- fa.(0) - a.(v)
    end
  done;
  let mapped = List.map (fun (u, v, b) -> (node.(u), node.(v), b)) constraints in
  match lp_solve ~nvertices:!k ~constraints:mapped ~a:fa with
  | None -> None
  | Some p ->
      Some (Array.init n (fun v -> if free v then p.(node.(v)) - p.(0) else lb.(v)), constraints)

let solve ?period ?pool g =
  Obs.span ~name:"minarea.solve" @@ fun () ->
  let n = Digraph.node_count g.Rgraph.graph in
  let exact =
    match period with
    | Some _ -> n <= max_exact_vertices && keys_pack g
    | None -> false
  in
  let pairs_at = if exact then period else None in
  (* the period's bounds decide infeasibility in both modes, before any
     flow; only the exact mode builds its LP over them.  Without W/D
     pairs every vertex is free and nothing is implied. *)
  let bounds = Option.map (fun c -> Feas.bounds g ~period:c) period in
  if bounds = Some None then None
  else
    let { Feas.lb; ub } =
      match bounds with
      | Some (Some b) when exact -> b
      | _ -> { Feas.lb = Array.make n (-Feas.unbounded); ub = Array.make n Feas.unbounded }
    in
    (* the bounds prove the period feasible, and the edge constraints
       alone are met by r = 0 *)
    match solve_bounded ?pool g ~n ~pairs_at ~lb ~ub with
    | None -> internal "infeasible constraint system"
    | Some (r, constraints) -> (
        if not (check_constraints r constraints && Rgraph.is_legal g ~r) then
          internal "labels break their constraints";
        match period with
        | None -> Some r
        | Some c ->
            if Feas.period_of g ~r <= c then Some r
            else if exact then internal "exact labels miss the period"
            else
              (* the FEAS-repair mode: FEAS from the min-area labels,
                 clamped into the bounds that proved the period feasible
                 (area-suboptimal but correct).  [Feas.feasible] computes
                 those bounds again; they cost 0.009 s on s15850's
                 8,555-vertex F graph, against over a second for its
                 flow, so they are not passed through. *)
              Feas.feasible ~init:r g ~period:c)
