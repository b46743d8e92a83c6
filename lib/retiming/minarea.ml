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

(* One lexicographic Dijkstra per source finds its violating pairs; two
   ideas make that cheap:

   Packed Dijkstra: the lexicographic (min W, then max D) search runs over
   the shared {!Rgraph.csr} image with reusable distance/heap scratch and
   keys [W·DB + (DB−1−D)] packed into an unboxed int heap (DB bounds the
   accumulated delay; min-weight paths are simple because zero-weight
   cycles would be register-free feedback loops).

   Dominance pruning: the constraint [r(u) − r(v) ≤ W(u,v) − 1] is implied
   whenever some violating predecessor [x] of [v] has
   [W(u,x) + w(x→v) ≤ W(u,v)]: chaining x's constraint with the base edge
   constraint of [x→v] gives a bound at least as strong (and x's own
   constraint is either emitted or implied in turn — a cyclic chain would
   need two zero-weight edges closing a register-free cycle, which cannot
   exist).  Only the earliest violating vertices along each shortest path
   survive, typically a few percent of the violating pairs.  (Stopping
   the search itself at the violation frontier was tried and rejected: it
   starves the dominance check of marked predecessors, inflating the kept
   set ~7x and shifting the cost into the flow.)

   Sources are swept in parallel on the {!Par.Pool} when one is given;
   every chunk runs against the shared read-only CSR with its own
   scratch. *)
let period_constraints_csr (c : Rgraph.csr) ~delay ~period ~lo ~hi () =
  let n = c.nv in
  let db = 1 + Array.fold_left ( + ) 0 delay in
  let node_bits = node_bits n in
  let w = Array.make n max_int in
  let d = Array.make n 0 in
  let touched = Array.make n 0 in
  let ntouched = ref 0 in
  let cand = Array.make n (-1) in
  let heap = Iheap.create () in
  let acc = ref [] in
  let kept = ref 0 and pruned = ref 0 in
  for u = lo to hi do
    (* lexicographic Dijkstra from u, stopped at the violation frontier *)
    let du = delay.(u) in
    ntouched := 0;
    w.(u) <- 0;
    d.(u) <- 0;
    touched.(!ntouched) <- u;
    incr ntouched;
    (* key(v) = w(v)·db + (db − 1 − d(v)); entry = key lsl node_bits | v *)
    Iheap.add heap (((db - 1) lsl node_bits) lor u);
    while not (Iheap.is_empty heap) do
      let e = Iheap.pop_min heap in
      let v = e land ((1 lsl node_bits) - 1) in
      let key = e lsr node_bits in
      if key = (w.(v) * db) + (db - 1 - d.(v)) then
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
    (* violating targets of u *)
    for i = 0 to !ntouched - 1 do
      let v = touched.(i) in
      if v <> u && d.(v) + du > period then cand.(v) <- u
    done;
    (* emit the dominance-free subset *)
    for i = 0 to !ntouched - 1 do
      let v = touched.(i) in
      if cand.(v) = u then begin
        let implied = ref false in
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
  (!acc, !kept, !pruned)

let period_constraints ?pool g ~period =
  Obs.span ~name:"minarea.period_constraints" @@ fun () ->
  let c = Rgraph.csr g in
  let delay = g.Rgraph.delay in
  let n = c.nv in
  let chunks =
    match pool with
    | Some pool when Par.Pool.jobs pool > 1 && n > 64 ->
        let jobs = Par.Pool.jobs pool in
        let pieces = min n (4 * jobs) in
        List.init pieces (fun i -> (i * n / pieces, ((i + 1) * n / pieces) - 1))
    | _ -> [ (0, n - 1) ]
  in
  let work (lo, hi) = period_constraints_csr c ~delay ~period ~lo ~hi () in
  let results =
    match (pool, chunks) with
    | Some pool, _ :: _ :: _ -> Par.Pool.map pool work chunks
    | _ -> List.map work chunks
  in
  let kept = List.fold_left (fun t (_, k, _) -> t + k) 0 results in
  let pruned = List.fold_left (fun t (_, _, p) -> t + p) 0 results in
  Obs.count "minarea.constraints_kept" kept;
  Obs.count "minarea.constraints_pruned" pruned;
  Obs.attr (fun () -> [ ("kept", Obs.Int kept); ("pruned", Obs.Int pruned) ]);
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

let solve ?period ?pool g =
  Obs.span ~name:"minarea.solve" @@ fun () ->
  let n = Digraph.node_count g.Rgraph.graph in
  let a = objective g in
  let base = edge_constraints g in
  let constraints =
    match period with
    | Some c when n <= max_exact_vertices && keys_pack g ->
        period_constraints ?pool g ~period:c @ base
    | Some _ | None -> base
  in
  match lp_solve ~nvertices:n ~constraints ~a with
  | None ->
      (* base constraints alone are always satisfiable (r = 0), so a failure
         without a period bound is an internal bug, not an input property *)
      if period = None then
        invalid_arg "Minarea.solve: infeasible constraint system"
      else None
  | Some r -> (
      let r = Rgraph.normalize g ~r in
      assert (check_constraints r base);
      if not (check_constraints r constraints) then None
      else
        match period with
        | None -> Some r
        | Some c ->
            (* exact mode already satisfies the period; FEAS-repair mode
               repairs.  FEAS's round bound only covers the all-zero start,
               so if the repair from the min-area labels stalls, restart
               from scratch (area-suboptimal but correct). *)
            if Feas.period_of g ~r <= c then Some r
            else (
              match Feas.feasible ~init:r g ~period:c with
              | Some _ as s -> s
              | None -> Feas.feasible g ~period:c))
