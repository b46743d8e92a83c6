(* Unit + property tests for the graph substrate. *)

let st = Random.State.make [| 0x5EED1 |]

let random_digraph ?(allow_self = true) ~nodes ~edges () =
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g nodes;
  for _ = 1 to edges do
    let u = Random.State.int st nodes in
    let v = Random.State.int st nodes in
    if allow_self || u <> v then ignore (Vgraph.Digraph.add_edge g u v)
  done;
  g

let random_dag ~nodes ~edges =
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g nodes;
  for _ = 1 to edges do
    let u = Random.State.int st nodes and v = Random.State.int st nodes in
    if u < v then ignore (Vgraph.Digraph.add_edge g u v)
  done;
  g

(* ---- Vec ---- *)

let test_vec_push_pop () =
  let v = Vgraph.Vec.create ~dummy:0 () in
  for i = 0 to 999 do
    Alcotest.(check int) "push index" i (Vgraph.Vec.push v i)
  done;
  Alcotest.(check int) "length" 1000 (Vgraph.Vec.length v);
  for i = 999 downto 0 do
    Alcotest.(check int) "pop" i (Vgraph.Vec.pop v)
  done;
  Alcotest.(check bool) "empty" true (Vgraph.Vec.is_empty v)

let test_vec_bounds () =
  let v = Vgraph.Vec.create ~dummy:0 () in
  ignore (Vgraph.Vec.push v 42);
  Alcotest.check_raises "get oob" (Invalid_argument "Vec: index 1 out of bounds (len 1)")
    (fun () -> ignore (Vgraph.Vec.get v 1));
  Alcotest.check_raises "get neg" (Invalid_argument "Vec: index -1 out of bounds (len 1)")
    (fun () -> ignore (Vgraph.Vec.get v (-1)))

let test_vec_shrink_iter () =
  let v = Vgraph.Vec.create ~dummy:(-1) () in
  for i = 0 to 9 do
    ignore (Vgraph.Vec.push v i)
  done;
  Vgraph.Vec.shrink v 5;
  Alcotest.(check (list int)) "after shrink" [ 0; 1; 2; 3; 4 ] (Vgraph.Vec.to_list v);
  let sum = Vgraph.Vec.fold ( + ) 0 v in
  Alcotest.(check int) "fold" 10 sum

(* ---- Heap ---- *)

let test_heap_sorts () =
  let h = Vgraph.Heap.create ~cmp:compare ~dummy:0 () in
  let xs = List.init 500 (fun _ -> Random.State.int st 10000) in
  List.iter (Vgraph.Heap.add h) xs;
  let out = List.init 500 (fun _ -> Vgraph.Heap.pop_min h) in
  Alcotest.(check (list int)) "heap sort" (List.sort compare xs) out

(* ---- Topo ---- *)

let test_topo_dag () =
  for _ = 1 to 50 do
    let g = random_dag ~nodes:30 ~edges:80 in
    match Vgraph.Topo.sort g with
    | None -> Alcotest.fail "DAG reported cyclic"
    | Some order ->
        let pos = Array.make 30 0 in
        List.iteri (fun i v -> pos.(v) <- i) order;
        Vgraph.Digraph.iter_edges
          (fun _ e ->
            if pos.(e.src) >= pos.(e.dst) then Alcotest.fail "order violates edge")
          g
  done

let test_topo_cycle_detect () =
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g 3;
  ignore (Vgraph.Digraph.add_edge g 0 1);
  ignore (Vgraph.Digraph.add_edge g 1 2);
  ignore (Vgraph.Digraph.add_edge g 2 0);
  Alcotest.(check bool) "cyclic" false (Vgraph.Topo.is_acyclic g);
  match Vgraph.Topo.find_cycle g with
  | None -> Alcotest.fail "no cycle found"
  | Some cyc ->
      Alcotest.(check int) "cycle length" 3 (List.length cyc)

let test_topo_levels () =
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g 4;
  ignore (Vgraph.Digraph.add_edge g 0 1);
  ignore (Vgraph.Digraph.add_edge g 1 2);
  ignore (Vgraph.Digraph.add_edge g 0 2);
  ignore (Vgraph.Digraph.add_edge g 2 3);
  let lev = Vgraph.Topo.levels g in
  Alcotest.(check (list int)) "levels" [ 0; 1; 2; 3 ] (Array.to_list lev)

(* ---- SCC ---- *)

let test_scc_partition () =
  for _ = 1 to 30 do
    let n = 20 in
    let g = random_digraph ~nodes:n ~edges:40 () in
    let comps = Vgraph.Scc.components g in
    (* partition: every node exactly once *)
    let seen = Array.make n 0 in
    List.iter (List.iter (fun v -> seen.(v) <- seen.(v) + 1)) comps;
    Array.iter (fun k -> Alcotest.(check int) "node in exactly one SCC" 1 k) seen;
    (* reverse topological order: sinks first, so a cross edge src -> dst
       must point to an earlier-listed component *)
    let id, _ = Vgraph.Scc.component_ids g in
    Vgraph.Digraph.iter_edges
      (fun _ e ->
        if id.(e.src) <> id.(e.dst) && id.(e.src) < id.(e.dst) then
          Alcotest.fail "component order violated")
      g
  done

let test_scc_mutual_reach () =
  (* two nodes in same SCC iff mutually reachable *)
  let reachable g src =
    let n = Vgraph.Digraph.node_count g in
    let seen = Array.make n false in
    let rec go v =
      if not seen.(v) then begin
        seen.(v) <- true;
        Vgraph.Digraph.iter_succ g v (fun _ e -> go e.dst)
      end
    in
    go src;
    seen
  in
  for _ = 1 to 20 do
    let n = 12 in
    let g = random_digraph ~nodes:n ~edges:20 () in
    let id, _ = Vgraph.Scc.component_ids g in
    let reach = Array.init n (fun v -> reachable g v) in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        let mutual = reach.(u).(v) && reach.(v).(u) in
        Alcotest.(check bool)
          (Printf.sprintf "scc %d %d" u v)
          mutual
          (id.(u) = id.(v))
      done
    done
  done

(* ---- Bellman-Ford ---- *)

let test_bf_feasible_difference_constraints () =
  for _ = 1 to 40 do
    let n = 10 in
    let g = Vgraph.Digraph.create () in
    Vgraph.Digraph.add_nodes g n;
    (* generate a feasible system from a hidden assignment *)
    let x = Array.init n (fun _ -> Random.State.int st 20 - 10) in
    for _ = 1 to 25 do
      let u = Random.State.int st n and v = Random.State.int st n in
      (* constraint d(v) <= d(u) + w with w >= x(v) - x(u): feasible *)
      let w = x.(v) - x.(u) + Random.State.int st 3 in
      ignore (Vgraph.Digraph.add_edge g ~weight:w u v)
    done;
    match Bellman_ford.feasible_potentials g with
    | None -> Alcotest.fail "feasible system declared infeasible"
    | Some p ->
        Vgraph.Digraph.iter_edges
          (fun _ e ->
            if p.(e.dst) > p.(e.src) + e.weight then Alcotest.fail "potentials invalid")
          g
  done

let test_bf_negative_cycle () =
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g 3;
  ignore (Vgraph.Digraph.add_edge g ~weight:1 0 1);
  ignore (Vgraph.Digraph.add_edge g ~weight:(-2) 1 2);
  ignore (Vgraph.Digraph.add_edge g ~weight:0 2 0);
  (match Bellman_ford.solve g with
  | Bellman_ford.Distances _ -> Alcotest.fail "missed negative cycle"
  | Bellman_ford.Negative_cycle cyc ->
      Alcotest.(check bool) "cycle nonempty" true (cyc <> []));
  Alcotest.(check bool) "feasible none" true
    (Bellman_ford.feasible_potentials g = None)

(* ---- lexicographic Dijkstra (the W/D oracle) ---- *)

let test_dijkstra_lexicographic () =
  (* diamond: two paths of equal weight, different delay: D must take max *)
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g 4;
  let delay = [| 0; 5; 1; 2 |] in
  ignore (Vgraph.Digraph.add_edge g ~weight:1 0 1);
  ignore (Vgraph.Digraph.add_edge g ~weight:0 1 3);
  ignore (Vgraph.Digraph.add_edge g ~weight:0 0 2);
  ignore (Vgraph.Digraph.add_edge g ~weight:1 2 3);
  let w, d = Retiming_oracle.lexicographic g ~src:0 ~tie:(fun e -> delay.(e.dst)) in
  Alcotest.(check int) "W(0,3)" 1 w.(3);
  (* both paths have weight 1; delays: via 1: 5+2=7, via 2: 1+2=3 -> 7 *)
  Alcotest.(check int) "D(0,3) picks max-delay min-weight path" 7 d.(3)

(* ---- Min-cost flow ---- *)

let test_flow_simple_transport () =
  (* source 0 (supply 4), sink 2 (-4); two routes with different costs *)
  let arcs =
    [
      { Mincost_flow.src = 0; dst = 1; capacity = 3; cost = 1 };
      { Mincost_flow.src = 1; dst = 2; capacity = 3; cost = 1 };
      { Mincost_flow.src = 0; dst = 2; capacity = 10; cost = 5 };
    ]
  in
  match Mincost_flow.solve ~nodes:3 ~arcs [| 4; 0; -4 |] with
  | None -> Alcotest.fail "feasible flow declared infeasible"
  | Some r ->
      (* 3 units via cheap route (cost 2 each), 1 via expensive (5) *)
      Alcotest.(check int) "total cost" ((3 * 2) + 5) r.Mincost_flow.total_cost

let test_flow_infeasible () =
  let arcs = [ { Mincost_flow.src = 0; dst = 1; capacity = 1; cost = 0 } ] in
  Alcotest.(check bool) "infeasible" true
    (Mincost_flow.solve ~nodes:2 ~arcs [| 3; -3 |] = None)

let test_flow_potentials_optimality () =
  (* after solving, reduced costs on arcs with residual capacity >= 0 *)
  for _ = 1 to 20 do
    let n = 6 in
    let arcs =
      List.init 12 (fun _ ->
          {
            Mincost_flow.src = Random.State.int st n;
            dst = Random.State.int st n;
            capacity = 1 + Random.State.int st 5;
            cost = Random.State.int st 8;
          })
    in
    (* supply: route 2 units between two random distinct nodes, plus a
       direct high-capacity arc to guarantee feasibility *)
    let s = Random.State.int st n in
    let t = (s + 1 + Random.State.int st (n - 1)) mod n in
    let arcs = { Mincost_flow.src = s; dst = t; capacity = 10; cost = 20 } :: arcs in
    let supply = Array.make n 0 in
    supply.(s) <- 2;
    supply.(t) <- -2;
    match Mincost_flow.solve ~nodes:n ~arcs supply with
    | None -> Alcotest.fail "unexpected infeasible"
    | Some r ->
        List.iteri
          (fun i (a : Mincost_flow.arc) ->
            let pi = r.Mincost_flow.potentials in
            if r.Mincost_flow.flow.(i) < a.capacity then
              Alcotest.(check bool) "reduced cost >= 0" true
                (a.cost + pi.(a.src) - pi.(a.dst) >= 0);
            if r.Mincost_flow.flow.(i) > 0 then
              Alcotest.(check bool) "reverse reduced cost >= 0" true
                (-a.cost + pi.(a.dst) - pi.(a.src) >= 0))
          arcs
  done

let test_flow_zero_capacity_arcs () =
  (* a zero-capacity arc carries nothing: the expensive route must win ... *)
  let arcs =
    [
      { Mincost_flow.src = 0; dst = 1; capacity = 0; cost = 0 };
      { Mincost_flow.src = 0; dst = 1; capacity = 2; cost = 7 };
    ]
  in
  (match Mincost_flow.solve ~nodes:2 ~arcs [| 2; -2 |] with
  | None -> Alcotest.fail "zero-capacity arc made a feasible problem infeasible"
  | Some r ->
      Alcotest.(check int) "cost via priced route" 14 r.Mincost_flow.total_cost;
      Alcotest.(check int) "zero-cap arc unused" 0 r.Mincost_flow.flow.(0));
  (* ... and with only the zero-capacity route the problem is infeasible *)
  let only = [ { Mincost_flow.src = 0; dst = 1; capacity = 0; cost = 0 } ] in
  Alcotest.(check bool) "zero-capacity-only route infeasible" true
    (Mincost_flow.solve ~nodes:2 ~arcs:only [| 1; -1 |] = None)

let test_flow_negative_cost_arc () =
  (* acyclic negative-cost arcs are legal and preferred *)
  let arcs =
    [
      { Mincost_flow.src = 0; dst = 1; capacity = 5; cost = -2 };
      { Mincost_flow.src = 0; dst = 1; capacity = 5; cost = 3 };
    ]
  in
  match Mincost_flow.solve ~nodes:2 ~arcs [| 4; -4 |] with
  | None -> Alcotest.fail "negative-cost arc made a feasible problem infeasible"
  | Some r -> Alcotest.(check int) "all flow on the cheap arc" (-8) r.Mincost_flow.total_cost

let test_flow_negative_cycle_rejected () =
  (* a residual negative-cost cycle is a caller bug, not an infeasibility *)
  let arcs =
    [
      { Mincost_flow.src = 0; dst = 1; capacity = 5; cost = -3 };
      { Mincost_flow.src = 1; dst = 0; capacity = 5; cost = 1 };
    ]
  in
  Alcotest.check_raises "negative cycle rejected"
    (Invalid_argument "Mincost_flow.solve: negative-cost cycle") (fun () ->
      ignore (Mincost_flow.solve ~nodes:2 ~arcs [| 0; 0 |]))

let test_flow_init_potentials () =
  let arcs =
    [
      { Mincost_flow.src = 0; dst = 1; capacity = 3; cost = 1 };
      { Mincost_flow.src = 1; dst = 2; capacity = 3; cost = 1 };
      { Mincost_flow.src = 0; dst = 2; capacity = 10; cost = 5 };
    ]
  in
  (* all-zero potentials are reduced-cost feasible on non-negative costs *)
  (match
     Mincost_flow.solve ~init_potentials:(Array.make 3 0) ~nodes:3 ~arcs
       [| 4; 0; -4 |]
   with
  | None -> Alcotest.fail "warm-started solve infeasible"
  | Some r -> Alcotest.(check int) "warm-started cost" 11 r.Mincost_flow.total_cost);
  (* infeasible potentials must be rejected, not silently accepted *)
  let bad = [| 0; 5; 0 |] in
  Alcotest.check_raises "bad potentials rejected"
    (Invalid_argument "Mincost_flow.solve: init_potentials not reduced-cost feasible")
    (fun () -> ignore (Mincost_flow.solve ~init_potentials:bad ~nodes:3 ~arcs [| 4; 0; -4 |]))

let test_flow_fast_vs_reference_random () =
  (* the scaling core and the reference oracle must agree on feasibility
     and on the optimal cost over random instances *)
  for _ = 1 to 60 do
    let n = 2 + Random.State.int st 6 in
    let arcs =
      List.init
        (4 + Random.State.int st 14)
        (fun _ ->
          {
            Mincost_flow.src = Random.State.int st n;
            dst = Random.State.int st n;
            capacity = Random.State.int st 6;
            cost = Random.State.int st 9;
          })
    in
    let supply = Array.make n 0 in
    let units = 1 + Random.State.int st 4 in
    for _ = 1 to units do
      let s = Random.State.int st n in
      let t = Random.State.int st n in
      supply.(s) <- supply.(s) + 1;
      supply.(t) <- supply.(t) - 1
    done;
    match
      ( Mincost_flow.solve ~nodes:n ~arcs supply,
        Retiming_oracle.flow_reference ~nodes:n ~arcs supply )
    with
    | Some f, Some r ->
        Alcotest.(check int) "optimal costs agree" r.Mincost_flow.total_cost
          f.Mincost_flow.total_cost
    | None, None -> ()
    | Some _, None -> Alcotest.fail "fast feasible, reference infeasible"
    | None, Some _ -> Alcotest.fail "fast infeasible, reference feasible"
  done;
  (* and on the min-area LP of every Table-1 graph up to 1,000 vertices,
     at its minimum period *)
  List.iter
    (fun (name, g, _) ->
      let period, _ = Feas.min_period g in
      let nodes, _, arcs, supply =
        Retiming_oracle.minarea_lp ~wd:(Retiming_oracle.shared_wd g) g ~period
      in
      match
        ( Mincost_flow.solve ~nodes ~arcs supply,
          Retiming_oracle.flow_reference ~nodes ~arcs supply )
      with
      | Some f, Some r ->
          Alcotest.(check int) (name ^ ": optimal costs agree") r.Mincost_flow.total_cost
            f.Mincost_flow.total_cost
      | _ -> Alcotest.fail (name ^ ": min-area LP infeasible"))
    (List.filter Test_retiming.up_to_1000 (Lazy.force Test_retiming.table1_graphs))

(* ---- minimum-weight closure ---- *)

(* On random networks of up to 10 nodes, against every subset: the
   closure that [Closure.solve] returns is closed, avoids the blocked
   nodes, has the least weight of all such subsets, and lies inside every
   subset of that weight.  Arcs added after a solve resume from its flow,
   and one network serves every instance through [clear]. *)
let test_closure_vs_enumeration () =
  let st = Random.State.make [| 0xC105E |] in
  let t = Vgraph.Closure.create 10 in
  for _ = 1 to 300 do
    let n = 1 + Random.State.int st 10 in
    let weight = Array.init n (fun _ -> Random.State.int st 9 - 4) in
    let blocked = Array.init n (fun _ -> Random.State.int st 6 = 0) in
    let arcs k = List.init k (fun _ -> (Random.State.int st n, Random.State.int st n)) in
    let first = arcs (Random.State.int st (2 * n)) in
    let later = arcs (Random.State.int st n) in
    Vgraph.Closure.clear t;
    Array.iteri (fun v w -> Vgraph.Closure.set_weight t v w) weight;
    Array.iteri (fun v b -> if b then Vgraph.Closure.block t v) blocked;
    let check arcs got =
      let mem mask v = mask land (1 lsl v) <> 0 in
      let closed mask =
        List.for_all (fun v -> not (mem mask v && blocked.(v))) (List.init n Fun.id)
        && List.for_all (fun (u, v) -> (not (mem mask u)) || mem mask v) arcs
      in
      let weigh mask =
        List.fold_left (fun acc v -> if mem mask v then acc + weight.(v) else acc) 0
          (List.init n Fun.id)
      in
      let closures = List.filter closed (List.init (1 lsl n) Fun.id) in
      let best = List.fold_left (fun b mask -> min b (weigh mask)) 0 closures in
      let got = List.fold_left (fun mask v -> mask lor (1 lsl v)) 0 got in
      Alcotest.(check bool) "closed" true (closed got);
      Alcotest.(check int) "least weight" best (weigh got);
      List.iter
        (fun mask ->
          if weigh mask = best then
            Alcotest.(check bool) "inside every minimizer" true (got land mask = got))
        closures
    in
    List.iter (fun (u, v) -> Vgraph.Closure.add_arc t u v) first;
    check first (Vgraph.Closure.solve t);
    List.iter (fun (u, v) -> Vgraph.Closure.add_arc t u v) later;
    check (first @ later) (Vgraph.Closure.solve t)
  done

(* ---- MFVS ---- *)

let test_mfvs_breaks_all_cycles () =
  for _ = 1 to 40 do
    let g = random_digraph ~nodes:15 ~edges:30 () in
    let s = Vgraph.Mfvs.solve g ~candidates:(fun _ -> true) in
    Alcotest.(check bool) "is feedback set" true (Vgraph.Mfvs.is_feedback_set g s)
  done

let test_mfvs_minimal_under_inclusion () =
  for _ = 1 to 20 do
    let g = random_digraph ~nodes:12 ~edges:22 () in
    let s = Vgraph.Mfvs.solve g ~candidates:(fun _ -> true) in
    List.iter
      (fun v ->
        let without = List.filter (fun u -> u <> v) s in
        Alcotest.(check bool) "no member is redundant" false
          (Vgraph.Mfvs.is_feedback_set g without))
      s
  done

let test_mfvs_self_loops_forced () =
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g 3;
  ignore (Vgraph.Digraph.add_edge g 0 0);
  ignore (Vgraph.Digraph.add_edge g 2 2);
  ignore (Vgraph.Digraph.add_edge g 0 1);
  let s = Vgraph.Mfvs.solve g ~candidates:(fun _ -> true) in
  Alcotest.(check (list int)) "both self-loops chosen" [ 0; 2 ] s

let test_mfvs_acyclic_empty () =
  let g = random_dag ~nodes:20 ~edges:40 in
  Alcotest.(check (list int)) "DAG needs nothing" []
    (Vgraph.Mfvs.solve g ~candidates:(fun _ -> true))

let test_mfvs_no_candidate () =
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g 2;
  ignore (Vgraph.Digraph.add_edge g 0 1);
  ignore (Vgraph.Digraph.add_edge g 1 0);
  Alcotest.check_raises "cycle without candidates"
    (Invalid_argument "Mfvs.solve: a cycle contains no candidate node") (fun () ->
      ignore (Vgraph.Mfvs.solve g ~candidates:(fun _ -> false)))

(* the shipped redundancy pass keeps self-loop picks untested; the
   oracle tests every pick, so the sets must agree with self-loops and
   without them *)
let test_mfvs_matches_oracle () =
  List.iter
    (fun allow_self ->
      for i = 1 to 100 do
        let nodes = 5 + (i mod 30) in
        let g = random_digraph ~allow_self ~nodes ~edges:(nodes * (1 + (i mod 3))) () in
        Alcotest.(check (list int))
          (Printf.sprintf "graph %d, self-loops %b" i allow_self)
          (Mfvs_oracle.solve g ~candidates:(fun _ -> true))
          (Vgraph.Mfvs.solve g ~candidates:(fun _ -> true))
      done)
    [ true; false ]

let suite =
  [
    Alcotest.test_case "vec push/pop" `Quick test_vec_push_pop;
    Alcotest.test_case "vec bounds" `Quick test_vec_bounds;
    Alcotest.test_case "vec shrink/iter" `Quick test_vec_shrink_iter;
    Alcotest.test_case "heap sorts" `Quick test_heap_sorts;
    Alcotest.test_case "topo on DAGs" `Quick test_topo_dag;
    Alcotest.test_case "topo cycle detection" `Quick test_topo_cycle_detect;
    Alcotest.test_case "topo levels" `Quick test_topo_levels;
    Alcotest.test_case "scc partition + order" `Quick test_scc_partition;
    Alcotest.test_case "scc = mutual reachability" `Quick test_scc_mutual_reach;
    Alcotest.test_case "bellman-ford feasible systems" `Quick test_bf_feasible_difference_constraints;
    Alcotest.test_case "bellman-ford negative cycle" `Quick test_bf_negative_cycle;
    Alcotest.test_case "dijkstra lexicographic (W,D)" `Quick test_dijkstra_lexicographic;
    Alcotest.test_case "min-cost flow transport" `Quick test_flow_simple_transport;
    Alcotest.test_case "min-cost flow infeasible" `Quick test_flow_infeasible;
    Alcotest.test_case "flow potentials optimal" `Quick test_flow_potentials_optimality;
    Alcotest.test_case "flow zero-capacity arcs" `Quick test_flow_zero_capacity_arcs;
    Alcotest.test_case "flow negative-cost arc" `Quick test_flow_negative_cost_arc;
    Alcotest.test_case "flow negative cycle rejected" `Quick test_flow_negative_cycle_rejected;
    Alcotest.test_case "flow warm-start potentials" `Quick test_flow_init_potentials;
    Alcotest.test_case "flow fast = reference" `Quick test_flow_fast_vs_reference_random;
    Alcotest.test_case "closure = enumeration" `Quick test_closure_vs_enumeration;
    Alcotest.test_case "mfvs breaks all cycles" `Quick test_mfvs_breaks_all_cycles;
    Alcotest.test_case "mfvs inclusion-minimal" `Quick test_mfvs_minimal_under_inclusion;
    Alcotest.test_case "mfvs self-loops forced" `Quick test_mfvs_self_loops_forced;
    Alcotest.test_case "mfvs empty on DAG" `Quick test_mfvs_acyclic_empty;
    Alcotest.test_case "mfvs missing candidate" `Quick test_mfvs_no_candidate;
    Alcotest.test_case "mfvs matches the oracle" `Quick test_mfvs_matches_oracle;
  ]
