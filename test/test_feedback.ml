(* Section 6: unateness, the Lemma 6.1 decomposition, Lemma 6.2 canonical
   disjoint-support choice, exposure planning and plan application. *)

let st = Random.State.make [| 0xFB |]

(* conditional-update register: q' = c ? d : q *)
let cond_update_circuit () =
  let c = Circuit.create "cond" in
  let cc = Circuit.add_input c "c" in
  let d = Circuit.add_input c "d" in
  let q = Circuit.declare c ~name:"q" () in
  let next = Circuit.add_gate c Mux [ cc; d; q ] in
  Circuit.set_latch c q ~data:next ();
  Circuit.mark_output c q;
  Circuit.check c;
  c

(* toggle register: q' = c ? ~q : q *)
let toggle_circuit () =
  let c = Circuit.create "tog" in
  let cc = Circuit.add_input c "c" in
  let q = Circuit.declare c ~name:"q" () in
  let nq = Circuit.add_gate c Not [ q ] in
  let next = Circuit.add_gate c Mux [ cc; nq; q ] in
  Circuit.set_latch c q ~data:next ();
  Circuit.mark_output c q;
  Circuit.check c;
  c

let test_analyze_classifies () =
  let c = cond_update_circuit () in
  (match Feedback.analyze c with
  | [ a ] ->
      Alcotest.(check bool) "self feedback" true a.Feedback.self_feedback;
      Alcotest.(check bool) "unate" true a.Feedback.positive_unate
  | _ -> Alcotest.fail "one latch expected");
  let t = toggle_circuit () in
  match Feedback.analyze t with
  | [ a ] ->
      Alcotest.(check bool) "self feedback" true a.Feedback.self_feedback;
      Alcotest.(check bool) "not unate" false a.Feedback.positive_unate
  | _ -> Alcotest.fail "one latch expected"

let test_decompose_identity () =
  (* Lemma 6.1: for random positive-unate F, F = e·d + ē·x *)
  let man = Bdd.man () in
  let x = Bdd.var man 0 in
  for _ = 1 to 60 do
    (* build a positive-unate-in-x function: g + x·h with g,h over others *)
    let rand_over vars =
      List.fold_left
        (fun acc v ->
          let lit = if Random.State.bool st then v else Bdd.not_ man v in
          if Random.State.bool st then Bdd.and_ man acc lit else Bdd.or_ man acc lit)
        (if Random.State.bool st then Bdd.one man else Bdd.zero man)
        vars
    in
    let others = List.init 3 (fun i -> Bdd.var man (i + 1)) in
    let g = rand_over others and h = rand_over others in
    let f = Bdd.or_ man g (Bdd.and_ man x h) in
    Alcotest.(check bool) "constructed unate" true (Bdd.is_positive_unate man f ~var:0);
    List.iter
      (fun dchoice ->
        match Feedback.decompose man f ~x:0 ~dchoice with
        | None -> Alcotest.fail "unate function not decomposed"
        | Some (e, d) ->
            let recomposed =
              Bdd.or_ man (Bdd.and_ man e d) (Bdd.and_ man (Bdd.not_ man e) x)
            in
            Alcotest.(check bool) "F = e·d + ē·x" true (Bdd.equal f recomposed);
            Alcotest.(check bool) "e independent of x" false (Bdd.depends_on man e 0);
            Alcotest.(check bool) "d independent of x" false (Bdd.depends_on man d 0);
            (* interval: F0 <= d <= F1 *)
            let f0 = Bdd.cofactor man f ~var:0 false in
            let f1 = Bdd.cofactor man f ~var:0 true in
            Alcotest.(check bool) "d >= F0" true (Bdd.leq man f0 d);
            Alcotest.(check bool) "d <= F1" true (Bdd.leq man d f1))
      [ Feedback.D_low; Feedback.D_disjoint ]
  done

let test_decompose_e_unique () =
  (* the enable is forced: ē = F1·¬F0 regardless of dchoice *)
  let man = Bdd.man () in
  let x = Bdd.var man 0 and a = Bdd.var man 1 and b = Bdd.var man 2 in
  let f = Bdd.or_ man (Bdd.and_ man a b) (Bdd.and_ man x a) in
  match
    ( Feedback.decompose man f ~x:0 ~dchoice:Feedback.D_low,
      Feedback.decompose man f ~x:0 ~dchoice:Feedback.D_disjoint )
  with
  | Some (e1, _), Some (e2, _) ->
      Alcotest.(check bool) "e unique" true (Bdd.equal e1 e2);
      (* ē = F1·¬F0 *)
      let f0 = Bdd.cofactor man f ~var:0 false in
      let f1 = Bdd.cofactor man f ~var:0 true in
      let expected_ne = Bdd.and_ man f1 (Bdd.not_ man f0) in
      Alcotest.(check bool) "ē formula" true (Bdd.equal (Bdd.not_ man e1) expected_ne)
  | _ -> Alcotest.fail "decomposition failed"

let test_decompose_rejects_non_unate () =
  let man = Bdd.man () in
  let x = Bdd.var man 0 and a = Bdd.var man 1 in
  let f = Bdd.xor_ man x a in
  Alcotest.(check bool) "toggle rejected" true
    (Feedback.decompose man f ~x:0 ~dchoice:Feedback.D_low = None)

let test_disjoint_support_choice () =
  (* conditional update F = c·d + ~c·x: e = c, D_disjoint should find d
     with support {d}, disjoint from e's support {c} *)
  let man = Bdd.man () in
  let x = Bdd.var man 0 and c = Bdd.var man 1 and d = Bdd.var man 2 in
  let f = Bdd.or_ man (Bdd.and_ man c d) (Bdd.and_ man (Bdd.not_ man c) x) in
  match Feedback.decompose man f ~x:0 ~dchoice:Feedback.D_disjoint with
  | None -> Alcotest.fail "not decomposed"
  | Some (e, dd) ->
      Alcotest.(check (list int)) "e = c" [ 1 ] (Bdd.support man e);
      Alcotest.(check (list int)) "d disjoint from e" [ 2 ] (Bdd.support man dd)

let test_plan_structural_exact () =
  (* circuits built from k self-loop registers expose exactly k *)
  for k = 1 to 5 do
    let c = Circuit.create (Printf.sprintf "pk%d" k) in
    let a = Circuit.add_input c "a" in
    for i = 1 to k do
      let q = Circuit.declare c ~name:(Printf.sprintf "q%d" i) () in
      let next = Circuit.add_gate c Mux [ a; Circuit.add_gate c Not [ q ]; q ] in
      Circuit.set_latch c q ~data:next ();
      Circuit.mark_output c q
    done;
    (* plus an acyclic latch *)
    let p = Circuit.add_latch c ~data:a () in
    Circuit.mark_output c p;
    Circuit.check c;
    let plan = Feedback.plan_structural c in
    Alcotest.(check int) "exactly the self-loops" k (List.length plan.Feedback.exposed)
  done

let test_plan_functional_converts () =
  (* conditional registers convert, toggles stay exposed *)
  let c = Circuit.create "mixfb" in
  let cc = Circuit.add_input c "c" in
  let d = Circuit.add_input c "d" in
  let qc = Circuit.declare c ~name:"qc" () in
  Circuit.set_latch c qc ~data:(Circuit.add_gate c Mux [ cc; d; qc ]) ();
  let qt = Circuit.declare c ~name:"qt" () in
  Circuit.set_latch c qt
    ~data:(Circuit.add_gate c Mux [ cc; Circuit.add_gate c Not [ qt ]; qt ])
    ();
  Circuit.mark_output c qc;
  Circuit.mark_output c qt;
  Circuit.check c;
  let plan = Feedback.plan_functional c in
  Alcotest.(check int) "one exposed" 1 (List.length plan.Feedback.exposed);
  Alcotest.(check int) "one converted" 1 (List.length plan.Feedback.converted);
  Alcotest.(check string) "toggle exposed" "qt"
    (Circuit.signal_name c (List.hd plan.Feedback.exposed));
  Alcotest.(check string) "conditional converted" "qc"
    (Circuit.signal_name c (List.hd plan.Feedback.converted))

let test_apply_plan_preserves () =
  (* converting a conditional register to a load-enabled latch preserves the
     sequential behaviour state-for-state *)
  for _ = 1 to 20 do
    let c = Circuit.create "ap" in
    let nin = 3 in
    let ins = List.init nin (fun i -> Circuit.add_input c (Printf.sprintf "i%d" i)) in
    let q = Circuit.declare c ~name:"q" () in
    let pool = q :: ins in
    let pick () = List.nth pool (Random.State.int st (List.length pool)) in
    let cond = Circuit.add_gate c And [ pick (); pick () ] in
    let data = Circuit.add_gate c Or [ pick (); pick () ] in
    (* ensure cond/data do not read q (the enable/data must be independent
       of the latch: condition 1 of Section 6) *)
    let cond = Circuit.add_gate c And [ cond; Circuit.add_gate c Or ins ] in
    ignore cond;
    let cond2 = Circuit.add_gate c And [ List.nth ins 0; List.nth ins 1 ] in
    let data2 = Circuit.add_gate c Xor [ List.nth ins 1; List.nth ins 2 ] in
    Circuit.set_latch c q ~data:(Circuit.add_gate c Mux [ cond2; data2; q ]) ();
    Circuit.mark_output c q;
    ignore data;
    Circuit.check c;
    let plan = Feedback.plan_functional c in
    Alcotest.(check int) "converted" 1 (List.length plan.Feedback.converted);
    let o = Feedback.apply_plan c plan in
    Circuit.check o;
    (* the converted latch is load-enabled now *)
    (match Circuit.find_signal o "q" with
    | Some s -> (
        match Circuit.driver o s with
        | Latch { enable = Some _; _ } -> ()
        | _ -> Alcotest.fail "q not converted to enabled latch")
    | None -> Alcotest.fail "q vanished");
    (* state-for-state behaviour *)
    let seq = Gen.random_inputs st c ~cycles:20 in
    for init = 0 to 1 do
      let t1 = Sim.run c ~init:[| init = 1 |] ~inputs:seq in
      let t2 = Sim.run o ~init:[| init = 1 |] ~inputs:seq in
      if t1 <> t2 then Alcotest.fail "conversion changed behaviour"
    done
  done

let test_latch_graph_edges () =
  let c = Circuit.create "lg" in
  let a = Circuit.add_input c "a" in
  let q1 = Circuit.add_latch c ~data:a () in
  let g = Circuit.add_gate c Not [ q1 ] in
  let q2 = Circuit.add_latch c ~data:g () in
  Circuit.mark_output c q2;
  Circuit.check c;
  let g, latches = Feedback.latch_graph c in
  Alcotest.(check int) "two nodes" 2 (Vgraph.Digraph.node_count g);
  Alcotest.(check int) "one edge" 1 (Vgraph.Digraph.edge_count g);
  let e = Vgraph.Digraph.edge g 0 in
  Alcotest.(check bool) "q1 -> q2" true
    (latches.(e.Vgraph.Digraph.src) = q1 && latches.(e.Vgraph.Digraph.dst) = q2)

let test_enable_cone_counts () =
  (* the latch graph must include dependencies through enables *)
  let c = Circuit.create "lge" in
  let a = Circuit.add_input c "a" in
  let q1 = Circuit.add_latch c ~data:a () in
  let q2 = Circuit.add_latch c ~enable:q1 ~data:a () in
  Circuit.mark_output c q2;
  Circuit.check c;
  let g, _ = Feedback.latch_graph c in
  Alcotest.(check int) "enable edge present" 1 (Vgraph.Digraph.edge_count g)

let test_node_budget () =
  (* a wide xor chain blows the node budget and is conservatively rejected *)
  let c = Circuit.create "wide" in
  let ins = List.init 40 (fun i -> Circuit.add_input c (Printf.sprintf "i%d" i)) in
  let q = Circuit.declare c ~name:"q" () in
  (* deep mixing feeding the register *)
  let acc = List.fold_left (fun acc x -> Circuit.add_gate c Xor [ acc; x ]) q ins in
  Circuit.set_latch c q ~data:acc ();
  Circuit.mark_output c q;
  Circuit.check c;
  try
    ignore (Feedback.next_state_function ~node_limit:10 c q);
    Alcotest.fail "budget not enforced"
  with Feedback.Node_budget_exceeded -> ()

(* latch graphs whose redundancy pass was the costliest step of a plan;
   every latch the three expose has a self-loop *)
let test_mfvs_oracle_on_latch_graphs () =
  List.iter
    (fun name ->
      let g, _ = Feedback.latch_graph (Workloads.by_name name) in
      Alcotest.(check (list int)) name
        (Mfvs_oracle.solve g ~candidates:(fun _ -> true))
        (Vgraph.Mfvs.solve g ~candidates:(fun _ -> true)))
    [ "s38417"; "fifo64x16s"; "ex4" ]

let suite =
  [
    Alcotest.test_case "analyze classifies latches" `Quick test_analyze_classifies;
    Alcotest.test_case "Lemma 6.1 identity" `Quick test_decompose_identity;
    Alcotest.test_case "enable uniqueness" `Quick test_decompose_e_unique;
    Alcotest.test_case "non-unate rejected" `Quick test_decompose_rejects_non_unate;
    Alcotest.test_case "Lemma 6.2 disjoint support" `Quick test_disjoint_support_choice;
    Alcotest.test_case "structural plan exact" `Quick test_plan_structural_exact;
    Alcotest.test_case "functional plan converts" `Quick test_plan_functional_converts;
    Alcotest.test_case "apply_plan preserves behaviour" `Quick test_apply_plan_preserves;
    Alcotest.test_case "latch graph edges" `Quick test_latch_graph_edges;
    Alcotest.test_case "latch graph through enables" `Quick test_enable_cone_counts;
    Alcotest.test_case "BDD node budget" `Quick test_node_budget;
    Alcotest.test_case "MFVS = oracle on latch graphs" `Quick test_mfvs_oracle_on_latch_graphs;
  ]
