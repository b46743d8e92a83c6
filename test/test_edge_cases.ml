(* Edge cases and failure injection across the stack. *)

let st = Random.State.make [| 0xED6E |]

(* verdict of the combinational check of two circuits *)
let cec c1 c2 = fst (Cec.check_problem_with_stats (Cec.of_circuits c1 c2))

(* ---- exposed load-enabled latches ---- *)

let test_cbf_exposed_enabled_latch () =
  (* an exposed latch may be load-enabled: its data AND enable functions
     become outputs, and its output is a pseudo-input *)
  let c = Circuit.create "xe" in
  let a = Circuit.add_input c "a" in
  let e = Circuit.add_input c "e" in
  let q = Circuit.declare c ~name:"q" () in
  Circuit.set_latch c q ~enable:e ~data:(Circuit.add_gate c Xor [ q; a ]) ();
  Circuit.mark_output c q;
  Circuit.check c;
  let exposed s = Circuit.signal_name c s = "q" in
  let u, _ = Cbf_oracle.unroll_netlist ~exposed c in
  (* outputs: PO q, data fn, enable fn *)
  Alcotest.(check int) "three outputs" 3 (List.length (Circuit.outputs u));
  Alcotest.(check int) "no latches" 0 (Circuit.latch_count u)

let test_verify_exposed_enabled () =
  (* verifying two variants of an exposed enabled latch: equivalent when
     both data and enable match, inequivalent when the enable differs *)
  let mk en_fn =
    let c = Circuit.create "ve" in
    let a = Circuit.add_input c "a" in
    let e = Circuit.add_input c "e" in
    let q = Circuit.declare c ~name:"q" () in
    let enable = if en_fn then e else Circuit.add_gate c Not [ e ] in
    Circuit.set_latch c q ~enable ~data:(Circuit.add_gate c And [ q; a ]) ();
    Circuit.mark_output c q;
    Circuit.check c;
    c
  in
  let verdict a b =
    (Result.get_ok (Verify.check ~exposed:[ "q" ] a b)).Verify.verdict
  in
  (match verdict (mk true) (mk true) with
  | Verify.Equivalent -> ()
  | Verify.Inequivalent _ -> Alcotest.fail "same enabled latch rejected"
  | Verify.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r);
  match verdict (mk true) (mk false) with
  | Verify.Inequivalent _ -> ()
  | Verify.Equivalent -> Alcotest.fail "enable difference missed"
  | Verify.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

(* ---- sweep mux simplifications ---- *)

let test_sweep_mux_rules () =
  let check_case build expected_area =
    let c = Circuit.create "mx" in
    let a = Circuit.add_input c "a" in
    let b = Circuit.add_input c "b" in
    let s = Circuit.add_input c "s" in
    Circuit.mark_output c (build c a b s);
    Circuit.check c;
    let o = Sweep_pass.run c in
    Alcotest.(check bool)
      (Printf.sprintf "area <= %d" expected_area)
      true
      (Circuit.area o <= expected_area);
    (* behaviour preserved *)
    for m = 0 to 7 do
      let tbl = Hashtbl.create 4 in
      List.iteri (fun i x -> Hashtbl.replace tbl x (m land (1 lsl i) <> 0)) (Circuit.inputs c);
      let v1 = Eval.comb_eval c ~source:(Hashtbl.find tbl) in
      let tbl2 = Hashtbl.create 4 in
      List.iteri (fun i x -> Hashtbl.replace tbl2 x (m land (1 lsl i) <> 0)) (Circuit.inputs o);
      let v2 = Eval.comb_eval o ~source:(Hashtbl.find tbl2) in
      let o1 = List.map (fun x -> v1.(x)) (Circuit.outputs c) in
      let o2 = List.map (fun x -> v2.(x)) (Circuit.outputs o) in
      if o1 <> o2 then Alcotest.fail "mux rule broke semantics"
    done
  in
  (* mux(s, a, a) = a *)
  check_case (fun c a _ s -> Circuit.add_gate c Mux [ s; a; a ]) 0;
  (* mux(1, a, b) = a *)
  check_case (fun c a b _ -> Circuit.add_gate c Mux [ Circuit.const_true c; a; b ]) 0;
  (* mux(s, 1, 0) = s *)
  check_case
    (fun c _ _ s -> Circuit.add_gate c Mux [ s; Circuit.const_true c; Circuit.const_false c ])
    0;
  (* mux(s, 0, 1) = ~s *)
  check_case
    (fun c _ _ s -> Circuit.add_gate c Mux [ s; Circuit.const_false c; Circuit.const_true c ])
    1;
  (* mux(s, a, 0) = s & a *)
  check_case (fun c a _ s -> Circuit.add_gate c Mux [ s; a; Circuit.const_false c ]) 1

(* ---- fanout trees ---- *)

let test_fanout_wide () =
  (* one signal driving 40 sinks, limited to 3 *)
  let c = Circuit.create "wide" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let src = Circuit.add_gate c And [ a; b ] in
  for _ = 1 to 40 do
    Circuit.mark_output c (Circuit.add_gate c Not [ src ])
  done;
  Circuit.check c;
  let o = Fanout_pass.run ~max_fanout:3 c in
  Alcotest.(check bool) "limited" true (Fanout_pass.max_fanout o <= 3);
  (* all 40 outputs still compute ~(a&b) *)
  let tbl = Hashtbl.create 4 in
  List.iter (fun s -> Hashtbl.replace tbl s true) (Circuit.inputs o);
  let v = Eval.comb_eval o ~source:(Hashtbl.find tbl) in
  List.iter
    (fun out -> Alcotest.(check bool) "output value" false v.(out))
    (Circuit.outputs o)

(* ---- BDD cache stress ---- *)

let test_bdd_many_vars () =
  (* a 40-variable conjunction chain: linear BDD, exercises table growth *)
  let man = Bdd.man () in
  let f = ref (Bdd.one man) in
  for i = 0 to 39 do
    f := Bdd.and_ man !f (Bdd.var man i)
  done;
  Alcotest.(check int) "linear size" 42 (Bdd.size man !f);
  Alcotest.(check int) "support" 40 (List.length (Bdd.support man !f));
  (* quantify half away *)
  let q = Bdd.exists man (List.init 20 (fun i -> 2 * i)) !f in
  Alcotest.(check int) "remaining support" 20 (List.length (Bdd.support man q))

let test_bdd_sat_count_large () =
  let man = Bdd.man () in
  let x0 = Bdd.var man 0 in
  Alcotest.(check bool) "2^39" true
    (abs_float (Bdd.sat_count man x0 ~nvars:40 -. ldexp 1.0 39) < 1.0)

(* ---- retiming corner cases ---- *)

let test_retime_no_latches () =
  (* a latch-free circuit must come back latch-free, with the same period
     (dangling logic is pruned, not pipelined) *)
  let c = Gen.comb st ~name:"nolatch" ~inputs:3 ~gates:15 ~outputs:2 in
  let rt, rep = Retime.min_period c in
  Alcotest.(check int) "still none" 0 (Circuit.latch_count rt);
  Alcotest.(check int) "period unchanged" rep.Retime.period_before
    rep.Retime.period_after;
  match cec c rt with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.fail "latch-free retime changed function"
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_retime_illegal_labels () =
  let c = Circuit.create "il" in
  let a = Circuit.add_input c "a" in
  let g1 = Circuit.add_gate c Not [ a ] in
  let q = Circuit.add_latch c ~data:g1 () in
  let g2 = Circuit.add_gate c Not [ q ] in
  Circuit.mark_output c g2;
  Circuit.check c;
  let g = Rgraph.build c in
  let n = Vgraph.Digraph.node_count g.Rgraph.graph in
  let bad = Array.make n 0 in
  (* push a register past the environment: r of the first gate = -1 moves
     the PI-side weight negative *)
  bad.(2) <- -5;
  Alcotest.(check bool) "illegal detected" false (Rgraph.is_legal g ~r:bad);
  try
    ignore (Rgraph.apply g ~r:bad);
    Alcotest.fail "applied illegal retiming"
  with Invalid_argument _ -> ()

let test_verify_output_mismatch () =
  let c1 = Gen.acyclic st ~name:"om1" ~inputs:2 ~gates:10 ~latches:2 ~outputs:1 ~enables:false in
  let c2 = Gen.acyclic st ~name:"om2" ~inputs:2 ~gates:10 ~latches:2 ~outputs:2 ~enables:false in
  match Verify.check c1 c2 with
  | Error (Seqprob.Output_arity_mismatch { left; right }) ->
      Alcotest.(check bool) "arity counts differ" true (left <> right)
  | Error d ->
      Alcotest.failf "wrong diagnosis: %s" (Seqprob.diagnosis_to_string d)
  | Ok _ -> Alcotest.fail "output count mismatch accepted"

(* ---- empty / degenerate circuits ---- *)

let test_empty_circuit () =
  let c = Circuit.create "empty" in
  Circuit.check c;
  Alcotest.(check int) "area" 0 (Circuit.area c);
  Alcotest.(check int) "delay" 0 (Circuit.delay c);
  let u, info = Cbf_oracle.unroll_netlist c in
  Alcotest.(check int) "no outputs" 0 (List.length (Circuit.outputs u));
  Alcotest.(check int) "depth" 0 info.Cbf.depth

let test_constant_only_circuit () =
  let c = Circuit.create "konst" in
  ignore (Circuit.add_input c "unused");
  Circuit.mark_output c (Circuit.const_true c);
  Circuit.check c;
  let rt, _ = Retime.min_period c in
  match (Result.get_ok (Verify.check c rt)).Verify.verdict with
  | Verify.Equivalent -> ()
  | Verify.Inequivalent _ -> Alcotest.fail "constant circuit broken"
  | Verify.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

let suite =
  [
    Alcotest.test_case "CBF with exposed enabled latch" `Quick test_cbf_exposed_enabled_latch;
    Alcotest.test_case "verify exposed enabled latch" `Quick test_verify_exposed_enabled;
    Alcotest.test_case "sweep mux rules" `Quick test_sweep_mux_rules;
    Alcotest.test_case "fanout tree, wide" `Quick test_fanout_wide;
    Alcotest.test_case "bdd 40-variable chain" `Quick test_bdd_many_vars;
    Alcotest.test_case "bdd sat_count large" `Quick test_bdd_sat_count_large;
    Alcotest.test_case "retime latch-free circuit" `Quick test_retime_no_latches;
    Alcotest.test_case "illegal retiming rejected" `Quick test_retime_illegal_labels;
    Alcotest.test_case "verify output mismatch" `Quick test_verify_output_mismatch;
    Alcotest.test_case "empty circuit" `Quick test_empty_circuit;
    Alcotest.test_case "constant circuit" `Quick test_constant_only_circuit;
  ]
