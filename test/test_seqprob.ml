(* The problem IR itself: shared-AIG compression vs netlist unrolling,
   typed-variable printing, the diagnosis surface, and counterexample
   replay over asymmetric input sets. *)

let st = Random.State.make [| 0x5E9 |]

(* ---- shared AIG never larger than the netlist unrolling ---- *)

let test_aig_smaller_than_netlist () =
  List.iter
    (fun (name, c) ->
      let plan = Feedback.plan_structural c in
      let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
      let exposed s = List.mem (Circuit.signal_name c s) names in
      let bld = Seqprob.builder () in
      let o1, _ = Result.get_ok (Cbf.unroll ~exposed bld c) in
      let o2, _ = Result.get_ok (Cbf.unroll ~exposed bld c) in
      let direct = Result.get_ok (Seqprob.problem bld ~outs1:o1 ~outs2:o2) in
      (* the reference route: materialize the unrolled netlist, then wrap
         it as a problem (same AND-node currency).  The direct route must
         never be larger. *)
      let u, _ = Cbf_oracle.unroll_netlist ~exposed c in
      let via_netlist = Result.get_ok (Seqprob.of_circuits u u) in
      Alcotest.(check bool)
        (Printf.sprintf "%s: direct %d <= via netlist %d" name
           (Seqprob.and_nodes direct)
           (Seqprob.and_nodes via_netlist))
        true
        (Seqprob.and_nodes direct <= Seqprob.and_nodes via_netlist))
    (Workloads.table1_suite_small ())

let test_side_replication_overlap () =
  (* identical sides share everything: each side's cone count equals the
     whole graph's reachable count *)
  let c = Workloads.by_name "minmax10" in
  let plan = Feedback.plan_structural c in
  let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
  let exposed s = List.mem (Circuit.signal_name c s) names in
  let bld = Seqprob.builder () in
  let o1, _ = Result.get_ok (Cbf.unroll ~exposed bld c) in
  let o2, _ = Result.get_ok (Cbf.unroll ~exposed bld c) in
  let p = Result.get_ok (Seqprob.problem bld ~outs1:o1 ~outs2:o2) in
  let s1, s2 = Seqprob.side_replication p in
  Alcotest.(check int) "sides identical" s1 s2;
  Alcotest.(check bool) "outputs interned equal" true (p.Seqprob.outs1 = p.Seqprob.outs2)

(* ---- Var round trips ---- *)

let test_var_roundtrip () =
  let t = Events.create () in
  let e1 =
    Events.push t ~pred:(Events.pred_var t ~source:"en" ~shift:0) Events.empty
  in
  let vars =
    [
      Seqprob.Var.time "x" 0;
      Seqprob.Var.time "x" 7;
      Seqprob.Var.time "weird@name" 3;
      Seqprob.Var.time "a~b" 1;
      Seqprob.Var.at "d" ~shift:0 ~event:Events.empty;
      Seqprob.Var.at "d" ~shift:2 ~event:e1;
      Seqprob.Var.at "q@out" ~shift:1 ~event:e1;
    ]
  in
  List.iter
    (fun v ->
      let s = Seqprob.Var.to_string v in
      let v' = Seqprob.Var.of_string s in
      Alcotest.(check bool)
        (Printf.sprintf "roundtrip %s" s)
        true
        (Seqprob.Var.equal v v'))
    vars;
  (* a sample of the empty event is the CBF time-frame variable *)
  Alcotest.(check bool) "at empty = time" true
    (Seqprob.Var.equal
       (Seqprob.Var.at "x" ~shift:3 ~event:Events.empty)
       (Seqprob.Var.time "x" 3));
  (* a plain name with no index suffix reads as Time 0 *)
  Alcotest.(check bool) "bare name = Time 0" true
    (Seqprob.Var.equal (Seqprob.Var.of_string "plain") (Seqprob.Var.time "plain" 0))

(* ---- every diagnosis constructor is producible and printable ---- *)

let printable d =
  Alcotest.(check bool)
    (Printf.sprintf "printable: %s" (Seqprob.diagnosis_to_string d))
    true
    (String.length (Seqprob.diagnosis_to_string d) > 0)

let test_diagnosis_non_exposed_cycle () =
  (* q = latch(q xor a): a sequential self-loop observable at the output *)
  let c = Circuit.create "dfc" in
  let a = Circuit.add_input c "a" in
  let q = Circuit.declare c ~name:"q" () in
  Circuit.set_latch c q ~data:(Circuit.add_gate c Xor [ q; a ]) ();
  Circuit.mark_output c q;
  Circuit.check c;
  (match Verify.check c c with
  | Error (Seqprob.Non_exposed_cycle _ as d) -> printable d
  | Error d -> Alcotest.failf "wrong diagnosis: %s" (Seqprob.diagnosis_to_string d)
  | Ok _ -> Alcotest.fail "feedback without exposure accepted");
  (* exposing the latch on the cycle makes the same pair checkable *)
  match Result.get_ok (Verify.check ~exposed:[ "q" ] c c) with
  | { Verify.verdict = Verify.Equivalent; _ } -> ()
  | { verdict = Verify.Inequivalent _; _ } -> Alcotest.fail "self-inequivalent once exposed"
  | { verdict = Verify.Undecided r; _ } -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_diagnosis_hidden_enabled_latch () =
  let c = Circuit.create "dhe" in
  let d = Circuit.add_input c "d" in
  let e = Circuit.add_input c "e" in
  Circuit.mark_output c (Circuit.add_latch c ~enable:e ~data:d ());
  Circuit.check c;
  match Flow.run c with
  | Error (Seqprob.Hidden_enabled_latch _ as d) -> printable d
  | Error d -> Alcotest.failf "wrong diagnosis: %s" (Seqprob.diagnosis_to_string d)
  | Ok _ -> Alcotest.fail "enabled latch accepted by the retiming flow"

let test_diagnosis_infeasible_period () =
  let c = Circuit.create "dip" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  (* an AND on every input-to-output path: no retiming reaches period 0 *)
  let g = Circuit.add_gate c And [ a; b ] in
  Circuit.mark_output c (Circuit.add_latch c ~data:g ());
  Circuit.check c;
  match Flow.run ~period:0 c with
  | Error (Seqprob.Infeasible_period { period; _ } as d) ->
      printable d;
      Alcotest.(check int) "requested period echoed" 0 period
  | Error d -> Alcotest.failf "wrong diagnosis: %s" (Seqprob.diagnosis_to_string d)
  | Ok _ -> Alcotest.fail "period 0 accepted"

let test_diagnosis_output_arity_mismatch () =
  let c1 = Gen.acyclic st ~name:"da1" ~inputs:2 ~gates:8 ~latches:1 ~outputs:1 ~enables:false in
  let c2 = Gen.acyclic st ~name:"da2" ~inputs:2 ~gates:8 ~latches:1 ~outputs:2 ~enables:false in
  match Verify.check c1 c2 with
  | Error (Seqprob.Output_arity_mismatch _ as d) -> printable d
  | Error d -> Alcotest.failf "wrong diagnosis: %s" (Seqprob.diagnosis_to_string d)
  | Ok _ -> Alcotest.fail "arity mismatch accepted"

let test_diagnosis_no_such_latch () =
  let c = Gen.acyclic st ~name:"dnl" ~inputs:2 ~gates:8 ~latches:1 ~outputs:1 ~enables:false in
  match Verify.check ~exposed:[ "ghost" ] c c with
  | Error (Seqprob.No_such_latch { name; _ } as d) ->
      printable d;
      Alcotest.(check string) "offending name" "ghost" name
  | Error d -> Alcotest.failf "wrong diagnosis: %s" (Seqprob.diagnosis_to_string d)
  | Ok _ -> Alcotest.fail "ghost exposure accepted"

(* ---- counterexample replay with asymmetric input sets ---- *)

let test_asymmetric_cex_replay () =
  (* c1: out = latch(a).  c2: out = latch(a xor b) — has an extra input.
     The united universe contains b@1; the witness must still replay on
     both circuits, each over its own input list. *)
  let c1 = Circuit.create "asym1" in
  let a1 = Circuit.add_input c1 "a" in
  Circuit.mark_output c1 (Circuit.add_latch c1 ~data:a1 ());
  Circuit.check c1;
  let c2 = Circuit.create "asym2" in
  let a2 = Circuit.add_input c2 "a" in
  let b2 = Circuit.add_input c2 "b" in
  Circuit.mark_output c2 (Circuit.add_latch c2 ~data:(Circuit.add_gate c2 Xor [ a2; b2 ]) ());
  Circuit.check c2;
  match Result.get_ok (Verify.check c1 c2) with
  | { Verify.verdict = Verify.Inequivalent (Some cex); _ } ->
      Alcotest.(check bool) "replays on asymmetric originals" true
        (Verify.confirm_cex c1 c2 cex);
      (* per-circuit sequences have per-circuit arities *)
      List.iter
        (fun v -> Alcotest.(check int) "c1 vector arity" 1 (Array.length v))
        (Verify.cex_to_sequence c1 cex);
      List.iter
        (fun v -> Alcotest.(check int) "c2 vector arity" 2 (Array.length v))
        (Verify.cex_to_sequence c2 cex)
  | { verdict = Verify.Inequivalent None; _ } ->
      Alcotest.fail "CBF path must produce a witness"
  | { verdict = Verify.Equivalent; _ } -> Alcotest.fail "asymmetric bug missed"
  | { verdict = Verify.Undecided r; _ } -> Alcotest.failf "unbudgeted check undecided: %s" r

let suite =
  [
    Alcotest.test_case "shared AIG <= netlist unroll" `Quick test_aig_smaller_than_netlist;
    Alcotest.test_case "identical sides fully shared" `Quick test_side_replication_overlap;
    Alcotest.test_case "Var to_string/of_string round trip" `Quick test_var_roundtrip;
    Alcotest.test_case "diagnosis: non-exposed cycle" `Quick test_diagnosis_non_exposed_cycle;
    Alcotest.test_case "diagnosis: hidden enabled latch" `Quick test_diagnosis_hidden_enabled_latch;
    Alcotest.test_case "diagnosis: infeasible period" `Quick test_diagnosis_infeasible_period;
    Alcotest.test_case "diagnosis: output arity mismatch" `Quick test_diagnosis_output_arity_mismatch;
    Alcotest.test_case "diagnosis: no such latch" `Quick test_diagnosis_no_such_latch;
    Alcotest.test_case "asymmetric-input cex replay" `Quick test_asymmetric_cex_replay;
  ]
