(* Cross-subsystem integration: format round trips through the whole
   optimize-and-verify pipeline, multi-step optimization chains, engine
   cross-checks, and end-to-end negative tests. *)

let st = Random.State.make [| 0x1A7 |]

let vcheck c1 c2 =
  match Verify.check c1 c2 with
  | Ok o -> (o.Verify.verdict, o.Verify.stats)
  | Error d ->
      Alcotest.failf "unexpected diagnosis: %s" (Seqprob.diagnosis_to_string d)

let test_blif_through_flow () =
  (* export a suite circuit to BLIF, reimport, run the full flow *)
  let c = Workloads.by_name "s400" in
  let { Blif.circuit = c2; _ } = Blif.parse (Blif.to_string c) in
  let row =
    match Flow.run c2 with
    | Ok row -> row
    | Error d ->
        Alcotest.failf "unexpected diagnosis: %s" (Seqprob.diagnosis_to_string d)
  in
  match row.Flow.verify_verdict with
  | Verify.Equivalent -> ()
  | Verify.Inequivalent _ -> Alcotest.fail "flow failed on BLIF-round-tripped circuit"
  | Verify.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_long_optimization_chain () =
  (* five alternations of synthesis and retiming — the paper's "arbitrary
     sequences of retiming and synthesis operations" *)
  let c =
    Gen.acyclic st ~name:"chain" ~inputs:4 ~gates:60 ~latches:6 ~outputs:2 ~enables:false
  in
  let o = ref c in
  for i = 1 to 5 do
    o := Synth_script.delay_script !o;
    let rt, _ =
      if i mod 2 = 0 then Retime.min_area !o else Retime.min_period !o
    in
    o := rt
  done;
  match vcheck c !o with
  | Verify.Equivalent, _ -> ()
  | Verify.Inequivalent _, _ -> Alcotest.fail "five-round chain not verified"
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_redundancy_then_retime_then_verify () =
  let c =
    Gen.acyclic st ~name:"rrv" ~inputs:3 ~gates:50 ~latches:4 ~outputs:2 ~enables:false
  in
  let o1, _ = Redundancy.run ~max_rounds:5 c in
  let o2, _ = Retime.min_period (Synth_script.delay_script o1) in
  match vcheck c o2 with
  | Verify.Equivalent, _ -> ()
  | Verify.Inequivalent _, _ -> Alcotest.fail "redundancy+retime chain not verified"
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_engines_on_flow_miters () =
  (* all three CEC engines agree on real flow miters *)
  let c = Workloads.by_name "s641" in
  let b, copt = Result.get_ok (Flow.circuits c) in
  let plan = Feedback.plan_structural c in
  let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
  let ex cc s = List.mem (Circuit.signal_name cc s) names in
  let bld = Seqprob.builder () in
  let o1, _ = Result.get_ok (Cbf.unroll ~exposed:(ex b) bld b) in
  let o2, _ = Result.get_ok (Cbf.unroll ~exposed:(ex copt) bld copt) in
  let p = Result.get_ok (Seqprob.problem bld ~outs1:o1 ~outs2:o2) in
  List.iter
    (fun engine ->
      match fst (Cec.check_problem_with_stats ~engine p) with
      | Cec.Equivalent -> ()
      | Cec.Inequivalent _ -> Alcotest.fail "engine disagrees on flow miter"
      | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r)
    [ Cec.Bdd_engine; Cec.Sat_engine; Cec.Sweep_engine ]

let test_word_eval_matches_scalar () =
  for i = 1 to 20 do
    let c =
      Gen.comb st ~name:(Printf.sprintf "w%d" i) ~inputs:4
        ~gates:(10 + Random.State.int st 30)
        ~outputs:2
    in
    let words = Hashtbl.create 8 in
    List.iter
      (fun s -> Hashtbl.replace words s (Random.State.int64 st Int64.max_int))
      (Circuit.inputs c);
    let wvals = Eval.comb_eval_words c ~source:(Hashtbl.find words) in
    for bit = 0 to 63 do
      let source s =
        Int64.logand (Int64.shift_right_logical (Hashtbl.find words s) bit) 1L = 1L
      in
      let svals = Eval.comb_eval c ~source in
      List.iter
        (fun o ->
          let wbit = Int64.logand (Int64.shift_right_logical wvals.(o) bit) 1L = 1L in
          if wbit <> svals.(o) then Alcotest.fail "word eval mismatch")
        (Circuit.outputs c)
    done
  done

let test_corrupted_netlist_detected_everywhere () =
  (* a single-gate corruption introduced at any pipeline stage is caught *)
  let c =
    Gen.acyclic st ~name:"corr" ~inputs:3 ~gates:40 ~latches:4 ~outputs:2 ~enables:false
  in
  let stages =
    [
      ("after synth", fun c -> Synth_script.delay_script c);
      ("after retime", fun c -> fst (Retime.min_period c));
      ("after both", fun c -> fst (Retime.min_period (Synth_script.delay_script c)));
    ]
  in
  List.iter
    (fun (tag, f) ->
      let o = f c in
      let bug = Gen.negate_one_output o in
      match vcheck c bug with
      | Verify.Inequivalent _, _ -> ()
      | Verify.Equivalent, _ -> Alcotest.fail ("bug missed " ^ tag)
      | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r)
    stages

let test_flow_area_metric_counts_latches () =
  let c = Circuit.create "fm" in
  let a = Circuit.add_input c "a" in
  let q = Circuit.add_latch c ~data:a () in
  Circuit.mark_output c (Circuit.add_gate c Not [ q ]);
  Circuit.check c;
  let m = Flow.metrics_of c in
  Alcotest.(check int) "1 gate + 4/latch" 5 m.Flow.area;
  Alcotest.(check int) "latches" 1 m.Flow.latches

let test_cli_formats_by_extension () =
  (* the two on-disk formats both reload to the same behaviour *)
  let c = Workloads.by_name "s1196" in
  let text_native = Netlist_io.to_string c in
  let text_blif = Blif.to_string c in
  let c1 = Netlist_io.parse text_native in
  let { Blif.circuit = c2; _ } = Blif.parse text_blif in
  match vcheck c1 c2 with
  | Verify.Equivalent, _ -> ()
  | Verify.Inequivalent _, _ -> Alcotest.fail "formats disagree"
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r

let suite =
  [
    Alcotest.test_case "BLIF through the flow" `Quick test_blif_through_flow;
    Alcotest.test_case "five-round optimization chain" `Quick test_long_optimization_chain;
    Alcotest.test_case "redundancy+retime+verify" `Quick test_redundancy_then_retime_then_verify;
    Alcotest.test_case "engines agree on flow miters" `Quick test_engines_on_flow_miters;
    Alcotest.test_case "word eval matches scalar" `Quick test_word_eval_matches_scalar;
    Alcotest.test_case "corruption detected at all stages" `Quick test_corrupted_netlist_detected_everywhere;
    Alcotest.test_case "flow area metric" `Quick test_flow_area_metric_counts_latches;
    Alcotest.test_case "format cross-check" `Quick test_cli_formats_by_extension;
  ]
