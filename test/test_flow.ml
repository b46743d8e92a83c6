(* The Fig. 19 experimental flow and the Table 1/2 claims in miniature. *)

let st = Random.State.make [| 0xF10 |]

let flow_ok ?jobs c =
  match Flow.run ?jobs c with
  | Ok row -> row
  | Error d ->
      Alcotest.failf "unexpected diagnosis: %s" (Seqprob.diagnosis_to_string d)

let test_flow_verifies () =
  for i = 1 to 6 do
    let c =
      Gen.feedback st
        ~name:(Printf.sprintf "fl%d" i)
        ~inputs:3 ~gates:(30 + Random.State.int st 40) ~latches:(3 + Random.State.int st 4)
        ~outputs:2
    in
    let row = flow_ok c in
    (match row.Flow.verify_verdict with
    | Verify.Equivalent -> ()
    | Verify.Inequivalent _ -> Alcotest.fail "B vs C verification failed"
    | Verify.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r);
    Alcotest.(check bool) "exposure percentage sane" true
      (row.Flow.exposed_percent >= 0. && row.Flow.exposed_percent <= 100.)
  done

let test_flow_shape_on_pipeline () =
  (* pipelines: C at least as fast as D, E no more latches than C at D's
     delay *)
  let c = Workloads.pipeline ~name:"fshape" ~width:8 ~stages:6 ~imbalance:4 ~seed:5 in
  let row = flow_ok c in
  Alcotest.(check int) "no exposure on acyclic" 0 row.Flow.exposed;
  Alcotest.(check bool) "B vs C verified" true
    (row.Flow.verify_verdict = Verify.Equivalent);
  Alcotest.(check bool) "C delay <= D delay" true
    (row.Flow.c.Flow.delay <= row.Flow.d.Flow.delay);
  Alcotest.(check bool) "E delay <= D delay" true
    (row.Flow.e.Flow.delay <= row.Flow.d.Flow.delay);
  Alcotest.(check bool) "E latches <= C latches" true
    (row.Flow.e.Flow.latches <= row.Flow.c.Flow.latches)

let test_flow_minmax_shape () =
  let row = flow_ok (Workloads.minmax ~width:8) in
  (* two thirds of the latches are feedback min/max registers *)
  Alcotest.(check int) "exposed = 2w" 16 row.Flow.exposed;
  Alcotest.(check bool) "~66%" true
    (row.Flow.exposed_percent > 60. && row.Flow.exposed_percent < 70.);
  Alcotest.(check bool) "retiming wins on delay" true
    (row.Flow.c.Flow.delay < row.Flow.d.Flow.delay);
  (* F (no exposure constraints) is at least as good as C *)
  Alcotest.(check bool) "exposure penalty" true
    (row.Flow.f.Flow.delay <= row.Flow.c.Flow.delay);
  match row.Flow.verify_verdict with
  | Verify.Equivalent -> ()
  | Verify.Inequivalent _ -> Alcotest.fail "minmax flow verification failed"
  | Verify.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_flow_b_keeps_outputs () =
  let c =
    Gen.feedback st ~name:"fb_out" ~inputs:3 ~gates:30 ~latches:4 ~outputs:2
  in
  let b, copt = Result.get_ok (Flow.circuits c) in
  (* B has the original outputs plus one per exposed latch *)
  Alcotest.(check bool) "B outputs grew" true
    (List.length (Circuit.outputs b) >= List.length (Circuit.outputs c));
  Circuit.check copt

let test_exposure_report () =
  let c =
    Workloads.industrial ~name:"tiny" ~latches:60 ~exposed:20 ~unate_fraction:0.5
      ~enable_fraction:0.3 ~seed:9
  in
  let total, structural, functional = Flow.exposure_report c in
  Alcotest.(check int) "total" 60 total;
  Alcotest.(check int) "structural = generated self-loops" 20 structural;
  Alcotest.(check bool) "functional <= structural" true (functional <= structural);
  (* half the self-loops are conditional updates: functional about halves *)
  Alcotest.(check bool) "functional close to half" true (functional <= 14)

let test_flow_parallel_verify_agrees () =
  (* the whole reduction, end to end, at jobs 1/2/4: same verdict, and the
     parallel runs report a jobs-independent cone partitioning *)
  for i = 1 to 3 do
    let c =
      Gen.feedback st
        ~name:(Printf.sprintf "flp%d" i)
        ~inputs:3 ~gates:(30 + Random.State.int st 30) ~latches:(3 + Random.State.int st 3)
        ~outputs:2
    in
    let rows = List.map (fun jobs -> (jobs, flow_ok ~jobs c)) [ 1; 2; 4 ] in
    let verdicts =
      List.map (fun (_, r) -> r.Flow.verify_verdict = Verify.Equivalent) rows
    in
    Alcotest.(check bool) "verdicts agree across jobs" true
      (List.for_all (fun v -> v = List.hd verdicts) verdicts);
    let parts =
      List.filter_map
        (fun (jobs, r) ->
          let cec = r.Flow.verify_stats.Verify.cec in
          if jobs > 1 then begin
            Alcotest.(check bool)
              (Printf.sprintf "jobs=%d partitioned" jobs)
              true (cec.Cec.partitions >= 1);
            Some cec.Cec.partitions
          end
          else None)
        rows
    in
    Alcotest.(check bool) "partition layout independent of jobs" true
      (List.for_all (fun p -> p = List.hd parts) parts)
  done

let suite =
  [
    Alcotest.test_case "flow verifies B vs C" `Quick test_flow_verifies;
    Alcotest.test_case "parallel flow verify agrees" `Quick test_flow_parallel_verify_agrees;
    Alcotest.test_case "pipeline shape" `Quick test_flow_shape_on_pipeline;
    Alcotest.test_case "minmax shape" `Quick test_flow_minmax_shape;
    Alcotest.test_case "B keeps outputs" `Quick test_flow_b_keeps_outputs;
    Alcotest.test_case "exposure report" `Quick test_exposure_report;
  ]
