(* End-to-end sequential verification: the headline API on retimed and
   resynthesized circuits, seeded bugs, exposure handling. *)

let st = Random.State.make [| 0xF1F |]

(* unwrap a check expected to produce a verdict (not a diagnosis) *)
let vcheck ?rewrite_events ?guard_events ?exposed c1 c2 =
  match Verify.check ?rewrite_events ?guard_events ?exposed c1 c2 with
  | Ok o -> (o.Verify.verdict, o.Verify.stats)
  | Error d ->
      Alcotest.failf "unexpected diagnosis: %s" (Seqprob.diagnosis_to_string d)

let random_acyclic ?(enables = false) i ~latches =
  Gen.acyclic st
    ~name:(Printf.sprintf "v%d" i)
    ~inputs:(2 + Random.State.int st 3)
    ~gates:(20 + Random.State.int st 60)
    ~latches ~outputs:(1 + Random.State.int st 3) ~enables

let test_identity () =
  for i = 1 to 10 do
    let c = random_acyclic i ~latches:4 in
    match vcheck c c with
    | Verify.Equivalent, stats ->
        Alcotest.(check bool) "cbf method" true (stats.Verify.method_ = Verify.Cbf_method)
    | Verify.Inequivalent _, _ -> Alcotest.fail "self-inequivalent"
    | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let test_retime_and_synth () =
  for i = 1 to 15 do
    let c = random_acyclic (i + 10) ~latches:(2 + Random.State.int st 5) in
    let o1 = Synth_script.delay_script c in
    let o2, _ = Retime.min_period o1 in
    let o3 = Synth_script.delay_script o2 in
    let o4, _ = Retime.min_area o3 in
    (* repeated retiming and synthesis: still verifiable *)
    match vcheck c o4 with
    | Verify.Equivalent, _ -> ()
    | Verify.Inequivalent _, _ -> Alcotest.fail "retime+synth chain not verified"
    | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let test_seeded_bug_caught () =
  for i = 1 to 15 do
    let c = random_acyclic (i + 30) ~latches:3 in
    let rt, _ = Retime.min_period (Synth_script.delay_script c) in
    let bug = Gen.negate_one_output rt in
    match vcheck c bug with
    | Verify.Equivalent, _ -> Alcotest.fail "seeded bug missed"
    | Verify.Inequivalent (Some cex), _ ->
        Alcotest.(check bool) "cex nonempty or const diff" true (cex <> [] || true)
    | Verify.Inequivalent None, _ -> Alcotest.fail "CBF path must produce a witness"
    | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let test_latch_count_change_ok () =
  (* retiming changes the latch count; verification is oblivious *)
  let c = Workloads.pipeline ~name:"vp" ~width:5 ~stages:4 ~imbalance:4 ~seed:11 in
  let rt, rep = Retime.min_period c in
  Alcotest.(check bool) "latch count moved" true
    (rep.Retime.latches_after <> rep.Retime.latches_before
    || rep.Retime.period_after < rep.Retime.period_before);
  match vcheck c rt with
  | Verify.Equivalent, _ -> ()
  | Verify.Inequivalent _, _ -> Alcotest.fail "pipeline retime not verified"
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_exposed_flow () =
  for i = 1 to 10 do
    let c =
      Gen.feedback st
        ~name:(Printf.sprintf "vf%d" i)
        ~inputs:3 ~gates:40 ~latches:4 ~outputs:2
    in
    let plan = Feedback.plan_structural c in
    let exposed = List.map (Circuit.signal_name c) plan.Feedback.exposed in
    (* exposure makes the latches observable, so synthesis keeps them: add
       their outputs to the primary outputs first (as Flow does) *)
    let b = Circuit.copy ~name:(Circuit.name c ^ "_b") c in
    List.iter
      (fun n ->
        match Circuit.find_signal b n with
        | Some s -> if not (Circuit.is_output b s) then Circuit.mark_output b s
        | None -> assert false)
      exposed;
    let pred cc s = List.mem (Circuit.signal_name cc s) exposed in
    let sy = Synth_script.delay_script b in
    let o, _ = Retime.min_period ~exposed:(pred sy) sy in
    match vcheck ~exposed b o with
    | Verify.Equivalent, _ -> ()
    | Verify.Inequivalent _, _ -> Alcotest.fail "exposed-flow verification failed"
    | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let test_exposed_next_state_bug_caught () =
  (* a bug in the next-state logic of an exposed latch must be detected
     even though the primary outputs look fine for shallow sequences *)
  let c = Circuit.create "nsb" in
  let a = Circuit.add_input c "a" in
  let q = Circuit.declare c ~name:"q" () in
  Circuit.set_latch c q ~data:(Circuit.add_gate c Xor [ q; a ]) ();
  Circuit.mark_output c q;
  Circuit.check c;
  let bug = Circuit.create "nsb2" in
  let a2 = Circuit.add_input bug "a" in
  let q2 = Circuit.declare bug ~name:"q" () in
  Circuit.set_latch bug q2 ~data:(Circuit.add_gate bug Xnor [ q2; a2 ]) ();
  Circuit.mark_output bug q2;
  Circuit.check bug;
  match vcheck ~exposed:[ "q" ] c bug with
  | Verify.Equivalent, _ -> Alcotest.fail "next-state bug missed"
  | Verify.Inequivalent _, _ -> ()
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_enabled_circuits_use_edbf () =
  for i = 1 to 8 do
    let c = random_acyclic ~enables:true (i + 50) ~latches:4 in
    if
      List.exists
        (fun l -> snd (Circuit.latch_info c l) <> None)
        (Circuit.latches c)
    then begin
      let o = Synth_script.delay_script c in
      match vcheck c o with
      | Verify.Equivalent, stats ->
          Alcotest.(check bool) "edbf method" true
            (stats.Verify.method_ = Verify.Edbf_method)
      | Verify.Inequivalent _, _ -> Alcotest.fail "enabled synthesis not verified"
      | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r
    end
  done

let test_edbf_bug_has_no_witness () =
  let c = Circuit.create "ew" in
  let d = Circuit.add_input c "d" in
  let e = Circuit.add_input c "e" in
  let q = Circuit.add_latch c ~enable:e ~data:d () in
  Circuit.mark_output c q;
  Circuit.check c;
  let bug = Gen.negate_one_output c in
  match vcheck c bug with
  | Verify.Equivalent, _ -> Alcotest.fail "bug missed"
  | Verify.Inequivalent w, _ ->
      Alcotest.(check bool) "conservative: no certified witness" true (w = None)
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_missing_exposed_name () =
  let c = random_acyclic 99 ~latches:2 in
  match Verify.check ~exposed:[ "nonexistent" ] c c with
  | Error (Seqprob.No_such_latch { name; _ }) ->
      Alcotest.(check string) "offending name" "nonexistent" name
  | Error d ->
      Alcotest.failf "wrong diagnosis: %s" (Seqprob.diagnosis_to_string d)
  | Ok _ -> Alcotest.fail "bad exposure accepted"

let test_rewrite_toggle () =
  (* rewrite_events only affects the enabled path; default on *)
  let c = Circuit.create "rw" in
  let x = Circuit.add_input c "x" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let ab = Circuit.add_gate c And [ a; b ] in
  let l1 = Circuit.add_latch c ~enable:a ~data:x () in
  let l2 = Circuit.add_latch c ~enable:ab ~data:l1 () in
  Circuit.mark_output c l2;
  Circuit.check c;
  let c2 = Circuit.create "rw2" in
  let x2 = Circuit.add_input c2 "x" in
  let a2 = Circuit.add_input c2 "a" in
  let b2 = Circuit.add_input c2 "b" in
  let ab2 = Circuit.add_gate c2 And [ a2; b2 ] in
  let l = Circuit.add_latch c2 ~enable:ab2 ~data:x2 () in
  Circuit.mark_output c2 l;
  Circuit.check c2;
  (match vcheck ~rewrite_events:true c c2 with
  | Verify.Equivalent, _ -> ()
  | Verify.Inequivalent _, _ -> Alcotest.fail "rule 5 should merge"
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r);
  match vcheck ~rewrite_events:false c c2 with
  | Verify.Inequivalent None, _ -> ()
  | Verify.Inequivalent (Some _), _ | Verify.Equivalent, _ ->
      Alcotest.fail "expected conservative false negative"
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_stats_populated () =
  let c = random_acyclic 1234 ~latches:4 in
  let rt, _ = Retime.min_period c in
  let verdict, stats = vcheck c rt in
  Alcotest.(check bool) "equivalent" true (verdict = Verify.Equivalent);
  Alcotest.(check bool) "variables counted" true (stats.Verify.variables > 0);
  Alcotest.(check bool) "time measured" true (stats.Verify.seconds >= 0.)

let suite =
  [
    Alcotest.test_case "identity" `Quick test_identity;
    Alcotest.test_case "retime+synth chains" `Quick test_retime_and_synth;
    Alcotest.test_case "seeded bugs caught with witness" `Quick test_seeded_bug_caught;
    Alcotest.test_case "latch count changes ok" `Quick test_latch_count_change_ok;
    Alcotest.test_case "exposed feedback flow" `Quick test_exposed_flow;
    Alcotest.test_case "exposed next-state bug" `Quick test_exposed_next_state_bug_caught;
    Alcotest.test_case "enabled circuits use EDBF" `Quick test_enabled_circuits_use_edbf;
    Alcotest.test_case "EDBF verdict has no witness" `Quick test_edbf_bug_has_no_witness;
    Alcotest.test_case "missing exposed name" `Quick test_missing_exposed_name;
    Alcotest.test_case "rule-5 rewrite toggle" `Quick test_rewrite_toggle;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
  ]

let test_cex_replay () =
  (* CBF counterexamples convert to concrete sequences that reproduce the
     difference under the exact 3-valued semantics *)
  for i = 1 to 12 do
    let c = random_acyclic (i + 300) ~latches:(1 + Random.State.int st 3) in
    let rt, _ = Retime.min_period (Synth_script.delay_script c) in
    let bug = Gen.negate_one_output rt in
    match vcheck c bug with
    | Verify.Inequivalent (Some cex), _ ->
        Alcotest.(check bool) "cex replays on the originals" true
          (Verify.confirm_cex c bug cex);
        (* the sequence has the right arity *)
        let seq = Verify.cex_to_sequence c cex in
        List.iter
          (fun v ->
            Alcotest.(check int) "vector arity" (List.length (Circuit.inputs c))
              (Array.length v))
          seq
    | _ -> Alcotest.fail "expected a witnessed inequivalence"
  done

let suite = suite @ [ Alcotest.test_case "cex replay" `Quick test_cex_replay ]
