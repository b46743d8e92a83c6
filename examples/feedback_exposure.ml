(* Section 6 end to end: a design mixing pipeline latches with FSM-style
   feedback registers.  The structural analysis finds a minimum feedback
   vertex set to expose; the functional (unateness) analysis additionally
   converts conditional-update registers into load-enabled latches
   (Figs. 12-15), reducing the exposed count.  The full Fig. 19 flow then
   optimizes and verifies the design.

   Run with: dune exec examples/feedback_exposure.exe *)

let () =
  let c =
    Workloads.fsm_datapath ~name:"controller" ~latches:48 ~self_loops:16 ~gates:400
      ~width:10 ~seed:99
  in
  Format.printf "design: %a@." Circuit.stats_pp c;

  (* per-latch feedback analysis *)
  let analyses = Feedback.analyze c in
  let self_loops = List.filter (fun a -> a.Feedback.self_feedback) analyses in
  let unate = List.filter (fun a -> a.Feedback.positive_unate) self_loops in
  Format.printf "feedback:  %d of %d latches have self-feedback, %d positive-unate@."
    (List.length self_loops) (List.length analyses) (List.length unate);

  (* exposure plans: structural (paper's experiments) vs functional *)
  let structural = Feedback.plan_structural c in
  let functional = Feedback.plan_functional c in
  Format.printf "exposure:  structural %d latches, functional %d (+ %d converted)@."
    (List.length structural.Feedback.exposed)
    (List.length functional.Feedback.exposed)
    (List.length functional.Feedback.converted);

  (* Lemma 6.1 decomposition of one conditional register, spelled out *)
  (match functional.Feedback.converted with
  | [] -> ()
  | l :: _ ->
      let man, f, _ = Feedback.next_state_function c l in
      (match Feedback.decompose man f ~x:0 ~dchoice:Feedback.D_low with
      | Some (e, d) ->
          Format.printf
            "lemma 6.1: latch %s: F = e·d + ē·x with |e| = %d BDD nodes, |d| = %d@."
            (Circuit.signal_name c l) (Bdd.size man e) (Bdd.size man d)
      | None -> assert false));

  (* the full experimental flow (Fig. 19) *)
  let row =
    match Flow.run c with
    | Ok row -> row
    | Error d -> failwith (Seqprob.diagnosis_to_string d)
  in
  Format.printf "flow:      exposed %d (%.0f%%)@." row.Flow.exposed row.Flow.exposed_percent;
  Format.printf "  C (retime+synth): delay %d, area %d, latches %d@." row.Flow.c.Flow.delay
    row.Flow.c.Flow.area row.Flow.c.Flow.latches;
  Format.printf "  D (synth only):   delay %d, area %d@." row.Flow.d.Flow.delay
    row.Flow.d.Flow.area;
  Format.printf "  E (min-area at D): latches %d@." row.Flow.e.Flow.latches;
  Format.printf "  F (no exposure):  delay %d, latches %d@." row.Flow.f.Flow.delay
    row.Flow.f.Flow.latches;
  Format.printf "  verification:     %s in %.3fs@."
    (match row.Flow.verify_verdict with
    | Verify.Equivalent -> "EQUIVALENT"
    | Verify.Inequivalent _ -> "NOT EQUIVALENT"
    | Verify.Undecided _ -> "UNDECIDED")
    row.Flow.verify_stats.Verify.seconds
