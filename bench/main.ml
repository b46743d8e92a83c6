(* Paper-reproduction harness: regenerates every table and figure of the
   paper's evaluation (Section 8) on the synthetic benchmark suite, plus
   bechamel micro-benchmarks of the dominating kernels and the ablations
   listed in DESIGN.md.  Repeated, seeded timings of the shipped binary
   live in perfbench/ (see README.md, "Benchmark").

   Usage:
     dune exec bench/main.exe                 # tables + figures + quick micro
     dune exec bench/main.exe -- --table1     # Table 1 only (small suite)
     dune exec bench/main.exe -- --table1 --full   # all 23 circuits
     dune exec bench/main.exe -- --table1 --smoke  # exit 1 unless all EQ,
                                              # plus the budget/escalation demo
     dune exec bench/main.exe -- --table1 --jobs N|auto [--trace FILE]
                                              # H-vs-J at N domains; Chrome trace
     dune exec bench/main.exe -- --table2     # Table 2 (exposure counts)
     dune exec bench/main.exe -- --figs       # figure reproductions
     dune exec bench/main.exe -- --baseline   # product-machine traversal race
     dune exec bench/main.exe -- --ablation-cec | --ablation-rewrite
                                 | --ablation-guard | --ablation-synth
                                 | --ablation-dchoice
     dune exec bench/main.exe -- --micro      # bechamel micro-benchmarks
     dune exec bench/main.exe -- --micro-obs [--smoke]
                                              # disabled-site cost gate
   --jobs accepts an integer or "auto" (Domain.recommended_domain_count,
   further capped per check by the layout's bin count; default 1). *)

let pf = Format.printf

(* benchmark circuits are all well-formed, so a diagnosis here is a bug *)
let ok what = function
  | Ok r -> r
  | Error d ->
      failwith (Printf.sprintf "%s: %s" what (Seqprob.diagnosis_to_string d))

let check_outcome ?rewrite_events ?guard_events ?exposed c1 c2 =
  ok "verify" (Verify.check ?rewrite_events ?guard_events ?exposed c1 c2)

let check_verdict ?rewrite_events ?guard_events ?exposed c1 c2 =
  (check_outcome ?rewrite_events ?guard_events ?exposed c1 c2).Verify.verdict

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

(* Smoke-mode budget demo: a real B-vs-C miter under a 1-conflict SAT budget
   must come back Undecided (not a hang, not a wrong Equivalent), and the
   escalation ladder must then prove the very same problem, spending nonzero
   budget/escalation counters. *)
let budget_smoke () =
  let c = Workloads.by_name "s953" in
  let b, copt = ok "flow" (Flow.circuits c) in
  let plan = Feedback.plan_structural c in
  let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
  let ex cc s = List.mem (Circuit.signal_name cc s) names in
  let bld = Seqprob.builder () in
  let o1, _ = ok "unroll" (Cbf.unroll ~exposed:(ex b) bld b) in
  let o2, _ = ok "unroll" (Cbf.unroll ~exposed:(ex copt) bld copt) in
  let p = ok "problem" (Seqprob.problem bld ~outs1:o1 ~outs2:o2) in
  let tiny = { Cec.no_limits with Cec.sat_conflicts = Some 1; escalate = false } in
  let v1, s1 =
    Cec.check_problem_with_stats ~engine:Cec.Sat_engine ~limits:tiny p
  in
  let ladder = { Cec.default_limits with Cec.sat_conflicts = Some 1 } in
  let v2, s2 =
    Cec.check_problem_with_stats ~engine:Cec.Sweep_engine ~limits:ladder p
  in
  let show = function
    | Cec.Equivalent -> "EQ"
    | Cec.Inequivalent _ -> "NEQ"
    | Cec.Undecided r -> Printf.sprintf "UNDEC(%s)" r
  in
  pf
    "budget smoke: 1-conflict SAT budget -> %s (%d budget hits); escalation ladder -> %s (%d escalations, %d budget hits, %d conflicts)@."
    (show v1) s1.Cec.budget_hits (show v2) s2.Cec.escalations
    s2.Cec.budget_hits s2.Cec.conflicts;
  match (v1, v2) with
  | Cec.Undecided _, Cec.Equivalent
    when s1.Cec.budget_hits > 0 && s2.Cec.escalations > 0 ->
      ()
  | _ ->
      pf "SMOKE FAILURE: budget/escalation semantics@.";
      exit 1

let table1 ~full ~jobs ~smoke () =
  pf "@.== Table 1: optimization and verification results ==@.";
  pf "(A = original; C = expose+synth+min-period retime; D = synth only;@.";
  pf " E = expose+synth+min-area retime at D's period; F/G = like C/E without@.";
  pf " exposure.  Areas normalized to D, as in the paper.  S = unit-delay period.)@.";
  if jobs > 1 then pf "(HvJ checked with --jobs %d.)@." jobs;
  pf "@.";
  pf "%-9s| %5s | %4s %5s %3s | %3s | %4s %5s %3s | %3s | %4s | %4s %5s | %4s | %8s@."
    "circuit" "A#L" "F#L" "Farea" "FS" "%" "C#L" "Carea" "CS" "DS" "G#L" "E#L"
    "Earea" "ok" "HvJ";
  pf "%s@." (String.make 100 '-');
  let suite = if full then Workloads.table1_suite () else Workloads.table1_suite_small () in
  let total = ref 0. and bad = ref [] in
  List.iter
    (fun (name, c) ->
      (* generous default limits: easy instances are unaffected, runaway
         solves surface as UNDEC instead of hanging the bench *)
      let row = ok "flow" (Flow.run ~jobs ~limits:Cec.default_limits c) in
      let darea = float_of_int (max 1 row.Flow.d.Flow.area) in
      let rel a = float_of_int a /. darea in
      pf
        "%-9s| %5d | %4d %5.2f %3d | %3.0f | %4d %5.2f %3d | %3d | %4d | %4d %5.2f | %4s | %7.2fs@."
        name row.Flow.a.Flow.latches row.Flow.f.Flow.latches (rel row.Flow.f.Flow.area)
        row.Flow.f.Flow.delay row.Flow.exposed_percent row.Flow.c.Flow.latches
        (rel row.Flow.c.Flow.area) row.Flow.c.Flow.delay row.Flow.d.Flow.delay
        row.Flow.g.Flow.latches row.Flow.e.Flow.latches (rel row.Flow.e.Flow.area)
        (match row.Flow.verify_verdict with
        | Verify.Equivalent -> "EQ"
        | Verify.Inequivalent _ -> "NEQ!"
        | Verify.Undecided _ -> "UNDEC?")
        row.Flow.verify_seconds;
      total := !total +. row.Flow.verify_seconds;
      match row.Flow.verify_verdict with
      | Verify.Equivalent -> ()
      | Verify.Inequivalent _ | Verify.Undecided _ -> bad := name :: !bad)
    suite;
  pf "%s@." (String.make 100 '-');
  pf "verify wall-clock: jobs=%d %.2fs@." jobs !total;
  if smoke then begin
    if !bad <> [] then begin
      List.iter (fun n -> pf "SMOKE FAILURE: %s not Equivalent@." n) (List.rev !bad);
      exit 1
    end;
    pf "smoke: all %d verdicts Equivalent@." (List.length suite);
    budget_smoke ()
  end

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  pf "@.== Table 2: latches exposed for the industrial-style circuits ==@.";
  pf "(structural = the paper's experiment; functional = the unateness-aware@.";
  pf " analysis the paper predicts 'would lead to reduced numbers'.)@.@.";
  pf "%-8s %9s %12s %12s %11s@." "example" "# latches" "# structural" "# functional"
    "# converted";
  pf "%s@." (String.make 56 '-');
  List.iter
    (fun (name, c) ->
      let total = Circuit.latch_count c in
      let s = List.length (Feedback.plan_structural c).Feedback.exposed in
      let fplan = Feedback.plan_functional c in
      pf "%-8s %9d %12d %12d %11d@." name total s
        (List.length fplan.Feedback.exposed)
        (List.length fplan.Feedback.converted))
    (Workloads.table2_suite ())

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  let a = Circuit.create "fig1a" in
  let d = Circuit.add_input a "d" in
  let q = Circuit.add_latch a ~data:d () in
  Circuit.mark_output a (Circuit.add_gate a Xor [ q; q ]);
  Circuit.check a;
  let b = Circuit.create "fig1b" in
  ignore (Circuit.add_input b "d");
  Circuit.mark_output b (Circuit.const_false b);
  Circuit.check b;
  let t3 = Sim.run_3v a ~inputs:[ [| true |] ] in
  let naive_differs = not (Sim.tv_equal (List.hd t3).(0) Sim.F) in
  let exact_equal = check_verdict a b = Verify.Equivalent in
  pf "Fig. 1:  naive 3-valued sim differs: %b; exact/CBF equivalent: %b  %s@."
    naive_differs exact_equal
    (if naive_differs && exact_equal then "[reproduced]" else "[MISMATCH]")

let fig10_pair collapse name =
  let c = Circuit.create name in
  let x = Circuit.add_input c "x" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let ab = Circuit.add_gate c And [ a; b ] in
  if collapse then Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data:x ())
  else begin
    let l1 = Circuit.add_latch c ~enable:a ~data:x () in
    Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data:l1 ())
  end;
  Circuit.check c;
  c

let fig10 () =
  let fneg =
    check_verdict ~rewrite_events:false (fig10_pair false "a") (fig10_pair true "b")
    <> Verify.Equivalent
  in
  let fixed =
    check_verdict (fig10_pair false "a2") (fig10_pair true "b2") = Verify.Equivalent
  in
  pf "Fig. 10: false negative without rule (5): %b; fixed with it: %b  %s@." fneg fixed
    (if fneg && fixed then "[reproduced]" else "[MISMATCH]")

let fig11 () =
  let mk data_kind =
    let c = Circuit.create ("f11" ^ data_kind) in
    let a = Circuit.add_input c "a" in
    let b = Circuit.add_input c "b" in
    let ab = Circuit.add_gate c Or [ a; b ] in
    let data = if data_kind = "b" then b else ab in
    Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data ());
    Circuit.check c;
    c
  in
  let conservative =
    match check_verdict (mk "b") (mk "ab") with
    | Verify.Inequivalent None -> true
    | _ -> false
  in
  pf "Fig. 11: event/data interaction stays a conservative rejection: %b  %s@."
    conservative
    (if conservative then "[reproduced]" else "[MISMATCH]")

let fig6 () =
  pf "Fig. 6:  pipeline retiming gains (min-period vs synth-only):@.";
  List.iter
    (fun imbalance ->
      let c =
        Workloads.pipeline
          ~name:(Printf.sprintf "p_i%d" imbalance)
          ~width:8 ~stages:6 ~imbalance ~seed:42
      in
      let d = Synth_script.delay_script c in
      let _, rep = Retime.min_period d in
      pf "         imbalance %d: D period %2d -> C period %2d (%.0f%% faster)@." imbalance
        rep.Retime.period_before rep.Retime.period_after
        (100.
        *. float_of_int (rep.Retime.period_before - rep.Retime.period_after)
        /. float_of_int (max 1 rep.Retime.period_before)))
    [ 1; 2; 4; 8 ]

let fig18 () =
  pf "Fig. 18: CBF unrolled-circuit sizes (cone replication):@.";
  List.iter
    (fun name ->
      let c = Workloads.by_name name in
      let plan = Feedback.plan_structural c in
      let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
      let exposed s = List.mem (Circuit.signal_name c s) names in
      let u, info = Cbf.unroll_netlist ~exposed c in
      (* and the shared-AIG size the engines actually see *)
      let b = Seqprob.builder () in
      let aig_nodes =
        match Cbf.unroll ~exposed b c with
        | Ok _ -> Aig.and_count (Seqprob.graph b)
        | Error _ -> -1
      in
      pf "         %-9s gates %5d -> unrolled %6d netlist / %6d AIG nodes (depth %d, %d variables)@."
        name (Circuit.area c) (Circuit.area u) aig_nodes info.Cbf.depth
        info.Cbf.variables)
    [ "s953"; "s1269"; "s3384"; "minmax10"; "minmax32" ]

let fig16 () =
  (* enabled-latch forward move across a gate (class-preserving) *)
  let c = Circuit.create "fig16" in
  let d1 = Circuit.add_input c "d1" in
  let d2 = Circuit.add_input c "d2" in
  let e = Circuit.add_input c "e" in
  let q1 = Circuit.add_latch c ~enable:e ~data:d1 () in
  let q2 = Circuit.add_latch c ~enable:e ~data:d2 () in
  let g = Circuit.add_gate c And [ q1; q2 ] in
  Circuit.mark_output c g;
  Circuit.check c;
  let legal = Classes.can_forward_move c ~gate:g in
  let moved = Classes.forward_move c ~gate:g in
  let still_ok = check_verdict c (Synth_script.quick_cleanup moved) in
  pf "Fig. 16: same-class forward move legal: %b; EDBF-verified after move: %b@." legal
    (still_ok = Verify.Equivalent)

let figs () =
  pf "@.== Figure reproductions ==@.";
  fig1 ();
  fig10 ();
  fig11 ();
  fig16 ();
  fig6 ();
  fig18 ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Sys.time () in
  let r = f () in
  (r, Sys.time () -. t0)

let ablation_cec () =
  pf "@.== Ablation: CEC engine on the unrolled miters ==@.";
  pf "%-10s %10s %10s %10s@." "circuit" "bdd" "sat" "sweep";
  List.iter
    (fun name ->
      let c = Workloads.by_name name in
      let b, copt = ok "flow" (Flow.circuits c) in
      let plan = Feedback.plan_structural c in
      let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
      let ex cc s = List.mem (Circuit.signal_name cc s) names in
      let bld = Seqprob.builder () in
      let o1, _ = ok "unroll" (Cbf.unroll ~exposed:(ex b) bld b) in
      let o2, _ = ok "unroll" (Cbf.unroll ~exposed:(ex copt) bld copt) in
      let p = ok "problem" (Seqprob.problem bld ~outs1:o1 ~outs2:o2) in
      let run engine =
        let (v, _), t = time (fun () -> Cec.check_problem_with_stats ~engine p) in
        (match v with
        | Cec.Equivalent -> ()
        | Cec.Inequivalent _ -> pf "NEQ?!"
        | Cec.Undecided _ -> pf "UNDEC?!");
        t
      in
      let tb = run Cec.Bdd_engine in
      let ts = run Cec.Sat_engine in
      let tw = run Cec.Sweep_engine in
      pf "%-10s %9.3fs %9.3fs %9.3fs@." name tb ts tw)
    [ "s400"; "s953"; "s1269"; "minmax10"; "minmax12" ]

let ablation_rewrite () =
  pf "@.== Ablation: rule-(5) event rewrite (Fig. 10 class) ==@.";
  let fneg = ref 0 and fixed = ref 0 in
  let n = 10 in
  for i = 1 to n do
    let a = fig10_pair false (Printf.sprintf "ra%d" i) in
    let b = fig10_pair true (Printf.sprintf "rb%d" i) in
    if check_verdict ~rewrite_events:false a b <> Verify.Equivalent then incr fneg;
    if check_verdict a b = Verify.Equivalent then incr fixed
  done;
  pf "without rule (5): %d/%d false negatives@." !fneg n;
  pf "with rule (5):    %d/%d proven equivalent@." !fixed n

let ablation_synth_rewrite () =
  pf "@.== Ablation: cut-based AIG rewriting in the synthesis script ==@.";
  pf "%-10s %14s %14s %10s@." "circuit" "area(balance)" "area(+rewrite)" "saving";
  List.iter
    (fun name ->
      let c = Workloads.by_name name in
      let base = Synth_script.delay_script c in
      let opts = { Synth_script.default_options with rewrite = true } in
      let rw = Synth_script.delay_script ~options:opts c in
      (* sanity: still equivalent *)
      (match
         fst
           (Cec.check_problem_with_stats
              (Cec.of_circuits (Comb_view.of_sequential base)
                 (Comb_view.of_sequential rw)))
       with
      | Cec.Equivalent -> ()
      | Cec.Inequivalent _ | Cec.Undecided _ -> pf "REWRITE BUG on %s!@." name);
      let a0 = Circuit.area base and a1 = Circuit.area rw in
      pf "%-10s %14d %14d %9.1f%%@." name a0 a1
        (100. *. float_of_int (a0 - a1) /. float_of_int (max 1 a0)))
    [ "s400"; "s953"; "s1269"; "prolog"; "minmax10" ]

let ablation_guard () =
  pf "@.== Ablation: event-consistency guard (beyond the published method) ==@.";
  (* data functions that differ only where the enable is false *)
  let mk variant i =
    let c = Circuit.create (Printf.sprintf "gd%s%d" variant i) in
    let a = Circuit.add_input c "a" in
    let b = Circuit.add_input c "b" in
    let ab = Circuit.add_gate c Or [ a; b ] in
    let data =
      if variant = "plain" then b
      else Circuit.add_gate c Or [ b; Circuit.add_gate c Not [ ab ] ]
    in
    Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data ());
    Circuit.check c;
    c
  in
  let n = 10 in
  let without = ref 0 and with_g = ref 0 in
  for i = 1 to n do
    if check_verdict (mk "plain" i) (mk "dc" i) <> Verify.Equivalent then incr without;
    if check_verdict ~guard_events:true (mk "plain" i) (mk "dc" i) = Verify.Equivalent
    then incr with_g
  done;
  pf "published method:            %d/%d false negatives@." !without n;
  pf "with event-consistency guard: %d/%d proven equivalent@." !with_g n

let ablation_dchoice () =
  pf "@.== Ablation: d-choice in the feedback decomposition ==@.";
  pf "(the same circuit's conditional registers converted with the two@.";
  pf " d-choices; mixed choices can diverge when [F0, F1] is not a point.)@.@.";
  let st = Random.State.make [| 314 |] in
  let mk i =
    Workloads.fsm_datapath
      ~name:(Printf.sprintf "dc%d" i)
      ~latches:14 ~self_loops:6 ~gates:120 ~width:6
      ~seed:(Random.State.int st 10000)
  in
  let run d1 d2 =
    let agree = ref 0 and total = ref 0 in
    for i = 1 to 10 do
      let c = mk i in
      let plan = Feedback.plan_functional c in
      if plan.Feedback.converted <> [] then begin
        incr total;
        let c1 = Feedback.apply_plan ~dchoice:d1 c plan in
        let c2 = Feedback.apply_plan ~dchoice:d2 c plan in
        let exposed = List.map (Circuit.signal_name c) plan.Feedback.exposed in
        if check_verdict ~exposed c1 c2 = Verify.Equivalent then incr agree
      end
    done;
    (!agree, !total)
  in
  let a1, t1 = run Feedback.D_low Feedback.D_low in
  pf "D_low  vs D_low:   %d/%d verified equivalent@." a1 t1;
  let a2, t2 = run Feedback.D_disjoint Feedback.D_disjoint in
  pf "D_disj vs D_disj:  %d/%d verified equivalent@." a2 t2;
  let a3, t3 = run Feedback.D_low Feedback.D_disjoint in
  pf "D_low  vs D_disj:  %d/%d verified equivalent (divergence = Fig. 11 class)@." a3 t3

(* ------------------------------------------------------------------ *)
(* Baseline comparison                                                 *)
(* ------------------------------------------------------------------ *)

(* The paper's observation 3: "for only few of these sequential circuits
   the state-space can be traversed, and for fewer yet the state-space of
   the product machine" — we race the classical symbolic-traversal checker
   against the combinational reduction on B-vs-C pairs of growing size. *)
let baseline () =
  pf "@.== Baseline: product-machine traversal vs combinational reduction ==@.";
  pf "(Pipelined circuits, where the baseline's reset equivalence and the@.";
  pf " paper's exact 3-valued equivalence coincide after the flush.)@.@.";
  pf "%-22s %8s | %12s %16s | %12s@." "circuit" "latches" "traversal" "(result)"
    "reduction";
  pf "%s@." (String.make 80 '-');
  let budget = 400_000 in
  List.iter
    (fun (name, width, stages) ->
      let c = Workloads.pipeline ~name ~width ~stages ~imbalance:3 ~seed:(Hashtbl.hash name) in
      let b, copt = ok "flow" (Flow.circuits c) in
      let (bv, bstats) = Sec_baseline.check ~node_limit:budget b copt in
      let bres =
        match bv with
        | Sec_baseline.Equivalent -> "EQ"
        | Sec_baseline.Inequivalent -> "NEQ"
        | Sec_baseline.Resource_out _ -> "gave up"
      in
      let o = check_outcome b copt in
      let rres =
        match o.Verify.verdict with
        | Verify.Equivalent -> "EQ"
        | Verify.Inequivalent _ -> "NEQ"
        | Verify.Undecided _ -> "UNDEC"
      in
      pf "%-22s %8d | %10.3fs %-16s | %10.3fs %s@." name (Circuit.latch_count c)
        bstats.Sec_baseline.seconds
        (Printf.sprintf "(%s, %d st)" bres (int_of_float bstats.Sec_baseline.product_states))
        o.Verify.stats.Verify.seconds rres)
    [ ("pipe4x3", 4, 3); ("pipe6x3", 6, 3); ("pipe8x4", 8, 4); ("pipe10x4", 10, 4);
      ("pipe12x5", 12, 5); ("pipe16x6", 16, 6) ];
  (* The two notions differ on power-up-sensitive feedback state: the
     traversal checks reset equivalence from the all-zero state, under
     which a retimed circuit's transient can poison exposed feedback
     registers forever; the paper's exact 3-valued semantics marks those
     outputs undefined in BOTH circuits.  Demonstrate on an FSM circuit: *)
  let c =
    Workloads.fsm_datapath ~name:"fsm8" ~latches:8 ~self_loops:2 ~gates:48
      ~width:6 ~seed:(Hashtbl.hash "fsm8")
  in
  let b, copt = ok "flow" (Flow.circuits c) in
  let plan = Feedback.plan_structural c in
  let names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
  let bv, _ = Sec_baseline.check ~node_limit:budget b copt in
  let rv = check_verdict ~exposed:names b copt in
  pf "@.semantic gap (feedback + power-up): traversal(reset-eq) = %s, reduction(exact-3v) = %s@."
    (match bv with
    | Sec_baseline.Equivalent -> "EQ"
    | Sec_baseline.Inequivalent -> "NEQ"
    | Sec_baseline.Resource_out _ -> "gave up")
    (match rv with
    | Verify.Equivalent -> "EQ"
    | Verify.Inequivalent _ -> "NEQ"
    | Verify.Undecided _ -> "UNDEC")

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  pf "@.== Micro-benchmarks (bechamel, median ns/run) ==@.";
  let open Bechamel in
  let open Toolkit in
  let c953 = Workloads.by_name "s953" in
  let plan = Feedback.plan_structural c953 in
  let names = List.map (Circuit.signal_name c953) plan.Feedback.exposed in
  let expose cc s = List.mem (Circuit.signal_name cc s) names in
  let b, copt = ok "flow" (Flow.circuits c953) in
  let problem =
    let bld = Seqprob.builder () in
    let o1, _ = ok "unroll" (Cbf.unroll ~exposed:(expose b) bld b) in
    let o2, _ = ok "unroll" (Cbf.unroll ~exposed:(expose copt) bld copt) in
    ok "problem" (Seqprob.problem bld ~outs1:o1 ~outs2:o2)
  in
  let synth953 = Synth_script.delay_script c953 in
  let tests =
    Test.make_grouped ~name:"seqver"
      [
        Test.make ~name:"t1/expose-mfvs-s953"
          (Staged.stage (fun () -> ignore (Feedback.plan_structural c953)));
        Test.make ~name:"t1/synth-script-s953"
          (Staged.stage (fun () -> ignore (Synth_script.delay_script c953)));
        Test.make ~name:"t1/retime-minperiod-s953"
          (Staged.stage (fun () ->
               ignore (Retime.min_period ~exposed:(expose synth953) synth953)));
        Test.make ~name:"t1/unroll-cbf-s953"
          (Staged.stage (fun () ->
               let bld = Seqprob.builder () in
               ignore (Cbf.unroll ~exposed:(expose b) bld b)));
        Test.make ~name:"t1/cec-sweep-s953"
          (Staged.stage (fun () ->
               ignore (Cec.check_problem_with_stats ~engine:Cec.Sweep_engine problem)));
        Test.make ~name:"t1/cec-bdd-s953"
          (Staged.stage (fun () ->
               ignore (Cec.check_problem_with_stats ~engine:Cec.Bdd_engine problem)));
        Test.make ~name:"t2/exposure-ex3"
          (Staged.stage (fun () ->
               ignore (Feedback.plan_functional (Workloads.by_name "ex3"))));
        (* the disabled-sink cost of an instrumentation site: one atomic
           load per emitter (the number quoted in DESIGN.md) *)
        Test.make ~name:"obs/span-disabled"
          (Staged.stage (fun () -> Obs.span ~name:"bench" (fun () -> ())));
        Test.make ~name:"obs/count-disabled"
          (Staged.stage (fun () -> Obs.count "bench" 1));
        Test.make ~name:"obs/observe-disabled"
          (Staged.stage (fun () -> Obs.observe "bench" 1.0));
      ]
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.8) ~stabilize:false () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let results = Analyze.merge ols instances results in
  Hashtbl.iter
    (fun _instance tbl ->
      let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) tbl [] in
      List.iter
        (fun (name, r) ->
          match Analyze.OLS.estimates r with
          | Some [ est ] -> pf "%-32s %14.0f ns/run@." name est
          | Some _ | None -> pf "%-32s (no estimate)@." name)
        (List.sort compare rows))
    results

(* [--micro-obs]: the disabled-site cost gate.  A histogram site compiled
   into hot code ([Par] worker wrap, [Cec.run_one]) must stay as close to
   free as a disabled span when counters are off — one atomic load and a
   branch.  Measured with a plain best-of-5 loop rather than bechamel so
   the [--smoke] gate is a single comparable number. *)

let micro_obs ~smoke () =
  pf "@.== Obs disabled-site cost ==@.";
  let iters = 2_000_000 in
  let time f =
    for _ = 1 to 100_000 do f () done;
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Obs.Clock.now () in
      for _ = 1 to iters do f () done;
      let dt = Obs.Clock.now () -. t0 in
      if dt < !best then best := dt
    done;
    !best /. float_of_int iters *. 1e9
  in
  let span_ns = time (fun () -> Obs.span ~name:"bench" (fun () -> ())) in
  let observe_ns = time (fun () -> Obs.observe "bench" 1.0) in
  pf "  span-disabled    %6.2f ns/site@." span_ns;
  pf "  observe-disabled %6.2f ns/site@." observe_ns;
  if smoke then begin
    (* relative gate with an absolute floor so a noisy box cannot fail on
       a sub-nanosecond delta between two ~5ns sites *)
    let budget = Float.max (2. *. span_ns) (span_ns +. 15.) in
    if observe_ns > budget then begin
      pf "SMOKE FAILURE: observe-disabled %.2f ns > budget %.2f ns \
          (max of 2x span-disabled and span + 15ns)@."
        observe_ns budget;
      exit 1
    end
    else
      pf "smoke: observe-disabled %.2f ns within budget %.2f ns@." observe_ns
        budget
  end

(* ------------------------------------------------------------------ *)

let () =
  let args = Array.to_list Sys.argv in
  let has f = List.mem f args in
  let rec opt_str flag = function
    | f :: v :: _ when f = flag -> Some v
    | _ :: tl -> opt_str flag tl
    | [] -> None
  in
  let sections =
    [ "--table1"; "--table2"; "--figs"; "--baseline"; "--ablation-cec";
      "--ablation-rewrite"; "--ablation-guard"; "--ablation-synth";
      "--ablation-dchoice"; "--micro"; "--micro-obs" ]
  in
  let rec validate = function
    | f :: _ :: tl when List.mem f [ "--jobs"; "--trace" ] -> validate tl
    | f :: tl when List.mem f ("--full" :: "--smoke" :: sections) -> validate tl
    | f :: _ -> failwith (Printf.sprintf "unknown or incomplete argument %s" f)
    | [] -> ()
  in
  validate (List.tl args);
  let any = List.exists has sections in
  let full = has "--full" in
  let smoke = has "--smoke" in
  let jobs =
    (* "auto" asks the runtime for the machine's domain count; the layout
       caps each check's pool at its bin count anyway *)
    match opt_str "--jobs" args with
    | Some "auto" -> Par.cpu_count ()
    | Some s -> (
        match int_of_string_opt s with
        | Some n -> max 1 n
        | None -> failwith (Printf.sprintf "bad --jobs %s (expected N or auto)" s))
    | None -> 1
  in
  let trace = opt_str "--trace" args in
  Option.iter (fun _ -> Obs.enable ()) trace;
  if (not any) || has "--table1" then table1 ~full ~jobs ~smoke ();
  if (not any) || has "--table2" then table2 ();
  if (not any) || has "--figs" then figs ();
  if (not any) || has "--baseline" then baseline ();
  if (not any) || has "--ablation-cec" then ablation_cec ();
  if (not any) || has "--ablation-rewrite" then ablation_rewrite ();
  if (not any) || has "--ablation-guard" then ablation_guard ();
  if (not any) || has "--ablation-synth" then ablation_synth_rewrite ();
  if (not any) || has "--ablation-dchoice" then ablation_dchoice ();
  if (not any) || has "--micro" then micro ();
  if (not any) || has "--micro-obs" then micro_obs ~smoke ();
  match trace with
  | Some path ->
      let oc = open_out path in
      Obs.Chrome.write oc (Obs.collect ());
      close_out oc;
      pf "wrote trace %s@." path
  | None -> ()
