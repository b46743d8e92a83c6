type metrics = { latches : int; area : int; delay : int }

type row = {
  name : string;
  a : metrics;
  exposed : int;
  exposed_percent : float;
  b : metrics;
  c : metrics;
  d : metrics;
  e : metrics;
  f : metrics;
  g : metrics;
  verify_seconds : float;
  verify_verdict : Verify.verdict;
  verify_stats : Verify.stats;
  stage_seconds : (string * float) list;
}

let ( let* ) = Result.bind

(* Area in unit-gate equivalents, counting a latch cell as 4 units (the
   paper's "active area" from the mapper includes the latch cells, which is
   what makes its area ratios move when retiming changes latch counts). *)
let latch_area = 4

let metrics_of c =
  {
    latches = Circuit.latch_count c;
    area = Circuit.area c + (latch_area * Circuit.latch_count c);
    delay = Circuit.delay c;
  }

(* B: copy of A with the exposed latch outputs added to the primary outputs
   (made observable), so synthesis cannot remove them. *)
let make_b a exposed_names =
  let b = Circuit.copy ~name:(Circuit.name a ^ "_B") a in
  List.iter
    (fun n ->
      match Circuit.find_signal b n with
      | Some s -> if not (Circuit.is_output b s) then Circuit.mark_output b s
      | None -> assert false)
    exposed_names;
  b

(* The min-period and min-area stages of each pair (C/E, F/G) run on the
   same synthesized netlist, so the synthesis (and its exposure predicate)
   is computed once per pair and shared. *)
let synth_for_retime ~exposed_names b =
  let sy = Synth_script.delay_script b in
  let* exposed = Verify.exposed_pred sy exposed_names in
  Ok (sy, exposed)

let min_period_on ?pool (sy, exposed) = fst (Retime.min_period ~exposed ?pool sy)

let min_area_on ?pool ~period ~fallback (sy, exposed) =
  match Retime.constrained_min_area ~exposed ?pool ~period sy with
  | Ok (rt, _) -> Ok rt
  | Error Retime.Infeasible_period ->
      if fallback then
        (* the default target (D's delay) can sit below B's minimum: degrade
           to the best achievable period *)
        Ok (fst (Retime.min_period ~exposed ?pool sy))
      else
        Error
          (Seqprob.Infeasible_period { circuit = Circuit.name sy; period })

let optimize_c ?pool ~exposed_names b =
  let* sy = synth_for_retime ~exposed_names b in
  Ok (min_period_on ?pool sy)

let regular_latches_only a =
  match
    List.find_opt
      (fun l -> snd (Circuit.latch_info a l) <> None)
      (Circuit.latches a)
  with
  | None -> Ok ()
  | Some l ->
      Error
        (Seqprob.Hidden_enabled_latch
           { circuit = Circuit.name a; latch = Circuit.signal_name a l })

let circuits a =
  let* () = regular_latches_only a in
  let plan = Feedback.plan_structural a in
  let exposed_names = List.map (Circuit.signal_name a) plan.Feedback.exposed in
  let b = make_b a exposed_names in
  let* c = optimize_c ~exposed_names b in
  Ok (b, c)

let run ?jobs ?limits ?cache ?period a =
  Obs.span ~name:"flow.run"
    ~attrs:[ ("circuit", Obs.String (Circuit.name a)) ]
  @@ fun () ->
  Circuit.check a;
  let* () = regular_latches_only a in
  (* one domain pool for the whole flow: the retime stages and the H-vs-J
     check share it ([None], or jobs <= 1, keeps them sequential) *)
  let pool =
    match jobs with
    | Some j when j > 1 -> Some (Par.Pool.create ~jobs:j)
    | Some _ | None -> None
  in
  Fun.protect ~finally:(fun () ->
      match pool with Some p -> Par.Pool.shutdown p | None -> ())
  @@ fun () ->
  let stages = ref [] in
  (* one span per flow stage; the measured wall clock also lands in the
     row's [stage_seconds] so callers get per-phase times without a sink *)
  let stage name f =
    let r, dt = Obs.timed_span ~name:("flow." ^ name) f in
    stages := (name, dt) :: !stages;
    r
  in
  let plan = Feedback.plan_structural a in
  let exposed_names = List.map (Circuit.signal_name a) plan.Feedback.exposed in
  let b = stage "B" (fun () -> make_b a exposed_names) in
  let d = stage "D" (fun () -> Synth_script.delay_script a) in
  let period_d = Circuit.delay d in
  (* a user-supplied period is a hard constraint; the default (D's delay)
     degrades to min-period when infeasible *)
  let target, fallback =
    match period with Some p -> (p, false) | None -> (period_d, true)
  in
  (* C synthesizes [b] and E reuses that netlist (same for F/G on the bare
     copy of [a]); each stage's clock still covers the work it performs *)
  let* c, syb =
    stage "C" (fun () ->
        let* sy = synth_for_retime ~exposed_names b in
        Ok (min_period_on ?pool sy, sy))
  in
  let* e = stage "E" (fun () -> min_area_on ?pool ~period:target ~fallback syb) in
  let* f, sya =
    stage "F" (fun () ->
        let* sy =
          synth_for_retime ~exposed_names:[]
            (Circuit.copy ~name:(Circuit.name a ^ "_F") a)
        in
        Ok (min_period_on ?pool sy, sy))
  in
  let* g = stage "G" (fun () -> min_area_on ?pool ~period:target ~fallback sya) in
  let nl = Circuit.latch_count a in
  let* outcome =
    stage "verify" (fun () ->
        Verify.check ?jobs ?pool ?limits ?cache ~exposed:exposed_names b c)
  in
  Ok
    {
      name = Circuit.name a;
      a = metrics_of a;
      exposed = List.length exposed_names;
      exposed_percent =
        (if nl = 0 then 0.
         else
           100.
           *. float_of_int (List.length exposed_names)
           /. float_of_int nl);
      b = metrics_of b;
      c = metrics_of c;
      d = metrics_of d;
      e = metrics_of e;
      f = metrics_of f;
      g = metrics_of g;
      verify_seconds = outcome.Verify.stats.Verify.seconds;
      verify_verdict = outcome.Verify.verdict;
      verify_stats = outcome.Verify.stats;
      stage_seconds = List.rev !stages;
    }

let exposure_report c =
  let total = Circuit.latch_count c in
  let structural = List.length (Feedback.plan_structural c).Feedback.exposed in
  let functional = List.length (Feedback.plan_functional c).Feedback.exposed in
  (total, structural, functional)
