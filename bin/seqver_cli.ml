(* seqver: command-line driver for the sequential-verification library.

   Netlists are read and written in the textual format of Netlist_io (see
   its documentation); suite circuits can be referenced as "@name" (e.g.
   "@minmax10" or "@s953") instead of a file. *)

open Cmdliner

let is_blif path = Filename.check_suffix path ".blif"

let fail msg =
  Format.eprintf "error: %s@." msg;
  exit 1

(* An unreadable or malformed netlist is a diagnosis (exit 1), not an
   internal error: callers load before opening a trace or a store, so
   this early exit has nothing to clean up. *)
let load path =
  if String.length path > 0 && path.[0] = '@' then
    match Workloads.lookup (String.sub path 1 (String.length path - 1)) with
    | Ok c -> c
    | Error msg -> fail msg
  else
    try
      let text = In_channel.with_open_bin path In_channel.input_all in
      if is_blif path then begin
        let { Blif.circuit; warnings } = Blif.parse text in
        List.iter (fun w -> Format.eprintf "warning: %s@." w) warnings;
        circuit
      end
      else Netlist_io.parse text
    with Sys_error msg | Invalid_argument msg -> fail msg

let save path c =
  try
    Out_channel.with_open_text path (fun oc ->
        output_string oc
          (if is_blif path then Blif.to_string c else Netlist_io.to_string c))
  with Sys_error msg -> fail msg

let circuit_arg ~pos:p ~doc =
  Arg.(required & pos p (some string) None & info [] ~docv:"CIRCUIT" ~doc)

let engine_arg =
  Arg.(
    value
    & opt (enum Cec.engines) Cec.Sweep_engine
    & info [ "engine" ] ~docv:"ENGINE"
        ~doc:("Combinational engine: " ^ doc_alts_enum Cec.engines ^ "."))

let exposed_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "exposed" ] ~docv:"NAMES"
        ~doc:"Comma-separated latch names to expose (pseudo primary I/O).")

let jobs_arg =
  (* plain N, or "auto" = Domain.recommended_domain_count () — the layout
     caps the pool at its bin count per check, so "auto" never oversubscribes
     a small problem *)
  let jobs_conv =
    let parse = function
      | "auto" -> Ok (Par.cpu_count ())
      | s -> (
          match int_of_string_opt s with
          | Some n when n >= 1 -> Ok n
          | Some _ | None ->
              Error (`Msg (Printf.sprintf "bad jobs value %S (expected N >= 1 or auto)" s)))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value
    & opt jobs_conv 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Worker-domain cap for the combinational check, or $(b,auto) for \
           the machine's recommended domain count.  With N > 1 a problem \
           whose estimated cost clears the layout threshold is partitioned \
           into cost-balanced bins and checked in parallel (never more \
           domains than bins); small problems and $(b,--jobs 1) keep the \
           monolithic single-domain check.")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:
          "Wall-clock budget per miter partition.  A partition that cannot \
           be decided in time (after escalating through the engine ladder) \
           reports UNDECIDED instead of running forever.")

let sat_conflicts_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sat-conflicts" ] ~docv:"N"
        ~doc:
          "Base conflict budget per SAT call; a blown budget escalates \
           (larger-budget SAT, then BDDs) before reporting UNDECIDED.")

(* With neither flag the engines run unbounded (the historical behavior);
   either flag opts into the default ladder with the given caps. *)
let limits_of timeout sat_conflicts =
  match (timeout, sat_conflicts) with
  | None, None -> Cec.no_limits
  | _ ->
      {
        Cec.default_limits with
        Cec.seconds = timeout;
        sat_conflicts =
          (match sat_conflicts with
          | None -> Cec.default_limits.Cec.sat_conflicts
          | some -> some);
      }

(* ---- persistent verdict store (shared by verify and flow) ---- *)

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent verdict-store directory, shared across runs and \
           across concurrent seqver processes.  Structurally identical \
           miter partitions proven in any earlier run are answered from \
           the store (counted as store hits in the cec stats line); new \
           verdicts are appended write-through.  Manage the directory with \
           $(b,seqver cache).")

(* A corrupt store must never fail the run: Store.open_ quarantines and
   cold-starts, we just tell the user where the damaged file went.  A
   directory that cannot be created or opened is a diagnosis. *)
let open_store dir =
  let st =
    try Store.open_ dir with
    | Unix.Unix_error (e, _, _) ->
        fail (Printf.sprintf "%s: %s" dir (Unix.error_message e))
    | Sys_error msg -> fail msg
  in
  (match (Store.info st).Store.quarantined_to with
  | Some q ->
      Format.eprintf
        "warning: corrupt verdict store quarantined to %s; starting cold@." q
  | None -> ());
  st

(* the one check's result cache, write-through to the store when given *)
let store_cache = Option.map (fun store -> Cec.Cache.create ~store ())

(* ---- observability (shared by verify and flow) ---- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace-event JSON file of the run (spans for every \
           pipeline stage, miter partition and SAT call).  Load it in \
           Perfetto (ui.perfetto.dev) or chrome://tracing.")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "verbose" ]
        ~doc:"Print live per-stage progress on standard error.")

let obs_stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "After the run, print a span-tree summary (per-phase self/total \
           times and counters).")

(* Live progress printer: begin/end lines for the coarse pipeline spans,
   written from the emitting domain (the hook is synchronous). *)
let live_hook () =
  let interesting name =
    List.exists
      (fun p -> String.starts_with ~prefix:p name)
      [ "flow."; "verify."; "unroll."; "cec.check"; "cec.partition" ]
  in
  let m = Mutex.create () in
  (* per-(domain, name) begin-time stacks, so End events get a duration *)
  let began : (int * string, float list) Hashtbl.t = Hashtbl.create 16 in
  let t0 = ref None in
  fun (e : Obs.event) ->
    match e with
    | Obs.Begin { name; t; dom; _ } when interesting name ->
        Mutex.lock m;
        let rel = match !t0 with Some r -> t -. r | None -> t0 := Some t; 0. in
        let st = Option.value ~default:[] (Hashtbl.find_opt began (dom, name)) in
        Hashtbl.replace began (dom, name) (t :: st);
        Printf.eprintf "[%7.3fs d%d] > %s\n%!" rel dom name;
        Mutex.unlock m
    | Obs.End { name; t; dom; _ } when interesting name ->
        Mutex.lock m;
        let rel = match !t0 with Some r -> t -. r | None -> 0. in
        (match Hashtbl.find_opt began (dom, name) with
        | Some (b :: rest) ->
            Hashtbl.replace began (dom, name) rest;
            Printf.eprintf "[%7.3fs d%d] < %s (%.3fs)\n%!" rel dom name (t -. b)
        | _ -> Printf.eprintf "[%7.3fs d%d] < %s\n%!" rel dom name);
        Mutex.unlock m
    | _ -> ()

(* The run session verify, flow and hier share: [session f] runs [f] on
   the verdict store (when --cache-dir is given) and exits with the code
   [f] returns.  The trace file is opened before any work, so an unwritable
   path exits 1 up front; the sink is on when any observability flag is
   given.  This is the one exit path: close the store, write the trace and
   the summary, exit. *)
let session_arg =
  let session cache_dir trace verbose summary f : unit =
    let trace =
      Option.map
        (fun path -> try (path, open_out path) with Sys_error msg -> fail msg)
        trace
    in
    let observed = trace <> None || verbose || summary in
    if observed then begin
      Obs.enable ();
      if verbose then Obs.set_hook (Some (live_hook ()))
    end;
    let store = Option.map open_store cache_dir in
    let code = f store in
    Option.iter Store.close store;
    if observed then begin
      Obs.set_hook None;
      let events = Obs.collect () in
      Option.iter
        (fun (path, oc) ->
          Obs.Chrome.write oc events;
          close_out oc;
          Format.eprintf "trace written to %s (open in ui.perfetto.dev)@." path)
        trace;
      if summary then Format.printf "%a@." Obs.Summary.pp events;
      Obs.disable ()
    end;
    exit code
  in
  Term.(const session $ cache_dir_arg $ trace_arg $ verbose_arg $ obs_stats_arg)

(* ---- stats ---- *)

let stats_cmd =
  let run path =
    let c = load path in
    Format.printf "%a@." Circuit.stats_pp c;
    let analyses = Feedback.analyze c in
    let fb = List.filter (fun a -> a.Feedback.in_cycle) analyses in
    let self = List.filter (fun a -> a.Feedback.self_feedback) analyses in
    let unate = List.filter (fun a -> a.Feedback.self_feedback && a.Feedback.positive_unate) analyses in
    Format.printf "latches on cycles: %d, self-feedback: %d, positive-unate: %d@."
      (List.length fb) (List.length self) (List.length unate);
    let enabled =
      List.length
        (List.filter (fun l -> snd (Circuit.latch_info c l) <> None) (Circuit.latches c))
    in
    Format.printf "load-enabled latches: %d@." enabled
  in
  let term = Term.(const run $ circuit_arg ~pos:0 ~doc:"Input netlist (or @suite-name).") in
  Cmd.v (Cmd.info "stats" ~doc:"Print size, timing and feedback statistics.") term

(* ---- expose ---- *)

let expose_cmd =
  let run path functional =
    let c = load path in
    let plan = if functional then Feedback.plan_functional c else Feedback.plan_structural c in
    Format.printf "exposed %d of %d latches:@." (List.length plan.Feedback.exposed)
      (Circuit.latch_count c);
    List.iter (fun l -> Format.printf "  %s@." (Circuit.signal_name c l)) plan.Feedback.exposed;
    if plan.Feedback.converted <> [] then begin
      Format.printf "convertible to load-enabled (positive unate, Lemma 6.1):@.";
      List.iter
        (fun l -> Format.printf "  %s@." (Circuit.signal_name c l))
        plan.Feedback.converted
    end
  in
  let functional =
    Arg.(value & flag & info [ "functional" ] ~doc:"Use the unateness-aware analysis.")
  in
  let term = Term.(const run $ circuit_arg ~pos:0 ~doc:"Input netlist." $ functional) in
  Cmd.v
    (Cmd.info "expose" ~doc:"Compute the latch exposure plan (minimum feedback vertex set).")
    term

(* ---- synth ---- *)

let synth_cmd =
  let run path out =
    let c = load path in
    let o = Synth_script.delay_script c in
    Format.printf "before: %a@.after:  %a@." Circuit.stats_pp c Circuit.stats_pp o;
    Option.iter (fun p -> save p o) out
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write result.")
  in
  let term = Term.(const run $ circuit_arg ~pos:0 ~doc:"Input netlist." $ out) in
  Cmd.v (Cmd.info "synth" ~doc:"Run the delay-oriented synthesis script (Fig. 17).") term

(* ---- retime ---- *)

let retime_cmd =
  let run path out period min_area exposed =
    let c = load path in
    let diagnose = function Ok x -> x | Error d -> fail (Seqprob.diagnosis_to_string d) in
    diagnose (Flow.regular_latches_only c);
    let exposed = diagnose (Verify.exposed_pred c exposed) in
    (* Retime's other preconditions (a latch total or W/D path keys that
       overflow an int) are diagnoses too *)
    let o, report =
      try
        match (period, min_area) with
        | Some p, _ -> (
            match Retime.constrained_min_area ~exposed ~period:p c with
            | Ok r -> r
            | Error Retime.Infeasible_period ->
                fail
                  (Seqprob.diagnosis_to_string
                     (Seqprob.Infeasible_period { circuit = Circuit.name c; period = p })))
        | None, true -> Retime.min_area ~exposed c
        | None, false -> Retime.min_period ~exposed c
      with Invalid_argument msg -> fail msg
    in
    Format.printf "period %d -> %d, latches %d -> %d@." report.Retime.period_before
      report.Retime.period_after report.Retime.latches_before report.Retime.latches_after;
    Option.iter (fun p -> save p o) out
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write result.")
  in
  let period =
    Arg.(
      value
      & opt (some int) None
      & info [ "period" ] ~docv:"N" ~doc:"Minimize latches under this clock period.")
  in
  let min_area =
    Arg.(value & flag & info [ "min-area" ] ~doc:"Minimize latches with no period bound.")
  in
  let term =
    Term.(
      const run $ circuit_arg ~pos:0 ~doc:"Input netlist." $ out $ period $ min_area
      $ exposed_arg)
  in
  Cmd.v (Cmd.info "retime" ~doc:"Retime (min-period by default).") term

(* ---- verify ---- *)

let verify_cmd =
  let run p1 p2 engine exposed no_rewrite guard jobs timeout sat_conflicts
      session =
    let c1 = load p1 in
    let c2 = load p2 in
    session @@ fun store ->
    let limits = limits_of timeout sat_conflicts in
    match
      Verify.check ~engine ~jobs ~limits ?cache:(store_cache store)
        ~rewrite_events:(not no_rewrite) ~guard_events:guard ~exposed c1 c2
    with
    | Error d ->
        Format.eprintf "error: %s@." (Seqprob.diagnosis_to_string d);
        1
    | Ok outcome -> (
        let stats = outcome.Verify.stats in
        let method_ =
          match stats.Verify.method_ with
          | Verify.Cbf_method -> "CBF"
          | Verify.Edbf_method -> "EDBF"
        in
        (match outcome.Verify.verdict with
        | Verify.Equivalent -> Format.printf "EQUIVALENT@."
        | Verify.Inequivalent (Some cex) ->
            Format.printf "NOT EQUIVALENT@.counterexample:@.";
            List.iter
              (fun (v, b) ->
                Format.printf "  %s = %b@." (Seqprob.Var.to_string v) b)
              cex
        | Verify.Inequivalent None ->
            Format.printf "NOT EQUIVALENT (conservative EDBF check; may be a false negative)@."
        | Verify.Undecided reason -> Format.printf "UNDECIDED (%s)@." reason);
        Format.printf
          "method %s, depth %d, %d variables, %d events, %d unrolled AIG nodes, %d+%d unrolled gates, %.3fs@."
          method_ stats.Verify.depth stats.Verify.variables stats.Verify.events
          stats.Verify.unrolled_nodes
          (fst stats.Verify.unrolled_gates)
          (snd stats.Verify.unrolled_gates)
          stats.Verify.seconds;
        Format.printf "cec: %a@." Cec.stats_pp stats.Verify.cec;
        match outcome.Verify.verdict with
        | Verify.Equivalent -> 0
        | Verify.Inequivalent _ -> 1
        | Verify.Undecided _ -> 2)
  in
  let no_rewrite =
    Arg.(value & flag & info [ "no-rewrite" ] ~doc:"Disable the rule-(5) event rewrite.")
  in
  let guard =
    Arg.(
      value & flag
      & info [ "guard-events" ]
          ~doc:"Apply the event-consistency refinement (fewer EDBF false negatives).")
  in
  let term =
    Term.(
      const run
      $ circuit_arg ~pos:0 ~doc:"First netlist."
      $ circuit_arg ~pos:1 ~doc:"Second netlist."
      $ engine_arg $ exposed_arg $ no_rewrite $ guard $ jobs_arg $ timeout_arg
      $ sat_conflicts_arg $ session_arg)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Check sequential equivalence through the combinational reduction.")
    term

(* ---- baseline ---- *)

let baseline_cmd =
  let run p1 p2 budget =
    let c1 = load p1 and c2 = load p2 in
    let v, stats = Sec_baseline.check ~node_limit:budget c1 c2 in
    (match v with
    | Sec_baseline.Equivalent -> Format.printf "EQUIVALENT (reset equivalence)@."
    | Sec_baseline.Inequivalent -> Format.printf "NOT EQUIVALENT (reset equivalence)@."
    | Sec_baseline.Resource_out why -> Format.printf "GAVE UP: %s@." why);
    Format.printf "image steps %d, peak BDD nodes %d, recurrent product states %.0f, %.3fs@."
      stats.Sec_baseline.steps stats.Sec_baseline.peak_nodes
      stats.Sec_baseline.product_states stats.Sec_baseline.seconds
  in
  let budget =
    Arg.(
      value
      & opt int 2_000_000
      & info [ "node-budget" ] ~docv:"N" ~doc:"BDD node budget before giving up.")
  in
  let term =
    Term.(
      const run
      $ circuit_arg ~pos:0 ~doc:"First netlist."
      $ circuit_arg ~pos:1 ~doc:"Second netlist."
      $ budget)
  in
  Cmd.v
    (Cmd.info "baseline"
       ~doc:"Classical product-machine traversal (for comparison; may explode).")
    term

(* ---- redundancy ---- *)

let redundancy_cmd =
  let run path out =
    let c = load path in
    let o, report = Redundancy.run c in
    Format.printf "removed %d redundant connections (%d SAT calls), area %d -> %d@."
      report.Redundancy.removed report.Redundancy.sat_calls report.Redundancy.area_before
      report.Redundancy.area_after;
    Option.iter (fun p -> save p o) out
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write result.")
  in
  let term = Term.(const run $ circuit_arg ~pos:0 ~doc:"Input netlist." $ out) in
  Cmd.v (Cmd.info "redundancy" ~doc:"SAT-based redundancy removal.") term

(* ---- flow ---- *)

let flow_cmd =
  let run path jobs period timeout sat_conflicts session =
    let c = load path in
    session @@ fun store ->
    let limits = limits_of timeout sat_conflicts in
    match Flow.run ~jobs ~limits ?cache:(store_cache store) ?period c with
    | Error d ->
        Format.eprintf "error: %s@." (Seqprob.diagnosis_to_string d);
        1
    | Ok row ->
        Format.printf
          "%s: A(l=%d d=%d) exposed=%d(%.0f%%) C(l=%d a=%d d=%d) D(a=%d d=%d) E(l=%d) F(l=%d d=%d) verify=%s %.2fs@."
          row.Flow.name row.Flow.a.Flow.latches row.Flow.a.Flow.delay row.Flow.exposed
          row.Flow.exposed_percent row.Flow.c.Flow.latches row.Flow.c.Flow.area
          row.Flow.c.Flow.delay row.Flow.d.Flow.area row.Flow.d.Flow.delay
          row.Flow.e.Flow.latches row.Flow.f.Flow.latches row.Flow.f.Flow.delay
          (match row.Flow.verify_verdict with
          | Verify.Equivalent -> "EQ"
          | Verify.Inequivalent _ -> "NEQ"
          | Verify.Undecided _ -> "UNDEC")
          row.Flow.verify_stats.Verify.seconds;
        0
  in
  let period =
    Arg.(
      value
      & opt (some int) None
      & info [ "period" ] ~docv:"N"
          ~doc:
            "Clock-period target for the area-constrained retimings E and G \
             (default: the delay of the combinationally synthesized D).  A \
             period below the minimum feasible one is an error.")
  in
  let term =
    Term.(
      const run $ circuit_arg ~pos:0 ~doc:"Input netlist." $ jobs_arg $ period
      $ timeout_arg $ sat_conflicts_arg $ session_arg)
  in
  Cmd.v (Cmd.info "flow" ~doc:"Run the full Fig. 19 experimental flow.") term

(* ---- cache ---- *)

let cache_cmd =
  let dir_arg =
    Arg.(
      value
      & pos 0 string Store.default_dir
      & info [] ~docv:"DIR"
          ~doc:"Verdict-store directory (as passed to the verify and flow \
                commands' $(b,--cache-dir)).")
  in
  let with_store f dir =
    let st = open_store dir in
    Fun.protect ~finally:(fun () -> Store.close st) (fun () -> f st)
  in
  let print dir st = Format.printf "%s: %a@." dir Store.pp_info (Store.info st) in
  let stats_c =
    let run dir = with_store (print dir) dir in
    Cmd.v
      (Cmd.info "stats"
         ~doc:"Print verdict-store statistics (entries, size, quarantine).")
      Term.(const run $ dir_arg)
  in
  let compact_c =
    let run dir =
      with_store
        (fun st ->
          Store.compact st;
          print dir st)
        dir
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:
           "Merge records appended by other processes, evict \
            least-recently-hit entries over capacity and atomically rewrite \
            the log.")
      Term.(const run $ dir_arg)
  in
  let clear_c =
    let run dir =
      with_store
        (fun st ->
          Store.clear st;
          print dir st)
        dir
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Drop every stored verdict.")
      Term.(const run $ dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:"Manage a persistent verdict store (see verify --cache-dir).")
    [ stats_c; compact_c; clear_c ]

(* ---- generate ---- *)

let generate_cmd =
  let run name out =
    let c = match Workloads.lookup name with Ok c -> c | Error msg -> fail msg in
    match out with
    | Some p -> save p c
    | None -> print_string (Netlist_io.to_string c)
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME" ~doc:"Suite circuit name.")
  in
  let out =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write netlist.")
  in
  let term = Term.(const run $ name_arg $ out) in
  Cmd.v (Cmd.info "generate" ~doc:"Emit a benchmark-suite circuit as a netlist.") term

(* ---- hier ---- *)

let hier_cmd =
  let run name list_only flat engine jobs timeout sat_conflicts session =
    let suite = Workloads.hier_suite () in
    if list_only then begin
      List.iter
        (fun (n, (dl : Hier.design), (dr : Hier.design), expected) ->
          Format.printf "%-10s %s vs %s  (%d modules, expected %s)@." n
            dl.Hier.design_name dr.Hier.design_name
            (List.length dl.Hier.modules)
            (match expected with
            | `Eq -> "EQ"
            | `Neq m -> Printf.sprintf "NEQ in %s" m))
        suite;
      exit 0
    end;
    let name =
      match name with
      | Some n -> n
      | None -> fail "a PAIR name is required (or use --list)"
    in
    let dl, dr =
      match List.find_opt (fun (n, _, _, _) -> n = name) suite with
      | Some (_, dl, dr, _) -> (dl, dr)
      | None ->
          fail
            (Printf.sprintf "unknown hier pair %S (have: %s)" name
               (String.concat ", " (List.map (fun (n, _, _, _) -> n) suite)))
    in
    session @@ fun store ->
    let limits = limits_of timeout sat_conflicts in
    if flat then begin
      (* monolithic reference: flatten both designs and run one Verify.check *)
      let c1 = Hier.flatten dl and c2 = Hier.flatten dr in
      let exposed =
        List.map (Circuit.signal_name c1)
          (Feedback.plan_structural c1).Feedback.exposed
      in
      match
        Verify.check ~engine ~jobs ~limits ?cache:(store_cache store) ~exposed
          c1 c2
      with
      | Error d ->
          Format.eprintf "error: %s@." (Seqprob.diagnosis_to_string d);
          1
      | Ok o -> (
          (match o.Verify.verdict with
          | Verify.Equivalent -> Format.printf "EQUIVALENT (flat)@."
          | Verify.Inequivalent _ -> Format.printf "NOT EQUIVALENT (flat)@."
          | Verify.Undecided reason ->
              Format.printf "UNDECIDED (flat: %s)@." reason);
          Format.printf "%.3fs@." o.Verify.stats.Verify.seconds;
          match o.Verify.verdict with
          | Verify.Equivalent -> 0
          | Verify.Inequivalent _ -> 1
          | Verify.Undecided _ -> 2)
    end
    else begin
      let r = Hier.check ~engine ~jobs ~limits ?store dl dr in
      Format.printf "%-12s %-9s %-6s %-8s %s@." "MODULE" "MODE" "SRC"
        "VERDICT" "SECONDS";
      List.iter
        (fun (m : Hier.module_report) ->
          Format.printf "%-12s %-9s %-6s %-8s %.3f@." m.Hier.rm_module
            (match m.Hier.rm_mode with
            | Hier.Leaf -> "leaf"
            | Hier.Blackbox -> "blackbox"
            | Hier.Flat -> "flat")
            (match m.Hier.rm_source with
            | Hier.Checked -> "check"
            | Hier.Store_hit -> "store")
            (match m.Hier.rm_verdict with
            | Hier.M_equivalent -> "EQ"
            | Hier.M_inequivalent -> "NEQ"
            | Hier.M_undecided _ -> "UNDEC")
            m.Hier.rm_seconds)
        r.Hier.modules;
      Format.printf
        "%d store hits, %d checked, %d flat fallbacks, %.3fs@."
        r.Hier.store_hits r.Hier.checked r.Hier.flat_fallbacks r.Hier.seconds;
      match r.Hier.verdict with
      | Hier.Equivalent ->
          Format.printf "EQUIVALENT@.";
          0
      | Hier.Inequivalent { offending; cex } ->
          Format.printf "NOT EQUIVALENT: module %s@." offending;
          (match cex with
          | Some cex ->
              Format.printf "counterexample:@.";
              List.iter
                (fun (v, b) ->
                  Format.printf "  %s = %b@." (Seqprob.Var.to_string v) b)
                cex
          | None -> ());
          1
      | Hier.Undecided { module_; reason } ->
          Format.printf "UNDECIDED at module %s (%s)@." module_ reason;
          2
    end
  in
  let name_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"PAIR"
          ~doc:"Hierarchical suite pair name (see $(b,--list)).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List the hierarchical suite pairs and exit.")
  in
  let flat_arg =
    Arg.(
      value & flag
      & info [ "flat" ]
          ~doc:
            "Flatten both designs and run one monolithic check instead of \
             the compositional planner (reference verdict / timing).")
  in
  let term =
    Term.(
      const run $ name_arg $ list_arg $ flat_arg $ engine_arg $ jobs_arg
      $ timeout_arg $ sat_conflicts_arg $ session_arg)
  in
  Cmd.v
    (Cmd.info "hier"
       ~doc:
         "Compositional sequential equivalence on a hierarchical design \
          pair: leaves first, parents with verified submodules black-boxed, \
          per-module verdicts reused through the store (--cache-dir).")
    term

(* ---- serve ---- *)

let socket_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (created by serve, dialed by client).")

let serve_cmd =
  let run socket executors jobs max_pending timeout sat_conflicts cache_dir
      engine metrics_addr trace_sample slow_ms =
    let cfg =
      {
        Server.socket_path = socket;
        executors;
        pool_jobs = jobs;
        max_pending;
        limits = limits_of timeout sat_conflicts;
        engine;
        cache_dir;
        metrics_addr;
        trace_sample;
        slow_ms = (if slow_ms < 0. then infinity else slow_ms);
      }
    in
    let t = Server.create cfg in
    (* graceful drain: finish everything admitted, flush the store, exit 0 *)
    let on_signal _ = Server.request_stop t in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal);
    Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
    Format.eprintf
      "seqver serve: listening on %s (%d executors, pool of %d jobs, %d \
       pending max)@."
      socket executors jobs max_pending;
    (match Server.metrics_port t with
    | Some p -> Format.eprintf "seqver serve: metrics on port %d@." p
    | None -> ());
    Server.run t;
    Format.eprintf "seqver serve: drained@."
  in
  let executors =
    Arg.(
      value & opt int 2
      & info [ "executors" ] ~docv:"N"
          ~doc:"Concurrent checks (worker domains draining the queue).")
  in
  let max_pending =
    Arg.(
      value & opt int 64
      & info [ "max-pending" ] ~docv:"N"
          ~doc:
            "Admission bound: requests queued beyond this are shed \
             immediately with verdict UNDECIDED, reason \"busy\".")
  in
  let metrics_addr =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-addr" ] ~docv:"ADDR"
          ~doc:
            "Serve HTTP GET /metrics (Prometheus text exposition) on this \
             TCP address (host:port, :port or port; port 0 picks one).")
  in
  let trace_sample =
    Arg.(
      value & opt int 0
      & info [ "trace-sample" ] ~docv:"N"
          ~doc:
            "Capture every Nth check's span tree into the trace ring \
             (op trace); 0 disables periodic sampling.")
  in
  let slow_ms =
    Arg.(
      value & opt float 500.
      & info [ "slow-ms" ] ~docv:"MS"
          ~doc:
            "Checks at least this slow always enter the trace ring and the \
             stats slow-request log; negative disables the slow path.")
  in
  let term =
    Term.(
      const run $ socket_arg $ executors $ jobs_arg $ max_pending $ timeout_arg
      $ sat_conflicts_arg $ cache_dir_arg $ engine_arg $ metrics_addr
      $ trace_sample $ slow_ms)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the long-lived verification server: concurrent checks over a \
          line-delimited JSON protocol, one shared domain pool and verdict \
          cache, SIGTERM-drained.")
    term

(* ---- client ---- *)

let client_cmd =
  let retries_arg =
    Arg.(
      value & opt int 50
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Connection retries at 100 ms intervals (lets scripts dial a \
             daemon that is still starting).")
  in
  let with_client socket retries f =
    let c =
      try Server.Client.connect ~retries socket
      with Unix.Unix_error (e, _, _) ->
        fail
          (Printf.sprintf "cannot connect to %s: %s" socket
             (Unix.error_message e))
    in
    Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f c)
  in
  let roundtrip c req =
    match Server.Client.request c req with
    | r -> r
    | exception End_of_file -> fail "server hung up"
  in
  (* "@name" goes over the wire as a suite reference; a file is loaded and
     sent inline in Netlist_io form (normalizing .blif on the way) *)
  let wire_circuit path =
    if String.length path > 0 && path.[0] = '@' then path
    else Netlist_io.to_string (load path)
  in
  (* one request with no arguments; the reply goes to stdout as one JSON
     line, and a reply that is not ok exits 1 *)
  let op_c op ~doc =
    let run socket retries =
      with_client socket retries @@ fun c ->
      let r = roundtrip c (Sjson.Obj [ ("op", Sjson.String op) ]) in
      print_endline (Sjson.to_string r);
      if Option.bind (Sjson.member "ok" r) Sjson.get_bool <> Some true then
        exit 1
    in
    Cmd.v (Cmd.info op ~doc) Term.(const run $ socket_arg $ retries_arg)
  in
  let ping_c =
    op_c "ping" ~doc:"Round-trip a ping; exit 0 when the server answers."
  in
  let stats_c =
    op_c "stats" ~doc:"Scrape live server/Obs/store counters as one JSON line."
  in
  let metrics_c =
    let run socket retries =
      with_client socket retries @@ fun c ->
      let r = roundtrip c (Sjson.Obj [ ("op", Sjson.String "metrics") ]) in
      match
        ( Option.bind (Sjson.member "ok" r) Sjson.get_bool,
          Option.bind (Sjson.member "metrics" r) Sjson.get_string )
      with
      | Some true, Some text -> print_string text
      | _ ->
          print_endline (Sjson.to_string r);
          exit 1
    in
    Cmd.v
      (Cmd.info "metrics"
         ~doc:
           "Print the server's Prometheus text exposition (the same payload \
            GET /metrics serves) — for socket-only deployments.")
      Term.(const run $ socket_arg $ retries_arg)
  in
  let trace_c =
    op_c "trace"
      ~doc:
        "Dump the server's trace ring (sampled and slow requests, with span \
         trees) as one JSON line."
  in
  let check_c =
    let run socket retries p1 p2 exposed no_expose engine timeout sat_conflicts
        jobs =
      (* load in argument order, so a bad first netlist is the one reported *)
      let left = wire_circuit p1 in
      let right = wire_circuit p2 in
      let fields =
        [
          ("id", Sjson.Int (Unix.getpid ()));
          ("op", Sjson.String "check");
          ("left", Sjson.String left);
          ("right", Sjson.String right);
        ]
        @ (match (exposed, no_expose) with
          | [], false -> [ ("exposed", Sjson.String "auto") ]
          | [], true -> [ ("exposed", Sjson.List []) ]
          | names, _ ->
              [
                ( "exposed",
                  Sjson.List (List.map (fun n -> Sjson.String n) names) );
              ])
        @ [ ("engine", Sjson.String (Cec.engine_name engine)) ]
        @ (match timeout with
          | Some s -> [ ("timeout", Sjson.Float s) ]
          | None -> [])
        @ (match sat_conflicts with
          | Some n -> [ ("sat_conflicts", Sjson.Int n) ]
          | None -> [])
        @ match jobs with Some n -> [ ("jobs", Sjson.Int n) ] | None -> []
      in
      with_client socket retries @@ fun c ->
      let r = roundtrip c (Sjson.Obj fields) in
      print_endline (Sjson.to_string r);
      (* same exit codes as the one-shot verify command *)
      match
        ( Option.bind (Sjson.member "ok" r) Sjson.get_bool,
          Option.bind (Sjson.member "verdict" r) Sjson.get_string )
      with
      | Some true, Some "equivalent" -> ()
      | Some true, Some "inequivalent" -> exit 1
      | Some true, Some "undecided" -> exit 2
      | _ -> exit 1
    in
    let no_expose =
      Arg.(
        value & flag
        & info [ "no-expose" ]
            ~doc:
              "Send an empty exposure list instead of the server's \
               structural-plan default.")
    in
    let req_jobs =
      Arg.(
        value
        & opt (some int) None
        & info [ "j"; "jobs" ] ~docv:"N"
            ~doc:"Narrow this request's pool parallelism.")
    in
    Cmd.v
      (Cmd.info "check"
         ~doc:
           "Submit one equivalence check; prints the response JSON and exits \
            0/1/2 for EQUIVALENT/NOT EQUIVALENT/UNDECIDED.")
      Term.(
        const run $ socket_arg $ retries_arg
        $ circuit_arg ~pos:0 ~doc:"First netlist (or @suite-name)."
        $ circuit_arg ~pos:1 ~doc:"Second netlist (or @suite-name)."
        $ exposed_arg $ no_expose $ engine_arg $ timeout_arg
        $ sat_conflicts_arg $ req_jobs)
  in
  Cmd.group
    (Cmd.info "client" ~doc:"Talk to a running seqver serve daemon.")
    [ check_c; stats_c; metrics_c; trace_c; ping_c ]

let () =
  let doc = "sequential verification by combinational reduction (DATE'99 reproduction)" in
  let info = Cmd.info "seqver" ~version:"1.0.0" ~doc in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [ stats_cmd; expose_cmd; synth_cmd; retime_cmd; verify_cmd; baseline_cmd; redundancy_cmd; flow_cmd; cache_cmd; generate_cmd; hier_cmd; serve_cmd; client_cmd ]))
