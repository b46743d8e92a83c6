(* The traced replay: the run's generated inputs pushed through the same
   public calls the untraced path makes (Flow.run's stage order for
   flow_table1, Verify.check's CBF path for verify_large, the server's
   request path for serve_mix), in this process, on one Par.Pool of 2
   jobs, with one span per call.  The program's own Obs tracing stays
   off; Obs counters are switched on only to read the counts the program
   already keeps. *)

let span = Spans.span
let get = function Ok x -> x | Error d -> failwith (Seqprob.diagnosis_to_string d)

(* counts gathered along the replay *)
let parse_bytes = ref 0
let exposed_latches = ref 0
let gates_out = ref 0
let aig_nodes = ref 0
let cec_stats : Cec.stats list ref = ref []

let parse text =
  parse_bytes := !parse_bytes + String.length text;
  span "circuit.parse" (fun () -> Netlist_io.parse text)

let plan c =
  let p = span "feedback.plan" (fun () -> Feedback.plan_structural c) in
  exposed_latches := !exposed_latches + List.length p.Feedback.exposed;
  List.map (Circuit.signal_name c) p.Feedback.exposed

let synth c =
  let s = span "synth" (fun () -> Synth_script.delay_script c) in
  gates_out := !gates_out + List.length (Circuit.gates s);
  s

let exposed_pred c names = span "verify.exposed_pred" (fun () -> get (Verify.exposed_pred c names))

let verdict_name = function
  | Cec.Equivalent -> "EQ"
  | Cec.Inequivalent _ -> "NEQ"
  | Cec.Undecided _ -> "UNDEC"

(* Verify.check on the CBF path: unroll both sides into one shared
   Seqprob graph, seal the problem, run the combinational check. *)
let verify ~pool ?cache ~exposed c1 c2 =
  let ex1 = exposed_pred c1 exposed in
  let ex2 = exposed_pred c2 exposed in
  let b = Seqprob.builder () in
  let o1, _ = span "cbf.unroll" (fun () -> get (Cbf.unroll ~exposed:ex1 b c1)) in
  let o2, _ = span "cbf.unroll" (fun () -> get (Cbf.unroll ~exposed:ex2 b c2)) in
  let p = span "cbf.problem" (fun () -> get (Seqprob.problem b ~outs1:o1 ~outs2:o2)) in
  aig_nodes := !aig_nodes + Seqprob.and_nodes p;
  let v, st =
    span "cec.check" (fun () ->
        Cec.check_problem_with_stats ~engine:Cec.Sweep_engine ~jobs:2 ~pool
          ~limits:Cec.no_limits ?cache p)
  in
  cec_stats := st :: !cec_stats;
  (verdict_name v, st)

type row = {
  name : string;
  seconds : float;
  verdict : string;
  stats : Cec.stats;
  summary : string;  (* flow_table1: the CLI's summary line minus its time *)
}

let print_row r =
  Printf.printf "traced %-14s %9.4fs %-5s sat_calls=%d partitions=%d\n" r.name r.seconds
    r.verdict r.stats.Cec.sat_calls r.stats.Cec.partitions

let timed_check id name f =
  let t0 = Obs.Clock.now () in
  let verdict, stats, summary = Spans.check id f in
  { name; seconds = Obs.Clock.now () -. t0; verdict; stats; summary }

(* ---- flow_table1: Flow.run, stage by stage ---- *)

let min_period ~pool ~exposed sy =
  fst (span "retiming.min_period" (fun () -> Retime.min_period ~exposed ~pool sy))

(* the default period target (D's delay) degrades to min-period *)
let min_area ~pool ~exposed ~period sy =
  match
    span "retiming.min_area" (fun () ->
        Retime.constrained_min_area ~exposed ~pool ~period sy)
  with
  | Ok (rt, _) -> rt
  | Error Retime.Infeasible_period -> min_period ~pool ~exposed sy

let flow_one ~pool (inp : Inputs.flow_input) =
  let a = parse inp.Inputs.f_text in
  Circuit.check a;
  let names = plan a in
  let b = Circuit.copy ~name:(Circuit.name a ^ "_B") a in
  List.iter
    (fun n ->
      match Circuit.find_signal b n with
      | Some s -> if not (Circuit.is_output b s) then Circuit.mark_output b s
      | None -> assert false)
    names;
  let d = synth a in
  let period = Circuit.delay d in
  let syb = synth b in
  let exb = exposed_pred syb names in
  let c = min_period ~pool ~exposed:exb syb in
  let e = min_area ~pool ~exposed:exb ~period syb in
  let sya = synth (Circuit.copy ~name:(Circuit.name a ^ "_F") a) in
  let exa = exposed_pred sya [] in
  let f = min_period ~pool ~exposed:exa sya in
  let (_ : Circuit.t) = min_area ~pool ~exposed:exa ~period sya in
  let verdict, st = verify ~pool ~exposed:names b c in
  let m = Flow.metrics_of in
  let ma = m a and mc = m c and md = m d and me = m e and mf = m f in
  let nl = Circuit.latch_count a in
  let pct =
    if nl = 0 then 0. else 100. *. float_of_int (List.length names) /. float_of_int nl
  in
  (* the line [seqver flow] prints, without its trailing time *)
  let summary =
    Printf.sprintf
      "%s: A(l=%d d=%d) exposed=%d(%.0f%%) C(l=%d a=%d d=%d) D(a=%d d=%d) E(l=%d) F(l=%d \
       d=%d) verify=%s"
      (Circuit.name a) ma.Flow.latches ma.Flow.delay (List.length names) pct
      mc.Flow.latches mc.Flow.area mc.Flow.delay md.Flow.area md.Flow.delay
      me.Flow.latches mf.Flow.latches mf.Flow.delay verdict
  in
  (verdict, st, summary)

let flow_table1 ~pool inputs =
  List.mapi
    (fun i inp -> timed_check (i + 1) inp.Inputs.f_name (fun () -> flow_one ~pool inp))
    inputs

(* ---- verify_large: [seqver verify --exposed=...] ---- *)

let verify_large ~pool inputs =
  List.mapi
    (fun i (inp : Inputs.verify_input) ->
      timed_check (i + 1) inp.Inputs.v_name (fun () ->
          let c1 = parse inp.Inputs.v_left_text in
          let c2 = parse inp.Inputs.v_right_text in
          let v, st = verify ~pool ~exposed:inp.Inputs.v_exposed c1 c2 in
          (v, st, "")))
    inputs

(* ---- serve_mix: the server's request path over a shared cache ---- *)

let store_open dir = span "store.open" (fun () -> Store.open_ dir)

let serve_one ~pool ~cache (inp : Inputs.serve_input) (r : Inputs.request) =
  let line = Inputs.line_of r in
  timed_check r.Inputs.id (fst inp.Inputs.pairs.(r.Inputs.pair)) (fun () ->
      let j = span "server.decode" (fun () -> Sjson.parse line) in
      let field k =
        match Sjson.member k j with Some (Sjson.String s) -> s | _ -> failwith k
      in
      let c1 = parse (field "left") in
      let c2 = parse (field "right") in
      let exposed = plan c1 in
      let v, st = verify ~pool ~cache ~exposed c1 c2 in
      (v, st, ""))

(* What one request did to the store. *)
type store_delta = { misses : int; writes : int }

(* Every request of the run, in order, through one Cec.Cache over a fresh
   Store in [store_dir]; returns each request's row and store delta, and
   the store's info at the end. *)
let serve_mix ~pool ~store_dir (inp : Inputs.serve_input) =
  let reqs =
    Array.to_list inp.Inputs.cold
    @ List.map snd (Array.to_list inp.Inputs.open_loop)
    @ Array.to_list inp.Inputs.closed
  in
  let st = store_open store_dir in
  Fun.protect
    ~finally:(fun () -> Store.close st)
    (fun () ->
      let cache = Cec.Cache.create ~store:st () in
      let rows =
        List.map
          (fun r ->
            let before = Store.info st in
            let row = serve_one ~pool ~cache inp r in
            let after = Store.info st in
            ( r,
              row,
              {
                misses = after.Store.misses - before.Store.misses;
                writes = after.Store.writes - before.Store.writes;
              } ))
          reqs
      in
      (rows, Store.info st))

(* ---- per-layer numbers ---- *)

let sum_stats f = List.fold_left (fun acc s -> acc +. f s) 0. !cec_stats
let isum f = sum_stats (fun s -> float_of_int (f s))
let ratio a b = if b = 0. then 0. else a /. b

let counter name =
  float_of_int (Option.value ~default:0 (List.assoc_opt name (Obs.Counters.snapshot ())))

let hist_sum name =
  match Obs.Histogram.find name with Some h -> h.Obs.Histogram.sum | None -> 0.

(* [server] carries the daemon's stats-op figures (serve_mix only),
   [store] the replay store's info, [qor] flow_table1's ratios, and
   [overhead] traced over untraced time of the same work, minus one. *)
let layer_metrics ~wall ~overhead ~server ~store ~qor =
  let self = Spans.self_times () in
  let s names = Spans.self_seconds self names in
  let covered = Spans.covered () in
  let partitions = isum (fun s -> s.Cec.partitions) in
  let sat_calls = isum (fun s -> s.Cec.sat_calls) in
  let conflicts = isum (fun s -> s.Cec.conflicts) in
  let kept = counter "minarea.constraints_kept" in
  let pruned = counter "minarea.constraints_pruned" in
  let st f = match store with Some i -> float_of_int (f i) | None -> 0. in
  let hits = st (fun i -> i.Store.hits) and misses = st (fun i -> i.Store.misses) in
  let qp, qa = Option.value ~default:(0., 0.) qor in
  [
    ("circuit.parse_s", s [ "circuit.parse" ]);
    ("circuit.parse_mb", float_of_int !parse_bytes /. 1e6);
    ("server.decode_s", s [ "server.decode" ]);
  ]
  @ server
  @ [
      ("feedback.plan_s", s [ "feedback.plan" ]);
      ("feedback.exposed", float_of_int !exposed_latches);
      ("synth.s", s [ "synth" ]);
      ("synth.gates_out", float_of_int !gates_out);
      ("qor_period_rel", qp);
      ("qor_area_rel", qa);
      ("retiming.min_period_s", s [ "retiming.min_period" ]);
      ("retiming.min_area_s", s [ "retiming.min_area" ]);
      ("retiming.feas_rounds", counter "feas.rounds");
      ("retiming.feas_relabels", counter "feas.relabels");
      ("retiming.minarea_pruned_frac", ratio pruned (kept +. pruned));
      ("retiming.flow_augmentations", counter "flow.augmentations");
      ("cbf.unroll_s", s [ "cbf.unroll"; "cbf.problem" ]);
      ("cbf.aig_nodes", float_of_int !aig_nodes);
      ("cec.s", s [ "cec.check" ]);
      ("cec.partition_s", sum_stats (fun s -> s.Cec.partition_seconds));
      ("cec.partitions", partitions);
      ("cec.sweep_cpu_s", sum_stats (fun s -> s.Cec.sweep_seconds));
      ("cec.sat_cpu_s", sum_stats (fun s -> s.Cec.sat_seconds));
      ("cec.sim_rounds", isum (fun s -> s.Cec.sim_rounds));
      ( "cec.hit_ratio",
        ratio (isum (fun s -> s.Cec.cache_hits + s.Cec.store_hits)) partitions );
      ("cec.undecided", isum (fun s -> s.Cec.undecided));
      ("sat.calls", sat_calls);
      ("sat.conflicts", conflicts);
      ("sat.conflicts_per_call", ratio conflicts sat_calls);
      ("store.open_s", s [ "store.open" ]);
      ("store.hits", hits);
      ("store.misses", misses);
      ("store.writes", st (fun i -> i.Store.writes));
      ("store.hit_ratio", ratio hits (hits +. misses));
      ("store.log_bytes", st (fun i -> i.Store.file_bytes));
      ("par.queue_wait_s", hist_sum "pool.queue_wait_seconds");
      ("par.task_run_s", hist_sum "pool.task_run_seconds");
      ("trace.unattributed_frac", 1. -. ratio covered wall);
      ("trace.overhead_frac", overhead);
    ]

(* Runs [f pool] with counters reset and on, spans reset; returns its
   result and the replay's wall time. *)
let with_replay f =
  Spans.reset ();
  parse_bytes := 0;
  exposed_latches := 0;
  gates_out := 0;
  aig_nodes := 0;
  cec_stats := [];
  Obs.reset ();
  Obs.enable_counters ();
  (* each replay starts from a compacted heap, whatever ran before it *)
  Gc.compact ();
  Par.Pool.with_pool ~jobs:2 (fun pool ->
      let t0 = Obs.Clock.now () in
      let r = f pool in
      (r, Obs.Clock.now () -. t0))
