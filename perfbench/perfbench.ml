(* The repository benchmark.

     bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1

   Workloads (every input is a Hier.resynthesize variant chosen by the
   seed):
   - flow_table1: [seqver flow --jobs 2 FILE] per table-1 circuit — the
     paper's Fig. 19 pipeline, where retiming dominates;
   - verify_large: [seqver verify --jobs 2 --exposed=... A B] per large
     style pair, cold — cec and sat dominate;
   - serve_mix: a [seqver serve] daemon fed a 95% repeat / 5% fresh
     revision request stream — the request path and the store dominate.

   [--trace 0] runs untraced and reports the end-to-end metrics.
   [--trace 1] makes one untraced pass, replays the same inputs in this
   process with a span around every public layer call (replay.ml),
   checks that the replay reproduces the untraced results, and reports
   the per-layer metrics (serve_mix also replays with the spans off, the
   untraced side of trace.overhead_frac).  The last stdout line is one
   JSON object {correct, attempted, failed, metrics}; metric names and
   units come from BENCHMARK.json, which the output is checked against.
   Verdicts are compared with answers known by construction; a wrong
   verdict, UNDEC, error, shed request, timeout or unexpected exit code
   counts in [failed]. *)

let bin = "_build/default/bin/seqver_cli.exe"
let run_root = ".perfbench-run"

(* serve_mix shape.  The rate and the 95/5 mix (Inputs.fresh_window) are
   an assumed load, not measured traffic; BENCHMARK.json says so.  The
   open loop sends the whole blocks of requests (Inputs.serve_mix) that
   fit in the run's seconds at [open_rate], but at least [open_min], so
   that ten samples lie beyond p99: 1320 requests, 22 s, at --seconds 25.
   The cold set-ups and the closed loop (880 requests at --seconds 25)
   come on top. *)
let open_rate = 60.
let open_min = 1000
let closed_per_second = 36.
let setups = 5
let lateness_bound_ms = 50.

let die code fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit code)
    fmt

(* ---- result line ---- *)

let declared ~trace =
  let j =
    try Sjson.parse (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    with Sys_error e | Sjson.Parse_error e -> die 2 "BENCHMARK.json: %s" e
  in
  let key = if trace then "per_layer" else "end_to_end" in
  let str k m = Option.bind (Sjson.member k m) Sjson.get_string in
  match Option.bind (Sjson.member key j) Sjson.get_list with
  | None -> die 2 "BENCHMARK.json: no %s list" key
  | Some l ->
      List.map
        (fun m ->
          match (str "name" m, str "unit" m) with
          | Some n, Some u -> (n, u)
          | _ -> die 2 "BENCHMARK.json: malformed %s entry" key)
        l

let print_result ~trace ~attempted ~failed metrics =
  let decl = declared ~trace in
  List.iter
    (fun (n, _) -> if not (List.mem_assoc n decl) then die 2 "metric %s is not declared" n)
    metrics;
  let field (n, u) =
    match List.assoc_opt n metrics with
    | None -> die 2 "declared metric %s was not measured" n
    | Some v ->
        (* JSON has no infinity: an infinite tail (failed requests) prints
           as the largest double *)
        let v = if Float.is_finite v then v else Float.max_float in
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) attempted failed
    (String.concat ", " (List.map field decl))

(* ---- shared helpers ---- *)

let ms x = 1000. *. x

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* the daemon's own view, from its stats op (zero without a daemon) *)
let server_metrics stats =
  let v path = Option.value ~default:0. (Serve_run.stat stats path) in
  [
    ("server.queue_wait_p50_ms", v [ "queue_wait"; "p50_ms" ]);
    ("server.queue_wait_p99_ms", v [ "queue_wait"; "p99_ms" ]);
    ("server.latency_p50_ms", v [ "latency"; "p50_ms" ]);
    ("server.latency_p99_ms", v [ "latency"; "p99_ms" ]);
    ("server.shed", v [ "server"; "shed" ]);
    ("server.errors", v [ "server"; "errors" ]);
  ]

(* Store misses and writes of fresh revisions and of warm repeats (every
   request after the cold pass that is not fresh), from the traced
   replay's per-request store deltas; all zero without a store. *)
let store_split ~cold rows =
  let fresh, warm =
    List.partition
      (fun ((r : Inputs.request), _, _) -> r.Inputs.fresh)
      (List.filteri (fun i _ -> i >= cold) rows)
  in
  let sum f l = List.fold_left (fun a (_, _, d) -> a + f d) 0 l in
  let misses = sum (fun d -> d.Replay.misses) and writes = sum (fun d -> d.Replay.writes) in
  let wrote = List.length (List.filter (fun (_, _, d) -> d.Replay.writes > 0) fresh) in
  if rows <> [] then
    Printf.printf
      "store: %d fresh revisions, %d misses, %d writes, %d of them wrote; %d warm repeats, %d \
       misses, %d writes\n"
      (List.length fresh) (misses fresh) (writes fresh) wrote (List.length warm) (misses warm)
      (writes warm);
  let f = float_of_int in
  [
    ("store.fresh_misses", f (misses fresh));
    ("store.fresh_writes", f (writes fresh));
    ( "store.fresh_write_frac",
      if fresh = [] then 0. else f wrote /. f (List.length fresh) );
    ("store.warm_misses", f (misses warm));
    ("store.warm_writes", f (writes warm));
  ]

(* ---- flow_table1 / verify_large ---- *)

let qor_of rows =
  let p, a = List.split (List.map (fun r -> Cli_run.qor r.Cli_run.summary) rows) in
  (Bench_stats.geomean p, Bench_stats.geomean a)

(* Passes per CLI run, fixed by the run length and a nominal pass time on
   a 2-core machine, so that every commit measures the same inputs. *)
let cli_passes ~nominal seconds = max 2 (int_of_float (Float.round (seconds /. nominal)))

let cli_workload ~dir ~trace ~check ~replay ~flow sets =
  let passes = Cli_run.passes ~bin ~dir check sets in
  let rows = List.concat_map (fun p -> p.Cli_run.rows) passes in
  let lat = sorted (List.map (fun r -> ms r.Cli_run.seconds) rows) in
  Printf.printf "passes %d, check latency (ms): %s\n" (List.length passes)
    (Bench_stats.describe lat);
  let failed = List.length (List.filter (fun r -> not r.Cli_run.ok) rows) in
  if not trace then
    (* a pass at each check's median over the passes (variants): robust to
       one slow pass on a noisy machine *)
    let medians =
      List.mapi
        (fun i _ ->
          Bench_stats.median
            (List.map (fun p -> (List.nth p.Cli_run.rows i).Cli_run.seconds) passes))
        (List.hd sets)
    in
    let wall = List.fold_left ( +. ) 0. medians in
    let max_rss p = List.fold_left (fun m r -> max m r.Cli_run.rss_kb) 0 p.Cli_run.rows in
    ( List.length rows,
      failed,
      [
        ("setup_s", Bench_stats.median (List.concat_map (fun p -> p.Cli_run.startup) passes));
        ("wall_s", wall);
        ("check_geomean_s", Bench_stats.geomean (List.map (fun r -> r.Cli_run.seconds) rows));
        ( "peak_rss_mb",
          Bench_stats.median (List.map (fun p -> float_of_int (max_rss p) /. 1024.) passes) );
      ] )
  else begin
    let traced, wall = Replay.with_replay replay in
    List.iter Replay.print_row traced;
    Printf.printf "layer split: %s\n" (Spans.split ());
    (* the replay must reproduce every untraced verdict and, for flows,
       every number the CLI printed *)
    let mismatch (u : Cli_run.row) (t : Replay.row) =
      let bad = u.Cli_run.verdict <> t.Replay.verdict || u.Cli_run.summary <> t.Replay.summary in
      if bad then
        Printf.printf "replay mismatch on %s:\n  untraced %s %s\n  traced   %s %s\n"
          u.Cli_run.name u.Cli_run.verdict u.Cli_run.summary t.Replay.verdict t.Replay.summary;
      bad
    in
    let mismatches = List.length (List.filter Fun.id (List.map2 mismatch rows traced)) in
    (* the untraced side is the CLI's spawn-to-exit time, process start
       included *)
    let untraced = List.fold_left (fun a r -> a +. r.Cli_run.seconds) 0. rows in
    let pass_wall = List.fold_left (fun a p -> a +. p.Cli_run.wall) 0. passes in
    ( List.length rows + List.length traced,
      failed + mismatches,
      [
        ("req_p50_ms", Bench_stats.percentile lat 0.5);
        ("req_p99_ms", Bench_stats.percentile lat 0.99);
        ("closed_rps", float_of_int (List.length rows) /. pass_wall);
      ]
      @ store_split ~cold:0 []
      @ Replay.layer_metrics ~wall
          ~overhead:((Spans.checks_total () /. untraced) -. 1.)
          ~server:(server_metrics None) ~store:None
          ~qor:(if flow && failed = 0 then Some (qor_of rows) else None) )
  end

(* ---- serve_mix ---- *)

let serve_workload ~dir ~trace (inp : Inputs.serve_input) =
  let r = Serve_run.run ~bin ~dir ~setups:(if trace then 1 else setups) inp in
  let phases = r.Serve_run.cold @ [ r.Serve_run.open_; r.Serve_run.closed ] in
  let outcomes = List.concat_map (fun p -> Array.to_list p.Serve_run.outcomes) phases in
  let bad = List.filter (fun o -> o <> Serve_run.Ok_verdict) outcomes in
  List.iter
    (fun o -> Printf.printf "failed request: %s\n" (Serve_run.outcome_name o))
    (List.sort_uniq compare bad);
  (* the timed daemon saw its cold pass and both load phases *)
  let sent =
    Array.length inp.Inputs.cold + Array.length inp.Inputs.open_loop
    + Array.length inp.Inputs.closed
  in
  let reconciled, completed, shed = Serve_run.reconcile r ~sent in
  Printf.printf "accounting: sent %d = completed %d + shed %d: %b\n" sent completed shed
    reconciled;
  Printf.printf "drain: %s\n"
    (if r.Serve_run.drains_ok then "exit 0, socket removed" else "FAILED");
  let last_cold = List.nth r.Serve_run.cold (List.length r.Serve_run.cold - 1) in
  (* per-pair rows from the timed daemon's cold pass, where the engines run *)
  Array.iteri
    (fun i (req : Inputs.request) ->
      let name, expect = inp.Inputs.pairs.(req.Inputs.pair) in
      let verdict =
        match last_cold.Serve_run.outcomes.(i) with
        | Serve_run.Ok_verdict -> Inputs.expect_name expect
        | o -> "FAILED: " ^ Serve_run.outcome_name o
      in
      Printf.printf "row %-14s %9.4fs %-5s sat_calls=%d partitions=%d\n" name
        last_cold.Serve_run.latency.(i) verdict last_cold.Serve_run.sat_calls.(i)
        last_cold.Serve_run.partitions.(i))
    inp.Inputs.cold;
  let open_lat = sorted (Array.to_list (Array.map ms r.Serve_run.open_.Serve_run.latency)) in
  let late = sorted (Array.to_list (Array.map ms r.Serve_run.lateness)) in
  let closed_lat = Array.to_list r.Serve_run.closed.Serve_run.latency in
  Printf.printf "open loop at %g req/s, latency from due time (ms): %s\n" open_rate
    (Bench_stats.describe open_lat);
  Printf.printf "generator lateness (ms): %s\n" (Bench_stats.describe late);
  Printf.printf "closed loop: %d requests in %.3fs (%.1f req/s)\n" (List.length closed_lat)
    r.Serve_run.closed.Serve_run.wall
    (float_of_int (List.length closed_lat) /. r.Serve_run.closed.Serve_run.wall);
  Printf.printf "set-up (s): %s\n"
    (String.concat " " (List.map (Printf.sprintf "%.4f") r.Serve_run.setup_s));
  let late99 = Bench_stats.percentile late 0.99 in
  if late99 > lateness_bound_ms then
    die 1 "generator lateness p99 %.2f ms exceeds %.0f ms: load was not offered on time"
      late99 lateness_bound_ms;
  let failed =
    List.length bad + (if reconciled then 0 else 1) + if r.Serve_run.drains_ok then 0 else 1
  in
  let attempted = List.length outcomes in
  if not trace then
    ( attempted,
      failed,
      [
        ("setup_s", Bench_stats.median r.Serve_run.setup_s);
        ("wall_s", r.Serve_run.closed.Serve_run.wall);
        ("check_geomean_s", Bench_stats.geomean (List.filter Float.is_finite closed_lat));
        ("peak_rss_mb", float_of_int r.Serve_run.rss_kb /. 1024.);
      ] )
  else begin
    let replay k () =
      let store_dir = Filename.concat dir (Printf.sprintf "replay_store%d" k) in
      Replay.with_replay (fun pool -> Replay.serve_mix ~pool ~store_dir inp)
    in
    (* trace.overhead_frac compares like with like: the same replay with
       every span a plain call.  Traced, untraced, untraced, traced, so a
       steady drift in machine speed cancels; the last replay gives the
       per-layer numbers. *)
    let _, first = replay 0 () in
    let _, u1 = Spans.untraced (replay 1) in
    let _, u2 = Spans.untraced (replay 2) in
    let (traced, store), wall = replay 3 () in
    let cold = Array.length inp.Inputs.cold in
    List.iteri (fun i (_, row, _) -> if i < cold then Replay.print_row row) traced;
    let warm = Hashtbl.create 1024 in
    List.iteri
      (fun i ((req : Inputs.request), _, _) ->
        if i >= cold && not req.Inputs.fresh then Hashtbl.replace warm req.Inputs.id ())
      traced;
    Printf.printf "layer split, all requests: %s\n" (Spans.split ());
    Printf.printf "layer split, warm requests: %s\n" (Spans.split ~keep:(Hashtbl.mem warm) ());
    let mismatches =
      List.length
        (List.filter
           (fun ((req : Inputs.request), (row : Replay.row), _) ->
             row.Replay.verdict <> Inputs.expect_name (snd inp.Inputs.pairs.(req.Inputs.pair)))
           traced)
    in
    if mismatches > 0 then Printf.printf "replay: %d wrong verdicts\n" mismatches;
    Printf.printf "replay wall: traced %.3fs, untraced %.3fs %.3fs, traced %.3fs\n" first u1 u2
      wall;
    ( attempted + List.length traced,
      failed + mismatches,
      [
        ("req_p50_ms", Bench_stats.percentile open_lat 0.5);
        ("req_p99_ms", Bench_stats.percentile open_lat 0.99);
        ( "closed_rps",
          float_of_int (List.length closed_lat) /. r.Serve_run.closed.Serve_run.wall );
      ]
      @ store_split ~cold traced
      @ Replay.layer_metrics ~wall ~overhead:((first +. wall) /. (u1 +. u2) -. 1.)
          ~server:(server_metrics r.Serve_run.stats) ~store:(Some store) ~qor:None )
  end

(* ---- main ---- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME flow_table1, verify_large or serve_mix");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S measurement time per run");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
    ]
    (fun a -> die 2 "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let trace = !trace = 1 in
  if not (Sys.file_exists bin) then die 2 "%s not built" bin;
  (try Unix.mkdir run_root 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let dir = Filename.concat run_root (string_of_int (Unix.getpid ())) in
  Proc.remove_tree dir;
  Unix.mkdir dir 0o755;
  at_exit (fun () ->
      Proc.kill_all ();
      Proc.remove_tree dir;
      try Unix.rmdir run_root with Unix.Unix_error _ -> ());
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  (* a daemon that dies mid-run must fail its requests, not kill us *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let w = Inputs.writer dir in
  let seconds = float_of_int !seconds and seed = !seed in
  let attempted, failed, metrics =
    match !workload with
    | "flow_table1" ->
        let n = if trace then 1 else cli_passes ~nominal:8. seconds in
        let sets = List.init n (fun variant -> Inputs.flow_table1 w ~seed ~variant) in
        Printf.printf "inputs_md5 %s\n%!" (Inputs.hash w);
        cli_workload ~dir ~trace ~flow:true
          ~check:(Cli_run.flow_check ~bin ~dir)
          ~replay:(fun pool -> Replay.flow_table1 ~pool (List.hd sets))
          sets
    | "verify_large" ->
        let n = if trace then 1 else cli_passes ~nominal:10. seconds in
        let sets = List.init n (fun variant -> Inputs.verify_large w ~seed ~variant) in
        Printf.printf "inputs_md5 %s\n%!" (Inputs.hash w);
        cli_workload ~dir ~trace ~flow:false
          ~check:(Cli_run.verify_check ~bin ~dir)
          ~replay:(fun pool -> Replay.verify_large ~pool (List.hd sets))
          sets
    | "serve_mix" ->
        let open_n = int_of_float (open_rate *. seconds) in
        let closed_n = int_of_float (closed_per_second *. seconds) in
        let inp = Inputs.serve_mix w ~seed ~open_n ~open_min ~rate:open_rate ~closed_n in
        Printf.printf "inputs_md5 %s\n%!" (Inputs.hash w);
        serve_workload ~dir ~trace inp
    | other -> die 2 "unknown workload %S" other
  in
  if trace then begin
    let path = Filename.concat run_root (Printf.sprintf "%s-seed%d.spans.jsonl" !workload seed) in
    Spans.write path;
    Printf.printf "spans written to %s\n" path
  end;
  (* fail_frac is the result line's failed / attempted; as a metric it is
     per-layer only, since an end-to-end metric must never read 0 *)
  let metrics =
    if trace then ("fail_frac", float_of_int failed /. float_of_int attempted) :: metrics
    else metrics
  in
  print_result ~trace ~attempted ~failed metrics
