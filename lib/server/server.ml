(* The verification server.  See server.mli for the architecture; the
   short version of the concurrency story:

     main thread          accept loop (select, polls the stop flag)
     reader threads       one per connection; parse lines, answer
                          ping/stats inline, submit checks
     executor domains     [cfg.executors] of them; drain the admission
                          queue round-robin per connection and run each
                          check on the ONE shared Par.Pool
     shared Par.Pool      intra-check parallelism, concurrent submitters

   Scheduler state lives under one mutex [t.m]; per-connection write
   serialization under each connection's [wm].  Lock order: never hold
   [t.m] while taking a [wm] or doing I/O — every send happens after
   [t.m] is released, so the two levels never nest. *)

type config = {
  socket_path : string;
  executors : int;
  pool_jobs : int;
  max_pending : int;
  limits : Cec.limits;
  cache_dir : string option;
  metrics_addr : string option;
  trace_sample : int;
  slow_ms : float;
}

let default_config ~socket_path =
  {
    socket_path;
    executors = 2;
    pool_jobs = Par.cpu_count ();
    max_pending = 64;
    limits = Cec.default_limits;
    cache_dir = None;
    metrics_addr = None;
    trace_sample = 0;
    slow_ms = 500.;
  }

type conn = {
  cid : int;
  fd : Unix.file_descr;
  ic : in_channel;  (* reader thread only *)
  wm : Mutex.t;  (* serializes writes; guards [alive] *)
  mutable alive : bool;
}

type pending = {
  pconn : conn;
  req : Sjson.t;
  pseq : int;  (* 1-based admitted-check sequence number = trace id *)
  psub : float;  (* Clock.now at admission, for the queue-wait histogram *)
  pcapture : bool;  (* capture this request's span tree *)
}

(* What a response and a trace entry report about a decided or undecided
   check (error responses have none). *)
type checked = {
  ck_stats : Verify.stats;  (* zero but [method_] and [seconds] on a hit *)
  ck_memo_hit : bool;  (* answered from the request memo *)
}

type trace_entry = {
  tr_seq : int;  (* trace id *)
  tr_id : Sjson.t;  (* client-supplied request id *)
  tr_verdict : string;  (* the response's verdict, or "error" *)
  tr_seconds : float;
  tr_queue_wait : float;
  tr_slow : bool;
  tr_sampled : bool;  (* picked by the 1-in-N policy (vs slow-only) *)
  tr_check : checked option;  (* None for errors *)
  tr_spans : Sjson.t;  (* span tree, or Null when not captured *)
}

let trace_ring_cap = 64

(* request memo entries hold a verdict and at most one counterexample,
   never a circuit *)
let memo_capacity = 4096

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  metrics_fd : Unix.file_descr option;  (* TCP /metrics listener *)
  t_created : float;  (* Obs.Clock.now at create, for uptime *)
  pool : Par.Pool.t;
  cache : Cec.Cache.t;
  store : Store.t option;
  memo : (Verify.verdict * Verify.method_) Cec.Lru.t;
      (* decided verdicts by request content; see [memo_key] *)
  stop_req : bool Atomic.t;  (* the only thing a signal handler touches *)
  m : Mutex.t;
  work_cv : Condition.t;  (* executors sleep here *)
  drain_cv : Condition.t;  (* run/stop wait here *)
  queues : (int, pending Queue.t) Hashtbl.t;  (* cid -> queued checks *)
  rr : int Queue.t;  (* cids with a nonempty queue, round-robin order *)
  mutable npending : int;  (* admitted, not yet started *)
  mutable inflight : int;  (* started, not yet finished *)
  mutable stopping : bool;  (* drain begun: no new admissions *)
  mutable quit : bool;  (* queue empty and drained: executors exit *)
  conns : (int, conn) Hashtbl.t;
  mutable next_cid : int;
  mutable readers : Thread.t list;
  mutable runner : Thread.t option;  (* the [start] thread, if any *)
  mutable finished : bool;  (* [run] has returned *)
  (* request accounting, reported by the stats op *)
  mutable n_accepted : int;
  mutable n_checks : int;
  mutable n_completed : int;
  mutable n_shed : int;
  mutable n_errors : int;
  mutable n_memo_hits : int;
  (* bounded ring of traced requests (sampled or slow), newest at
     [(t_pos - 1) mod cap]; guarded by [t.m] *)
  traces : trace_entry option array;
  mutable t_pos : int;
}

let socket_path t = t.cfg.socket_path

let metrics_port t =
  Option.map
    (fun fd ->
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> 0)
    t.metrics_fd

(* ---------- responses ---------- *)

let send conn (j : Sjson.t) =
  let line = Sjson.to_string j ^ "\n" in
  Mutex.lock conn.wm;
  Fun.protect ~finally:(fun () -> Mutex.unlock conn.wm) @@ fun () ->
  if conn.alive then begin
    (* Unix.write_substring repeats until every byte is written *)
    try ignore (Unix.write_substring conn.fd line 0 (String.length line))
    with Unix.Unix_error _ | Sys_error _ ->
      (* client went away; its reader thread will clean up *)
      conn.alive <- false
  end

let conn_alive conn =
  Mutex.lock conn.wm;
  let a = conn.alive in
  Mutex.unlock conn.wm;
  a

let error_response id msg =
  Sjson.(Obj [ ("id", id); ("ok", Bool false); ("error", String msg) ])

let shed_response id reason =
  Sjson.(
    Obj
      [
        ("id", id);
        ("ok", Bool true);
        ("verdict", String "undecided");
        ("reason", String reason);
      ])

(* ---------- request decoding ---------- *)

let text_of req field =
  match Sjson.member field req with
  | Some (Sjson.String s) -> s
  | Some _ -> failwith (field ^ ": expected a string")
  | None -> failwith ("missing field " ^ field)

let circuit_of text =
  if String.length text > 0 && text.[0] = '@' then
    (* any registered workload, hier designs' flattened sides included;
       the error carries the registry's near-miss suggestions *)
    match Workloads.lookup (String.sub text 1 (String.length text - 1)) with
    | Ok c -> c
    | Error msg -> failwith msg
  else Netlist_io.parse text

(* The exposure spec: [None] for the structural plan (["auto"], the
   default), else the names in order. *)
let exposure_of req =
  match Sjson.member "exposed" req with
  | None | Some (Sjson.String "auto") -> None
  | Some (Sjson.List l) ->
      Some
        (List.map
           (fun v ->
             match Sjson.get_string v with
             | Some s -> s
             | None -> failwith "exposed: expected latch names")
           l)
  | Some _ -> failwith "exposed: expected a list of names or \"auto\""

let exposed_names c1 = function
  | Some names -> names
  | None ->
      (* the paper's default: expose a minimum feedback vertex set of the
         left circuit (names must also exist on the right, else the check
         reports the diagnosis) *)
      let plan = Feedback.plan_structural c1 in
      List.map (Circuit.signal_name c1) plan.Feedback.exposed

let limits_of cfg req =
  let timeout = Option.bind (Sjson.member "timeout" req) Sjson.get_float in
  let sc = Option.bind (Sjson.member "sat_conflicts" req) Sjson.get_int in
  let l = cfg.limits in
  let l =
    match timeout with Some s -> { l with Cec.seconds = Some s } | None -> l
  in
  match sc with Some n -> { l with Cec.sat_conflicts = Some n } | None -> l

(* ---------- the check itself (executor domain) ---------- *)

(* The per-phase seconds of one check, as responses and trace entries
   both report them. *)
let phases_json (s : Verify.stats) =
  let cec = s.Verify.cec in
  Sjson.Obj
    [
      ("unroll_seconds", Sjson.Float s.Verify.unroll_seconds);
      ("cec_elapsed_seconds", Sjson.Float cec.Cec.elapsed_seconds);
      ("partition_seconds", Sjson.Float cec.Cec.partition_seconds);
      ("sweep_cpu_seconds", Sjson.Float cec.Cec.sweep_seconds);
      ("sat_cpu_seconds", Sjson.Float cec.Cec.sat_seconds);
      ("bdd_cpu_seconds", Sjson.Float cec.Cec.bdd_seconds);
    ]

(* ---------- the request memo ---------- *)

(* A decided verdict depends on exactly the two texts and the exposure
   spec: the budgets change only the speed or an Undecided outcome, and
   the id nothing.  The key is an MD5 of each
   text's own MD5 followed by the length-prefixed names, so distinct
   requests have distinct encodings and no text is copied.  MD5 is not
   collision-resistant: as with lib/hier's store keys, clients are
   trusted not to send crafted collisions, which would get one text the
   other's verdict. *)
let memo_key left right exposure =
  let b = Buffer.create 64 in
  Buffer.add_string b (Digest.string left);
  Buffer.add_string b (Digest.string right);
  (match exposure with
  | None -> Buffer.add_char b 'a'
  | Some names ->
      Buffer.add_char b 'n';
      List.iter (fun s -> Printf.bprintf b "%d:%s" (String.length s) s) names);
  Digest.string (Buffer.contents b)

(* The outcome of a request answered from the memo: no engine ran, so
   every phase and counter is zero. *)
let memo_outcome (verdict, method_) ~seconds =
  {
    Verify.verdict;
    stats =
      {
        Verify.method_;
        depth = 0;
        variables = 0;
        events = 0;
        unrolled_nodes = 0;
        unrolled_gates = (0, 0);
        cec = Cec.fresh_stats ();
        unroll_seconds = 0.;
        seconds;
      };
  }

(* Returns the wire response plus what the trace ring and the accounting
   need ([None] on an error response).  Everything a request can get
   wrong in its shape is rejected before the memo lookup, so a hit
   answers only a request a miss would have checked; errors, diagnoses
   and Undecided answers are never memoized. *)
let check_response t req =
  let t0 = Obs.Clock.now () in
  let id = Option.value ~default:Sjson.Null (Sjson.member "id" req) in
  try
    let left = text_of req "left" in
    let right = text_of req "right" in
    let exposure = exposure_of req in
    let key = memo_key left right exposure in
    let result, memo_hit =
      match Cec.Lru.find t.memo key with
      | Some entry ->
          let seconds = Obs.Clock.now () -. t0 in
          (Ok (memo_outcome entry ~seconds), true)
      | None ->
          let c1 = circuit_of left in
          let c2 = circuit_of right in
          let exposed = exposed_names c1 exposure in
          let limits = limits_of t.cfg req in
          let result =
            Verify.check ~pool:t.pool ~limits ~cache:t.cache ~exposed c1 c2
          in
          (match result with
          | Ok { Verify.verdict = Verify.(Equivalent | Inequivalent _) as v; stats }
            ->
              ignore (Cec.Lru.add t.memo key (v, stats.Verify.method_))
          | Ok { Verify.verdict = Verify.Undecided _; _ } | Error _ -> ());
          (result, false)
    in
    match result with
    | Error d -> (error_response id (Seqprob.diagnosis_to_string d), None)
    | Ok outcome ->
        let s = outcome.Verify.stats in
        let cec = s.Verify.cec in
        let verdict_fields =
          match outcome.Verify.verdict with
          | Verify.Equivalent -> [ ("verdict", Sjson.String "equivalent") ]
          | Verify.Inequivalent (Some cex) ->
              [
                ("verdict", Sjson.String "inequivalent");
                ("certified", Sjson.Bool true);
                ( "cex",
                  Sjson.List
                    (List.map
                       (fun (v, b) ->
                         Sjson.List
                           [
                             Sjson.String (Seqprob.Var.to_string v);
                             Sjson.Bool b;
                           ])
                       cex) );
              ]
          | Verify.Inequivalent None ->
              [
                ("verdict", Sjson.String "inequivalent");
                ("certified", Sjson.Bool false);
              ]
          | Verify.Undecided reason ->
              [
                ("verdict", Sjson.String "undecided");
                ("reason", Sjson.String reason);
              ]
        in
        ( Sjson.Obj
            ([ ("id", id); ("ok", Sjson.Bool true) ]
            @ verdict_fields
            @ [
              ( "method",
                Sjson.String
                  (match s.Verify.method_ with
                  | Verify.Cbf_method -> "CBF"
                  | Verify.Edbf_method -> "EDBF") );
              ("seconds", Sjson.Float s.Verify.seconds);
              ("phases", phases_json s);
              ( "counters",
                Sjson.Obj
                  [
                    ("sat_calls", Sjson.Int cec.Cec.sat_calls);
                    ("partitions", Sjson.Int cec.Cec.partitions);
                    ("cache_hits", Sjson.Int cec.Cec.cache_hits);
                    ("store_hits", Sjson.Int cec.Cec.store_hits);
                    ("store_writes", Sjson.Int cec.Cec.store_writes);
                    ("memo_hits", Sjson.Int (if memo_hit then 1 else 0));
                  ] );
              ]),
          Some { ck_stats = s; ck_memo_hit = memo_hit } )
  with e -> (error_response id (Printexc.to_string e), None)

(* ---------- traces, stats, metrics (reader thread, answered inline) ---------- *)

let rec span_node_json (n : Obs.Summary.node) =
  Sjson.Obj
    [
      ("name", Sjson.String n.Obs.Summary.name);
      ("count", Sjson.Int n.Obs.Summary.count);
      ("total_seconds", Sjson.Float n.Obs.Summary.total);
      ("self_seconds", Sjson.Float n.Obs.Summary.self);
      ("children", Sjson.List (List.map span_node_json n.Obs.Summary.children));
    ]

let span_tree_json events =
  Sjson.List (List.map span_node_json (Obs.Summary.tree events))

let trace_entry_json ~with_spans e =
  let check_fields =
    match e.tr_check with
    | None -> []
    | Some c ->
        [
          ("memo_hit", Sjson.Bool c.ck_memo_hit);
          ("escalations", Sjson.Int c.ck_stats.Verify.cec.Cec.escalations);
          ("phases", phases_json c.ck_stats);
        ]
  in
  Sjson.Obj
    ([
       ("trace_id", Sjson.Int e.tr_seq);
       ("id", e.tr_id);
       ("verdict", Sjson.String e.tr_verdict);
       ("seconds", Sjson.Float e.tr_seconds);
       ("queue_wait_seconds", Sjson.Float e.tr_queue_wait);
       ("slow", Sjson.Bool e.tr_slow);
       ("sampled", Sjson.Bool e.tr_sampled);
     ]
    @ check_fields
    @ if with_spans then [ ("spans", e.tr_spans) ] else [])

(* Caller holds [t.m].  Newest-first list of ring entries. *)
let ring_entries t =
  let cap = Array.length t.traces in
  let rec go i acc =
    if i >= cap then acc
    else
      match t.traces.((t.t_pos - 1 - i + (2 * cap)) mod cap) with
      | None -> acc
      | Some e -> go (i + 1) (e :: acc)
  in
  List.rev (go 0 [])

(* Caller holds [t.m]. *)
let push_trace t e =
  t.traces.(t.t_pos mod Array.length t.traces) <- Some e;
  t.t_pos <- t.t_pos + 1

let quantiles_json name =
  match Obs.Histogram.find name with
  | None -> Sjson.Null
  | Some h ->
      let q p = Sjson.Float (Obs.Histogram.quantile h p *. 1000.) in
      Sjson.Obj
        [
          ("count", Sjson.Int h.Obs.Histogram.count);
          ("sum_seconds", Sjson.Float h.Obs.Histogram.sum);
          ("p50_ms", q 0.5);
          ("p95_ms", q 0.95);
          ("p99_ms", q 0.99);
        ]

let config_json cfg =
  Sjson.Obj
    [
      ("executors", Sjson.Int cfg.executors);
      ("pool_jobs", Sjson.Int cfg.pool_jobs);
      ("max_pending", Sjson.Int cfg.max_pending);
      ( "timeout_seconds",
        match cfg.limits.Cec.seconds with
        | None -> Sjson.Null
        | Some s -> Sjson.Float s );
      ( "sat_conflicts",
        match cfg.limits.Cec.sat_conflicts with
        | None -> Sjson.Null
        | Some n -> Sjson.Int n );
      ( "cache_dir",
        match cfg.cache_dir with
        | None -> Sjson.Null
        | Some d -> Sjson.String d );
      ( "metrics_addr",
        match cfg.metrics_addr with
        | None -> Sjson.Null
        | Some a -> Sjson.String a );
      ("trace_sample", Sjson.Int cfg.trace_sample);
      ("slow_ms", Sjson.Float cfg.slow_ms);
    ]

(* Point-in-time gauges only the server can compute; refreshed on every
   scrape (stats, metrics op, GET /metrics) rather than on a timer. *)
let refresh_scrape_gauges t =
  Obs.Gauge.set "pool.spawned" (float_of_int (Par.Pool.spawned t.pool));
  match t.store with
  | None -> ()
  | Some st ->
      let i = Store.info st in
      Obs.Gauge.set "store.entries" (float_of_int i.Store.entries);
      Obs.Gauge.set "store.file_bytes" (float_of_int i.Store.file_bytes)

let stats_response t id =
  refresh_scrape_gauges t;
  Mutex.lock t.m;
  let server =
    Sjson.Obj
      [
        ("connections", Sjson.Int t.n_accepted);
        ("checks", Sjson.Int t.n_checks);
        ("completed", Sjson.Int t.n_completed);
        ("shed", Sjson.Int t.n_shed);
        ("errors", Sjson.Int t.n_errors);
        ("memo_hits", Sjson.Int t.n_memo_hits);
        ("inflight", Sjson.Int t.inflight);
        ("pending", Sjson.Int t.npending);
        ("executors", Sjson.Int t.cfg.executors);
        ("pool_jobs", Sjson.Int (Par.Pool.jobs t.pool));
        ("pool_spawned", Sjson.Int (Par.Pool.spawned t.pool));
      ]
  in
  let slow =
    ring_entries t
    |> List.filter (fun e -> e.tr_slow)
    |> List.filteri (fun i _ -> i < 8)
    |> List.map (trace_entry_json ~with_spans:false)
  in
  Mutex.unlock t.m;
  let counters =
    Sjson.Obj
      (List.map (fun (k, v) -> (k, Sjson.Int v)) (Obs.Counters.snapshot ()))
  in
  let gauges =
    Sjson.Obj
      (List.map (fun (k, v) -> (k, Sjson.Float v)) (Obs.Gauge.snapshot ()))
  in
  let store =
    match t.store with
    | None -> Sjson.Null
    | Some st ->
        let i = Store.info st in
        Sjson.Obj
          [
            ("entries", Sjson.Int i.Store.entries);
            ("file_bytes", Sjson.Int i.Store.file_bytes);
            ("hits", Sjson.Int i.Store.hits);
            ("misses", Sjson.Int i.Store.misses);
            ("writes", Sjson.Int i.Store.writes);
          ]
  in
  Sjson.Obj
    [
      ("id", id);
      ("ok", Sjson.Bool true);
      ("uptime_seconds", Sjson.Float (Obs.Clock.now () -. t.t_created));
      ("server", server);
      ("config", config_json t.cfg);
      ("counters", counters);
      ("gauges", gauges);
      ("latency", quantiles_json "server.request_seconds");
      ("queue_wait", quantiles_json "server.queue_wait_seconds");
      ("dropped_events", Sjson.Int (Obs.dropped_events ()));
      ("slow", Sjson.List slow);
      ("store", store);
    ]

let metrics_text t =
  refresh_scrape_gauges t;
  Obs.Prom.to_string ()

let metrics_response t id =
  Sjson.Obj
    [
      ("id", id);
      ("ok", Sjson.Bool true);
      ("content_type", Sjson.String "text/plain; version=0.0.4");
      ("metrics", Sjson.String (metrics_text t));
    ]

let trace_response t id =
  Mutex.lock t.m;
  let entries = ring_entries t in
  Mutex.unlock t.m;
  (* the ring fills as checks complete, but the wire lists admission
     order: a slow check admitted first still comes first *)
  let entries = List.sort (fun a b -> compare a.tr_seq b.tr_seq) entries in
  Sjson.Obj
    [
      ("id", id);
      ("ok", Sjson.Bool true);
      ("trace_ring_capacity", Sjson.Int trace_ring_cap);
      ("traces", Sjson.List (List.map (trace_entry_json ~with_spans:true) entries));
    ]

(* ---------- scheduling ---------- *)

(* Caller holds [t.m].  Pops the next request round-robin by connection:
   first cid in [rr], one request from its queue, cid re-queued at the
   tail while its queue stays nonempty — a connection streaming 100
   requests shares the executors equally with one sending a single
   request. *)
let take_next t =
  match Queue.take_opt t.rr with
  | None -> None
  | Some cid -> (
      match Hashtbl.find_opt t.queues cid with
      | None -> None (* unreachable: rr entries always have a queue *)
      | Some q ->
          let item = Queue.pop q in
          if Queue.is_empty q then Hashtbl.remove t.queues cid
          else Queue.add cid t.rr;
          t.npending <- t.npending - 1;
          Some item)

let submit t conn req id =
  Mutex.lock t.m;
  let decision =
    if t.stopping then `Shed "shutting down"
    else if t.npending >= t.cfg.max_pending then `Shed "busy"
    else begin
      let q =
        match Hashtbl.find_opt t.queues conn.cid with
        | Some q -> q
        | None ->
            let q = Queue.create () in
            Hashtbl.replace t.queues conn.cid q;
            q
      in
      if Queue.is_empty q then Queue.add conn.cid t.rr;
      t.n_checks <- t.n_checks + 1;
      let pseq = t.n_checks in
      (* deterministic 1-in-N sampling by admission sequence number; a
         finite slow threshold also needs the capture, because slowness is
         only known at completion *)
      let pcapture =
        (t.cfg.trace_sample > 0 && pseq mod t.cfg.trace_sample = 0)
        || Float.is_finite t.cfg.slow_ms
      in
      Queue.add
        { pconn = conn; req; pseq; psub = Obs.Clock.now (); pcapture }
        q;
      t.npending <- t.npending + 1;
      Obs.Gauge.set "server.pending" (float_of_int t.npending);
      Condition.signal t.work_cv;
      `Admitted
    end
  in
  (match decision with `Shed _ -> t.n_shed <- t.n_shed + 1 | `Admitted -> ());
  Mutex.unlock t.m;
  match decision with
  | `Admitted -> Obs.count "server.admitted" 1
  | `Shed reason ->
      Obs.count "server.shed" 1;
      send conn (shed_response id reason)

let executor t () =
  let rec loop () =
    Mutex.lock t.m;
    while (not t.quit) && Queue.is_empty t.rr do
      Condition.wait t.work_cv t.m
    done;
    match take_next t with
    | None ->
        (* quit, queue drained *)
        Mutex.unlock t.m
    | Some { pconn; req; pseq; psub; pcapture } ->
        t.inflight <- t.inflight + 1;
        Obs.Gauge.set "server.pending" (float_of_int t.npending);
        Obs.Gauge.set "server.inflight" (float_of_int t.inflight);
        Mutex.unlock t.m;
        let queue_wait = Obs.Clock.now () -. psub in
        Obs.observe "server.queue_wait_seconds" queue_wait;
        (* a client that disconnected while queued gets no check run on
           its behalf — the response could never be delivered *)
        let result =
          if not (conn_alive pconn) then None
          else begin
            let t0 = Obs.Clock.now () in
            let (resp, check), events =
              if pcapture then Obs.capture (fun () -> check_response t req)
              else (check_response t req, [])
            in
            let dt = Obs.Clock.now () -. t0 in
            Obs.observe "server.request_seconds" dt;
            Some (resp, check, events, dt)
          end
        in
        (* only an error response comes without a check's stats *)
        let failed, memo_hit =
          match result with
          | Some (_, None, _, _) -> (true, false)
          | Some (_, Some c, _, _) -> (false, c.ck_memo_hit)
          | None -> (false, false)
        in
        (* account BEFORE sending: a client that reads its response and
           immediately asks for stats must see this check completed *)
        Obs.count "server.completed" 1;
        if memo_hit then Obs.count "server.memo_hits" 1;
        Mutex.lock t.m;
        t.inflight <- t.inflight - 1;
        Obs.Gauge.set "server.inflight" (float_of_int t.inflight);
        t.n_completed <- t.n_completed + 1;
        if failed then t.n_errors <- t.n_errors + 1;
        if memo_hit then t.n_memo_hits <- t.n_memo_hits + 1;
        (* trace ring: keep the request if it was picked by the sampler or
           turned out slow; spans only exist when the capture ran *)
        (match result with
        | None -> ()
        | Some (resp, check, events, dt) ->
            let sampled =
              t.cfg.trace_sample > 0 && pseq mod t.cfg.trace_sample = 0
            in
            let slow = dt *. 1000. >= t.cfg.slow_ms in
            if sampled || slow then
              push_trace t
                {
                  tr_seq = pseq;
                  tr_id =
                    Option.value ~default:Sjson.Null (Sjson.member "id" req);
                  tr_verdict =
                    Option.value ~default:"error"
                      (Option.bind (Sjson.member "verdict" resp)
                         Sjson.get_string);
                  tr_seconds = dt;
                  tr_queue_wait = queue_wait;
                  tr_slow = slow;
                  tr_sampled = sampled;
                  tr_check = check;
                  tr_spans =
                    (if pcapture then span_tree_json events else Sjson.Null);
                });
        Condition.broadcast t.drain_cv;
        Mutex.unlock t.m;
        (match result with Some (r, _, _, _) -> send pconn r | None -> ());
        loop ()
  in
  loop ()

(* ---------- connections ---------- *)

let handle_line t conn line =
  match Sjson.parse line with
  | exception Sjson.Parse_error msg ->
      Mutex.lock t.m;
      t.n_errors <- t.n_errors + 1;
      Mutex.unlock t.m;
      send conn (error_response Sjson.Null ("parse error: " ^ msg))
  | req -> (
      let id = Option.value ~default:Sjson.Null (Sjson.member "id" req) in
      match Option.bind (Sjson.member "op" req) Sjson.get_string with
      | Some "ping" ->
          send conn
            (Sjson.Obj
               [ ("id", id); ("ok", Sjson.Bool true); ("pong", Sjson.Bool true) ])
      | Some "check" -> submit t conn req id
      | Some "stats" -> send conn (stats_response t id)
      | Some "metrics" -> send conn (metrics_response t id)
      | Some "trace" -> send conn (trace_response t id)
      | Some op ->
          Mutex.lock t.m;
          t.n_errors <- t.n_errors + 1;
          Mutex.unlock t.m;
          send conn (error_response id (Printf.sprintf "unknown op %S" op))
      | None ->
          Mutex.lock t.m;
          t.n_errors <- t.n_errors + 1;
          Mutex.unlock t.m;
          send conn (error_response id "missing op"))

let reader t conn () =
  (try
     while true do
       let line = input_line conn.ic in
       if String.trim line <> "" then handle_line t conn line
     done
   with End_of_file | Sys_error _ -> ());
  (* mark dead under [wm] BEFORE closing the fd, so no executor write can
     land on a closed (or recycled) descriptor *)
  Mutex.lock conn.wm;
  conn.alive <- false;
  Mutex.unlock conn.wm;
  close_in_noerr conn.ic;
  Mutex.lock t.m;
  Hashtbl.remove t.conns conn.cid;
  Obs.Gauge.set "server.connections_open" (float_of_int (Hashtbl.length t.conns));
  Mutex.unlock t.m

let spawn_reader t fd =
  Mutex.lock t.m;
  let cid = t.next_cid in
  t.next_cid <- cid + 1;
  t.n_accepted <- t.n_accepted + 1;
  let conn =
    {
      cid;
      fd;
      ic = Unix.in_channel_of_descr fd;
      wm = Mutex.create ();
      alive = true;
    }
  in
  Hashtbl.replace t.conns cid conn;
  Obs.Gauge.set "server.connections_open" (float_of_int (Hashtbl.length t.conns));
  let th = Thread.create (reader t conn) () in
  t.readers <- th :: t.readers;
  Mutex.unlock t.m;
  Obs.count "server.connections" 1

(* ---------- the /metrics HTTP listener ---------- *)

(* "host:port", ":port" or "port"; the host must be numeric (or
   "localhost") — this is a scrape endpoint, not a web server. *)
let parse_metrics_addr s =
  let host, port =
    match String.rindex_opt s ':' with
    | Some i ->
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    | None -> ("", s)
  in
  let host = if host = "" then "127.0.0.1" else host in
  let host = if host = "localhost" then "127.0.0.1" else host in
  let port =
    match int_of_string_opt port with
    | Some p when p >= 0 && p <= 65535 -> p
    | _ -> invalid_arg ("Server: bad --metrics-addr port in " ^ s)
  in
  let addr =
    try Unix.inet_addr_of_string host
    with Failure _ -> invalid_arg ("Server: bad --metrics-addr host in " ^ s)
  in
  (addr, port)

let bind_metrics addr_str =
  let addr, port = parse_metrics_addr addr_str in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  try
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 16;
    fd
  with e ->
    (try Unix.close fd with Unix.Unix_error _ -> ());
    raise e

(* One scrape at a time, handled inline in the metrics thread: reads the
   request head, answers GET /metrics with the exposition, everything
   else with 404, then closes (Connection: close).  A stuck client is
   bounded by the socket receive timeout. *)
let serve_http_client t cfd =
  (try Unix.setsockopt_float cfd Unix.SO_RCVTIMEO 5. with Unix.Unix_error _ -> ());
  let ic = Unix.in_channel_of_descr cfd in
  let respond status ctype body =
    let msg =
      Printf.sprintf
        "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
        status ctype (String.length body) body
    in
    ignore (Unix.write_substring cfd msg 0 (String.length msg))
  in
  (try
     let request_line = input_line ic in
     (* drain the headers so the client sees a clean close *)
     (try
        while
          let l = input_line ic in
          String.trim l <> ""
        do
          ()
        done
      with End_of_file -> ());
     match String.split_on_char ' ' (String.trim request_line) with
     | "GET" :: path :: _
       when path = "/metrics"
            || String.length path > 8
               && String.sub path 0 9 = "/metrics?" ->
         respond "200 OK" "text/plain; version=0.0.4; charset=utf-8"
           (metrics_text t)
     | _ -> respond "404 Not Found" "text/plain" "not found\n"
   with End_of_file | Unix.Unix_error _ | Sys_error _ -> ());
  close_in_noerr ic

let rec metrics_loop t fd =
  if not (Atomic.get t.stop_req) then begin
    (match Unix.select [ fd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true fd with
        | exception Unix.Unix_error _ -> ()
        | cfd, _ -> serve_http_client t cfd));
    metrics_loop t fd
  end

(* ---------- lifecycle ---------- *)

(* OCaml 5 runs at most 128 domains at once: the main domain, this many
   executors and the shared pool's at most 63 workers fit *)
let max_executors = 64

let create cfg =
  if cfg.executors < 1 || cfg.executors > max_executors then
    invalid_arg
      (Printf.sprintf "Server.create: %d executors (expected 1 to %d)"
         cfg.executors max_executors);
  if cfg.pool_jobs < 1 || cfg.max_pending < 0 || cfg.trace_sample < 0 then
    invalid_arg "Server.create: bad config";
  (* a client hanging up mid-response must be an EPIPE error, not a
     process-killing signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let store = Option.map Store.open_ cfg.cache_dir in
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     if Sys.file_exists cfg.socket_path then Sys.remove cfg.socket_path;
     Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket_path);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with Unix.Unix_error _ -> ());
     Option.iter Store.close store;
     raise e);
  let metrics_fd =
    match cfg.metrics_addr with
    | None -> None
    | Some a -> (
        try Some (bind_metrics a)
        with e ->
          (try Unix.close listen_fd with Unix.Unix_error _ -> ());
          Option.iter Store.close store;
          raise e)
  in
  Obs.enable_counters ();
  {
    cfg;
    listen_fd;
    metrics_fd;
    t_created = Obs.Clock.now ();
    pool = Par.Pool.create ~jobs:cfg.pool_jobs;
    cache = Cec.Cache.create ?store ();
    store;
    memo = Cec.Lru.create ~capacity:memo_capacity;
    stop_req = Atomic.make false;
    m = Mutex.create ();
    work_cv = Condition.create ();
    drain_cv = Condition.create ();
    queues = Hashtbl.create 16;
    rr = Queue.create ();
    npending = 0;
    inflight = 0;
    stopping = false;
    quit = false;
    conns = Hashtbl.create 16;
    next_cid = 0;
    readers = [];
    runner = None;
    finished = false;
    n_accepted = 0;
    n_checks = 0;
    n_completed = 0;
    n_shed = 0;
    n_errors = 0;
    n_memo_hits = 0;
    traces = Array.make trace_ring_cap None;
    t_pos = 0;
  }

let request_stop t = Atomic.set t.stop_req true

let rec accept_loop t =
  if not (Atomic.get t.stop_req) then begin
    (match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept ~cloexec:true t.listen_fd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ -> spawn_reader t fd));
    accept_loop t
  end

let run t =
  let execs =
    List.init t.cfg.executors (fun _ -> Domain.spawn (executor t))
  in
  let metrics_th =
    Option.map (fun fd -> Thread.create (fun () -> metrics_loop t fd) ()) t.metrics_fd
  in
  accept_loop t;
  (* 1. stop accepting *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Option.iter Thread.join metrics_th;
  Option.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    t.metrics_fd;
  (try Sys.remove t.cfg.socket_path with Sys_error _ -> ());
  (* 2. drain: no new admissions, finish everything admitted *)
  Mutex.lock t.m;
  t.stopping <- true;
  Condition.broadcast t.work_cv;
  while t.npending > 0 || t.inflight > 0 do
    Condition.wait t.drain_cv t.m
  done;
  (* 3. release the executors *)
  t.quit <- true;
  Condition.broadcast t.work_cv;
  Mutex.unlock t.m;
  List.iter Domain.join execs;
  (* 4. hang up on the remaining connections and join their readers.
     [shutdown] (not [close]) wakes a reader blocked in [input_line] while
     leaving the fd for the reader's own close; a reader that already
     closed makes this EBADF, which is fine — nothing opens new fds at
     this point, so the descriptor cannot have been recycled. *)
  Mutex.lock t.m;
  let conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
  let readers = t.readers in
  t.readers <- [];
  Mutex.unlock t.m;
  List.iter
    (fun c ->
      try Unix.shutdown c.fd Unix.SHUTDOWN_ALL
      with Unix.Unix_error _ | Invalid_argument _ -> ())
    conns;
  List.iter Thread.join readers;
  (* 5. shared state: pool down, store flushed and closed *)
  Par.Pool.shutdown t.pool;
  Option.iter Store.close t.store;
  Mutex.lock t.m;
  t.finished <- true;
  Condition.broadcast t.drain_cv;
  Mutex.unlock t.m

let start cfg =
  let t = create cfg in
  let th = Thread.create run t in
  t.runner <- Some th;
  t

let stop t =
  request_stop t;
  match t.runner with
  | Some th -> Thread.join th
  | None ->
      Mutex.lock t.m;
      while not t.finished do
        Condition.wait t.drain_cv t.m
      done;
      Mutex.unlock t.m

(* ---------- client ---------- *)

module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel }

  let connect ?(retries = 0) path =
    let rec go attempt =
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> { fd; ic = Unix.in_channel_of_descr fd }
      | exception
          Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
        when attempt < retries ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.1;
          go (attempt + 1)
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    go 0

  let request t j =
    let line = Sjson.to_string j ^ "\n" in
    ignore (Unix.write_substring t.fd line 0 (String.length line));
    Sjson.parse (input_line t.ic)

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end
