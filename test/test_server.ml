(* The verification server: wire protocol, concurrent clients, admission
   shedding, per-request budgets, graceful drain.  Every test runs a real
   in-process server over a Unix socket — the same code path as
   [seqver serve]. *)

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seqver_srv_%d_%d.sock" (Unix.getpid ()) !n)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seqver_srvstore_%d_%d" (Unix.getpid ()) !n)

let with_server ?(executors = 2) ?(pool_jobs = 2) ?(max_pending = 64)
    ?cache_dir ?metrics_addr ?trace_sample ?slow_ms f =
  let base = Server.default_config ~socket_path:(fresh_sock ()) in
  let cfg =
    {
      base with
      Server.executors;
      pool_jobs;
      max_pending;
      cache_dir;
      metrics_addr;
      trace_sample = Option.value ~default:base.Server.trace_sample trace_sample;
      slow_ms = Option.value ~default:base.Server.slow_ms slow_ms;
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let c = Server.Client.connect ~retries:50 cfg.Server.socket_path in
      Fun.protect ~finally:(fun () -> Server.Client.close c) (fun () -> f cfg c))

(* JSON path accessors over Sjson *)
let sget j path =
  List.fold_left (fun a k -> Option.bind a (Sjson.member k)) (Some j) path

let sint j path = Option.bind (sget j path) Sjson.get_int
let sstr j path = Option.bind (sget j path) Sjson.get_string
let sbool j path = Option.bind (sget j path) Sjson.get_bool
let sfloat j path = Option.bind (sget j path) Sjson.get_float

let check_ok msg j = Alcotest.(check (option bool)) msg (Some true) (sbool j [ "ok" ])

(* a raw connection for byte-level tests (malformed lines, split
   send/receive around a drain) *)
type raw = { rfd : Unix.file_descr; ric : in_channel }

let raw_connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { rfd = fd; ric = Unix.in_channel_of_descr fd }

let raw_send r line =
  let b = Bytes.of_string (line ^ "\n") in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write r.rfd b !off (n - !off)
  done

let raw_recv r = Sjson.parse (input_line r.ric)
let raw_close r = try Unix.close r.rfd with Unix.Unix_error _ -> ()

let fifo_text style = Netlist_io.to_string (Workloads.fifo ~entries:8 ~width:4 ~style ())
let fifo_bug_text () =
  Netlist_io.to_string (Workloads.fifo ~bug:true ~entries:8 ~width:4 ~style:`Mux ())

let check_req ?(id = 1) ?engine ?timeout ?jobs ?exposed left right =
  let opt name f = function Some v -> [ (name, f v) ] | None -> [] in
  Sjson.Obj
    ([
       ("id", Sjson.Int id);
       ("op", Sjson.String "check");
       ("left", Sjson.String left);
       ("right", Sjson.String right);
     ]
    @ opt "engine" (fun e -> Sjson.String e) engine
    @ opt "timeout" (fun s -> Sjson.Float s) timeout
    @ opt "jobs" (fun n -> Sjson.Int n) jobs
    @ opt "exposed" (fun l -> Sjson.List (List.map (fun n -> Sjson.String n) l)) exposed)

(* ---- protocol basics ---- *)

let test_ping () =
  with_server (fun _ c ->
      let r =
        Server.Client.request c
          Sjson.(Obj [ ("id", Int 42); ("op", String "ping") ])
      in
      check_ok "ok" r;
      Alcotest.(check (option int)) "id echoed" (Some 42) (sint r [ "id" ]);
      Alcotest.(check (option bool)) "pong" (Some true) (sbool r [ "pong" ]))

let test_check_equivalent () =
  with_server (fun _ c ->
      (* two genuinely different implementations of the same FIFO, sent as
         inline netlist text; exposure defaults to "auto" *)
      let r =
        Server.Client.request c (check_req (fifo_text `Sop) (fifo_text `Mux))
      in
      check_ok "ok" r;
      Alcotest.(check (option string)) "verdict" (Some "equivalent")
        (sstr r [ "verdict" ]);
      Alcotest.(check bool) "method reported" true (sstr r [ "method" ] <> None);
      Alcotest.(check bool) "phase timings present" true
        (sget r [ "phases"; "unroll_seconds" ] <> None
        && sget r [ "phases"; "sweep_cpu_seconds" ] <> None);
      Alcotest.(check bool) "counters present" true
        (sint r [ "counters"; "partitions" ] <> None);
      (* suite circuits by @name resolve too *)
      let r2 = Server.Client.request c (check_req ~id:2 "@minmax10" "@minmax10") in
      check_ok "ok @name" r2;
      Alcotest.(check (option string)) "@name verdict" (Some "equivalent")
        (sstr r2 [ "verdict" ]))

let test_check_inequivalent () =
  with_server (fun _ c ->
      let r =
        Server.Client.request c (check_req (fifo_text `Sop) (fifo_bug_text ()))
      in
      check_ok "ok" r;
      Alcotest.(check (option string)) "verdict" (Some "inequivalent")
        (sstr r [ "verdict" ]);
      (* a certified counterexample carries the assignment *)
      match sbool r [ "certified" ] with
      | Some true ->
          Alcotest.(check bool) "cex present" true (sget r [ "cex" ] <> None)
      | Some false -> ()
      | None -> Alcotest.fail "inequivalent response must say certified")

(* 14-input parity as a chain and as a balanced tree: equivalent, and
   hard enough for SAT that an expired deadline stops it *)
let xor_texts () =
  let mk name tree =
    let c = Circuit.create name in
    let ins =
      List.init 14 (fun i -> Circuit.add_input c (Printf.sprintf "p%d" i))
    in
    let out =
      if tree then begin
        let rec pair = function
          | a :: b :: tl -> Circuit.add_gate c Xor [ a; b ] :: pair tl
          | rest -> rest
        in
        let rec build = function [ x ] -> x | xs -> build (pair xs) in
        build ins
      end
      else
        List.fold_left
          (fun acc i -> Circuit.add_gate c Xor [ acc; i ])
          (List.hd ins) (List.tl ins)
    in
    Circuit.mark_output c out;
    Circuit.check c;
    Netlist_io.to_string c
  in
  (mk "uchain" false, mk "utree" true)

let test_request_limits () =
  with_server (fun _ c ->
      (* an already-expired per-request deadline: the checker gives up
         before doing any work, deterministically *)
      let left, right = xor_texts () in
      let r =
        Server.Client.request c (check_req ~timeout:0.0 left right)
      in
      check_ok "ok" r;
      Alcotest.(check (option string)) "expired budget -> undecided"
        (Some "undecided")
        (sstr r [ "verdict" ]))

(* ---- errors never kill the connection ---- *)

let test_errors_and_survival () =
  with_server (fun cfg c ->
      let r = Server.Client.request c Sjson.(Obj [ ("op", String "frob") ]) in
      Alcotest.(check (option bool)) "unknown op rejected" (Some false)
        (sbool r [ "ok" ]);
      let r =
        Server.Client.request c Sjson.(Obj [ ("id", Int 7) ])
      in
      Alcotest.(check (option bool)) "missing op rejected" (Some false)
        (sbool r [ "ok" ]);
      Alcotest.(check (option int)) "id echoed on error" (Some 7)
        (sint r [ "id" ]);
      let r = Server.Client.request c (check_req "@no_such_circuit" "@minmax10") in
      Alcotest.(check (option bool)) "unknown circuit rejected" (Some false)
        (sbool r [ "ok" ]);
      Alcotest.(check bool) "error message present" true
        (sstr r [ "error" ] <> None);
      (* malformed JSON on a raw connection: error response, and the SAME
         connection keeps working afterwards *)
      let raw = raw_connect cfg.Server.socket_path in
      raw_send raw "{this is not json";
      let e = raw_recv raw in
      Alcotest.(check (option bool)) "parse error rejected" (Some false)
        (sbool e [ "ok" ]);
      raw_send raw {|{"id":9,"op":"ping"}|};
      let p = raw_recv raw in
      Alcotest.(check (option bool)) "connection survives a bad line"
        (Some true)
        (sbool p [ "pong" ]);
      raw_close raw)

(* ---- admission control ---- *)

let test_shedding () =
  (* max_pending = 0 sheds every check deterministically; ping and stats
     still answer inline *)
  with_server ~max_pending:0 (fun _ c ->
      let r = Server.Client.request c (check_req "@minmax10" "@minmax10") in
      check_ok "shed response well-formed" r;
      Alcotest.(check (option string)) "verdict" (Some "undecided")
        (sstr r [ "verdict" ]);
      Alcotest.(check (option string)) "reason" (Some "busy")
        (sstr r [ "reason" ]);
      let s =
        Server.Client.request c
          Sjson.(Obj [ ("id", Int 0); ("op", String "stats") ])
      in
      Alcotest.(check (option int)) "shed counted" (Some 1)
        (sint s [ "server"; "shed" ]);
      Alcotest.(check (option int)) "nothing admitted" (Some 0)
        (sint s [ "server"; "checks" ]))

(* ---- stats ---- *)

let test_stats () =
  let dir = fresh_dir () in
  with_server ~cache_dir:dir (fun _ c ->
      let (_ : Sjson.t) =
        Server.Client.request c (check_req (fifo_text `Sop) (fifo_text `Mux))
      in
      let s =
        Server.Client.request c
          Sjson.(Obj [ ("id", Int 5); ("op", String "stats") ])
      in
      check_ok "ok" s;
      Alcotest.(check (option int)) "checks" (Some 1) (sint s [ "server"; "checks" ]);
      Alcotest.(check (option int)) "completed" (Some 1)
        (sint s [ "server"; "completed" ]);
      Alcotest.(check (option int)) "nothing in flight" (Some 0)
        (sint s [ "server"; "inflight" ]);
      Alcotest.(check bool) "live Obs counters exposed" true
        (match sget s [ "counters" ] with
        | Some (Sjson.Obj kvs) ->
            List.mem_assoc "server.admitted" kvs
            && List.mem_assoc "server.completed" kvs
        | _ -> false);
      Alcotest.(check bool) "store info exposed" true
        (match sint s [ "store"; "entries" ] with Some n -> n >= 0 | None -> false);
      (* the telemetry extension: uptime, config echo, gauges, quantiles *)
      Alcotest.(check bool) "uptime" true
        (match sfloat s [ "uptime_seconds" ] with
        | Some u -> u >= 0.
        | None -> false);
      Alcotest.(check (option int)) "config echoes executors" (Some 2)
        (sint s [ "config"; "executors" ]);
      Alcotest.(check (option string)) "config echoes cache_dir" (Some dir)
        (sstr s [ "config"; "cache_dir" ]);
      Alcotest.(check bool) "live gauges exposed" true
        (match sget s [ "gauges" ] with
        | Some (Sjson.Obj kvs) -> List.mem_assoc "server.inflight" kvs
        | _ -> false);
      Alcotest.(check bool) "latency quantiles from the live histogram" true
        (match sint s [ "latency"; "count" ] with Some n -> n >= 1 | None -> false);
      Alcotest.(check bool) "latency percentiles present" true
        (sfloat s [ "latency"; "p50_ms" ] <> None
        && sfloat s [ "latency"; "p95_ms" ] <> None
        && sfloat s [ "latency"; "p99_ms" ] <> None);
      Alcotest.(check bool) "queue wait histogram" true
        (match sint s [ "queue_wait"; "count" ] with
        | Some n -> n >= 1
        | None -> false);
      Alcotest.(check (option int)) "no dropped events" (Some 0)
        (sint s [ "dropped_events" ]))

(* ---- the shared cache is warm across requests ---- *)

let test_warm_requests () =
  let dir = fresh_dir () in
  with_server ~cache_dir:dir (fun _ c ->
      (* the repeat's right side gains a comment line: the same circuit,
         but not the same text, so the request memo misses and the check
         runs against the warm cluster cache *)
      let req id right = check_req ~id (fifo_text `Sop) right in
      let r1 = Server.Client.request c (req 1 (fifo_text `Mux)) in
      check_ok "cold" r1;
      Alcotest.(check (option string)) "cold verdict" (Some "equivalent")
        (sstr r1 [ "verdict" ]);
      let wrote = Option.value ~default:0 (sint r1 [ "counters"; "store_writes" ]) in
      Alcotest.(check bool) "cold run persists verdicts" true (wrote > 0);
      let r2 = Server.Client.request c (req 2 (fifo_text `Mux ^ "# rev 2\n")) in
      check_ok "warm" r2;
      Alcotest.(check (option int)) "warm run: not a memo hit" (Some 0)
        (sint r2 [ "counters"; "memo_hits" ]);
      Alcotest.(check (option string)) "warm verdict" (Some "equivalent")
        (sstr r2 [ "verdict" ]);
      let counter k = Option.value ~default:(-1) (sint r2 [ "counters"; k ]) in
      let hits = counter "cache_hits" + counter "store_hits" in
      Alcotest.(check bool) "warm run answered from the shared cache" true
        (hits > 0);
      (* every partition of the repeat is a hit: no engine work at all *)
      Alcotest.(check int) "warm run: every partition a hit"
        (counter "partitions") hits;
      Alcotest.(check int) "warm run: no SAT calls" 0 (counter "sat_calls"))

(* ---- concurrency ---- *)

let test_concurrent_clients () =
  (* 8 clients at once on 2 executor domains sharing one pool: every
     client gets its own correct verdict, nothing is dropped *)
  with_server ~executors:2 ~pool_jobs:4 (fun cfg _ ->
      let eq_l = fifo_text `Sop and eq_r = fifo_text `Mux in
      let bug = fifo_bug_text () in
      let results = Array.make 8 None in
      let threads =
        List.init 8 (fun i ->
            Thread.create
              (fun () ->
                let c = Server.Client.connect cfg.Server.socket_path in
                let right = if i mod 2 = 0 then eq_r else bug in
                let r = Server.Client.request c (check_req ~id:i eq_l right) in
                Server.Client.close c;
                results.(i) <- sstr r [ "verdict" ])
              ())
      in
      List.iter Thread.join threads;
      Array.iteri
        (fun i v ->
          let expect = if i mod 2 = 0 then "equivalent" else "inequivalent" in
          Alcotest.(check (option string))
            (Printf.sprintf "client %d" i)
            (Some expect) v)
        results)

let test_round_robin_fairness () =
  (* one executor, a chatty connection that queues 4 checks, then a second
     connection's single check: round-robin admission means the single
     check is answered before the chatty connection's tail *)
  with_server ~executors:1 ~pool_jobs:2 (fun cfg c ->
      let chatty = raw_connect cfg.Server.socket_path in
      let l = fifo_text `Sop and r = fifo_text `Mux in
      let line id =
        Sjson.to_string (check_req ~id l r)
      in
      for i = 1 to 4 do
        raw_send chatty (line i)
      done;
      (* wait until the chatty batch is admitted (so the executor is busy
         and its queue nonempty), then race the single check in *)
      let rec wait () =
        let s =
          Server.Client.request c
            Sjson.(Obj [ ("id", Int 0); ("op", String "stats") ])
        in
        match sint s [ "server"; "checks" ] with
        | Some n when n >= 4 -> ()
        | _ ->
            Thread.yield ();
            wait ()
      in
      wait ();
      let single = raw_connect cfg.Server.socket_path in
      raw_send single (line 99);
      let r99 = raw_recv single in
      Alcotest.(check (option int)) "single check answered" (Some 99)
        (sint r99 [ "id" ]);
      (* the chatty connection still gets all four answers, in order *)
      for i = 1 to 4 do
        let ri = raw_recv chatty in
        Alcotest.(check (option int)) "chatty answer" (Some i) (sint ri [ "id" ])
      done;
      raw_close single;
      raw_close chatty)

(* ---- graceful drain ---- *)

let test_drain_finishes_admitted () =
  (* stop while requests are queued and in flight: every admitted check
     still gets its real verdict before the server exits *)
  let cfg =
    {
      (Server.default_config ~socket_path:(fresh_sock ())) with
      Server.executors = 1;
      pool_jobs = 2;
    }
  in
  let t = Server.start cfg in
  let stats_c = Server.Client.connect ~retries:50 cfg.Server.socket_path in
  let raw = raw_connect cfg.Server.socket_path in
  let l = fifo_text `Sop and r = fifo_text `Mux in
  raw_send raw (Sjson.to_string (check_req ~id:1 l r));
  raw_send raw (Sjson.to_string (check_req ~id:2 l r));
  let rec wait () =
    let s =
      Server.Client.request stats_c
        Sjson.(Obj [ ("id", Int 0); ("op", String "stats") ])
    in
    match sint s [ "server"; "checks" ] with
    | Some n when n >= 2 -> ()
    | _ ->
        Thread.yield ();
        wait ()
  in
  wait ();
  Server.stop t;
  let r1 = raw_recv raw in
  let r2 = raw_recv raw in
  List.iter
    (fun (resp, id) ->
      Alcotest.(check (option int)) "id" (Some id) (sint resp [ "id" ]);
      Alcotest.(check (option string)) "drained to a real verdict"
        (Some "equivalent")
        (sstr resp [ "verdict" ]))
    [ (r1, 1); (r2, 2) ];
  raw_close raw;
  Server.Client.close stats_c;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists cfg.Server.socket_path)

(* ---- live telemetry: metrics op, HTTP scrape, trace ring ---- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_metrics_op () =
  (* a clean global slate so the exposed totals are this test's alone *)
  Obs.reset ();
  with_server (fun _ c ->
      let (_ : Sjson.t) =
        Server.Client.request c (check_req (fifo_text `Sop) (fifo_text `Mux))
      in
      let m =
        Server.Client.request c
          Sjson.(Obj [ ("id", Int 3); ("op", String "metrics") ])
      in
      check_ok "ok" m;
      Alcotest.(check (option string)) "content type"
        (Some "text/plain; version=0.0.4")
        (sstr m [ "content_type" ]);
      let text = Option.value ~default:"" (sstr m [ "metrics" ]) in
      List.iter
        (fun needle ->
          Alcotest.(check bool) ("exposes " ^ needle) true (contains text needle))
        [
          "# TYPE seqver_server_request_seconds histogram";
          "seqver_server_request_seconds_bucket{le=";
          "seqver_server_request_seconds_bucket{le=\"+Inf\"} 1";
          "seqver_server_request_seconds_count 1";
          "seqver_server_request_seconds_sum ";
          "seqver_server_queue_wait_seconds_count 1";
          "seqver_server_admitted_total 1";
          "seqver_server_completed_total 1";
          "# TYPE seqver_server_pending gauge";
          "seqver_pool_spawned ";
          "seqver_cec_engine_seconds_";
        ])

let test_http_metrics () =
  Obs.reset ();
  let cfg =
    {
      (Server.default_config ~socket_path:(fresh_sock ())) with
      Server.executors = 1;
      pool_jobs = 2;
      metrics_addr = Some "127.0.0.1:0" (* ephemeral port *);
    }
  in
  let t = Server.start cfg in
  Fun.protect
    ~finally:(fun () -> Server.stop t)
    (fun () ->
      let port =
        match Server.metrics_port t with
        | Some p -> p
        | None -> Alcotest.fail "no metrics port bound"
      in
      let c = Server.Client.connect ~retries:50 cfg.Server.socket_path in
      let (_ : Sjson.t) =
        Server.Client.request c (check_req (fifo_text `Sop) (fifo_text `Mux))
      in
      Server.Client.close c;
      let http_get path =
        let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
        Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
        let oc = Unix.out_channel_of_descr fd in
        let ic = Unix.in_channel_of_descr fd in
        output_string oc
          (Printf.sprintf "GET %s HTTP/1.1\r\nHost: localhost\r\n\r\n" path);
        flush oc;
        let buf = Buffer.create 4096 in
        (try
           while true do
             Buffer.add_channel buf ic 1
           done
         with End_of_file -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Buffer.contents buf
      in
      let resp = http_get "/metrics" in
      Alcotest.(check bool) "200 OK" true (contains resp "HTTP/1.1 200 OK");
      Alcotest.(check bool) "prometheus content type" true
        (contains resp "Content-Type: text/plain; version=0.0.4");
      Alcotest.(check bool) "request histogram exposed" true
        (contains resp "seqver_server_request_seconds_bucket{le=");
      Alcotest.(check bool) "count reconciles with the one check" true
        (contains resp "seqver_server_request_seconds_count 1");
      Alcotest.(check bool) "connection closed per scrape" true
        (contains resp "Connection: close");
      let missing = http_get "/nope" in
      Alcotest.(check bool) "404 elsewhere" true
        (contains missing "HTTP/1.1 404"))

let trace_req = Sjson.(Obj [ ("id", Int 9); ("op", String "trace") ])

let trace_entries tr =
  match sget tr [ "traces" ] with
  | Some (Sjson.List l) -> l
  | _ -> Alcotest.fail "no traces list"

let test_trace_sampling () =
  (* trace_sample=2, slow path off: admission seqs 2 and 4 of 4 checks are
     captured — deterministically, by sequence number *)
  with_server ~executors:1 ~trace_sample:2 ~slow_ms:infinity (fun _ c ->
      let l = fifo_text `Sop and r = fifo_text `Mux in
      let phase_fields j =
        match sget j [ "phases" ] with
        | Some (Sjson.Obj kvs) -> List.map fst kvs
        | _ -> []
      in
      let response_phases = ref [] in
      for i = 1 to 4 do
        let resp = Server.Client.request c (check_req ~id:i l r) in
        check_ok "check" resp;
        response_phases := phase_fields resp
      done;
      Alcotest.(check int) "six response phases" 6
        (List.length !response_phases);
      let tr = Server.Client.request c trace_req in
      check_ok "ok" tr;
      Alcotest.(check (option int)) "ring capacity" (Some 64)
        (sint tr [ "trace_ring_capacity" ]);
      let entries = trace_entries tr in
      Alcotest.(check (list int)) "sampled seqs, oldest first" [ 2; 4 ]
        (List.filter_map (fun e -> sint e [ "trace_id" ]) entries);
      List.iter
        (fun e ->
          Alcotest.(check (option bool)) "sampled" (Some true)
            (sbool e [ "sampled" ]);
          Alcotest.(check (option bool)) "not slow" (Some false)
            (sbool e [ "slow" ]);
          Alcotest.(check (option string)) "verdict" (Some "equivalent")
            (sstr e [ "verdict" ]);
          Alcotest.(check (list string)) "phases as in the response"
            !response_phases (phase_fields e);
          Alcotest.(check bool) "span tree captured" true
            (match sget e [ "spans" ] with
            | Some (Sjson.List _) -> true
            | _ -> false))
        entries)

let test_trace_slow_log () =
  (* slow_ms=0: every check is "slow", lands in the ring and in the stats
     slow-request log (which strips the span trees) *)
  with_server ~executors:1 ~slow_ms:0. (fun _ c ->
      let l = fifo_text `Sop and r = fifo_text `Mux in
      for i = 1 to 2 do
        check_ok "check" (Server.Client.request c (check_req ~id:i l r))
      done;
      let tr = Server.Client.request c trace_req in
      let entries = trace_entries tr in
      Alcotest.(check int) "every check kept" 2 (List.length entries);
      List.iter
        (fun e ->
          Alcotest.(check (option bool)) "slow" (Some true) (sbool e [ "slow" ]);
          Alcotest.(check (option bool)) "not sampled" (Some false)
            (sbool e [ "sampled" ]))
        entries;
      let s =
        Server.Client.request c
          Sjson.(Obj [ ("id", Int 0); ("op", String "stats") ])
      in
      match sget s [ "slow" ] with
      | Some (Sjson.List sl) ->
          Alcotest.(check int) "slow log mirrors the ring" 2 (List.length sl);
          List.iter
            (fun e ->
              Alcotest.(check bool) "no spans in the slow log" true
                (sget e [ "spans" ] = None))
            sl
      | _ -> Alcotest.fail "no slow list in stats")

let test_trace_admission_order () =
  (* two executors: the check admitted first (the large-tier fifo64x16
     pair) completes after the fifo8x4 check admitted second; the ring
     fills in completion order, the trace op still lists admission order *)
  with_server ~executors:2 ~trace_sample:1 ~slow_ms:infinity (fun cfg c ->
      let slow = raw_connect cfg.Server.socket_path in
      raw_send slow
        (Sjson.to_string (check_req ~id:1 "@fifo64x16s" "@fifo64x16m"));
      let rec wait_admitted () =
        let s =
          Server.Client.request c
            Sjson.(Obj [ ("id", Int 0); ("op", String "stats") ])
        in
        match sint s [ "server"; "checks" ] with
        | Some n when n >= 1 -> ()
        | _ ->
            Thread.yield ();
            wait_admitted ()
      in
      wait_admitted ();
      check_ok "small check"
        (Server.Client.request c
           (check_req ~id:2 (fifo_text `Sop) (fifo_text `Mux)));
      let r1 = raw_recv slow in
      raw_close slow;
      Alcotest.(check (option string)) "slow check verdict" (Some "equivalent")
        (sstr r1 [ "verdict" ]);
      let entries = trace_entries (Server.Client.request c trace_req) in
      Alcotest.(check (list int)) "admission order" [ 1; 2 ]
        (List.filter_map (fun e -> sint e [ "trace_id" ]) entries))

let test_trace_disabled () =
  (* slow path off and no sampling: the ring stays empty *)
  with_server ~slow_ms:infinity (fun _ c ->
      check_ok "check"
        (Server.Client.request c (check_req (fifo_text `Sop) (fifo_text `Mux)));
      let tr = Server.Client.request c trace_req in
      Alcotest.(check int) "ring empty" 0 (List.length (trace_entries tr)))

(* ---- the request memo ---- *)

(* A load-enabled pair (checked by EDBF): a random acyclic circuit with
   enabled latches and its delay-synthesized version. *)
let edbf_texts () =
  let st = Random.State.make [| 0xEDBF |] in
  let c =
    Gen.acyclic st ~name:"en" ~inputs:3 ~gates:30 ~latches:4 ~outputs:2 ~enables:true
  in
  (Netlist_io.to_string c, Netlist_io.to_string (Synth_script.delay_script c))

(* What a decided response says about its verdict. *)
let decided r =
  (sstr r [ "verdict" ], sbool r [ "certified" ], sget r [ "cex" ], sstr r [ "method" ])

(* The same four fields from an in-process check of the parsed texts,
   exposed as the server's "auto" plan exposes them. *)
let decided_in_process left right =
  let c1 = Netlist_io.parse left and c2 = Netlist_io.parse right in
  let plan = Feedback.plan_structural c1 in
  let exposed = List.map (Circuit.signal_name c1) plan.Feedback.exposed in
  match Verify.check ~exposed c1 c2 with
  | Error d -> Alcotest.fail (Seqprob.diagnosis_to_string d)
  | Ok { Verify.verdict; stats } ->
      let var_json (v, b) =
        Sjson.List [ Sjson.String (Seqprob.Var.to_string v); Sjson.Bool b ]
      in
      let verdict, certified, cex =
        match verdict with
        | Verify.Equivalent -> ("equivalent", None, None)
        | Verify.Inequivalent (Some cex) ->
            ("inequivalent", Some true, Some (Sjson.List (List.map var_json cex)))
        | Verify.Inequivalent None -> ("inequivalent", Some false, None)
        | Verify.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r
      in
      let meth =
        match stats.Verify.method_ with
        | Verify.Cbf_method -> "CBF"
        | Verify.Edbf_method -> "EDBF"
      in
      (Some verdict, certified, cex, Some meth)

let decided_t =
  Alcotest.testable
    (fun ppf (v, c, x, m) ->
      let str = Option.value ~default:"-" in
      Format.fprintf ppf "%s certified=%s cex=%s method=%s" (str v)
        (Option.fold ~none:"-" ~some:string_of_bool c)
        (Option.fold ~none:"-" ~some:Sjson.to_string x)
        (str m))
    ( = )

let memo_hits r = sint r [ "counters"; "memo_hits" ]

let test_memo_repeats () =
  (* a clean global slate, so the latency histogram counts this test's
     checks alone *)
  Obs.reset ();
  with_server ~trace_sample:1 ~slow_ms:infinity (fun _ c ->
      let hits = ref 0 in
      let ask req =
        let r = Server.Client.request c req in
        if memo_hits r = Some 1 then incr hits;
        r
      in
      let edbf_l, edbf_r = edbf_texts () in
      List.iter
        (fun (name, left, right, expect) ->
          let r1 = ask (check_req ~id:1 left right) in
          let says what = name ^ ": " ^ what in
          check_ok (says "first") r1;
          Alcotest.(check (option int)) (says "first is a miss") (Some 0) (memo_hits r1);
          let v, cert, _, m = decided r1 in
          Alcotest.(check (list (option string))) (says "verdict, certified, method")
            expect
            [ v; Option.map string_of_bool cert; m ];
          Alcotest.check decided_t (says "first = in-process check")
            (decided_in_process left right) (decided r1);
          (* repeats that differ only in id, engine, timeout or jobs *)
          List.iter
            (fun (what, req) ->
              let r = ask req in
              check_ok (says what) r;
              Alcotest.(check (option int)) (says (what ^ " hits")) (Some 1) (memo_hits r);
              Alcotest.check decided_t (says (what ^ " = first")) (decided r1) (decided r);
              Alcotest.(check (option int)) (says (what ^ " runs no engine")) (Some 0)
                (sint r [ "counters"; "partitions" ]))
            [
              ("same request", check_req ~id:1 left right);
              ("other id", check_req ~id:2 left right);
              ("other engine", check_req ~id:3 ~engine:"sat" left right);
              ("a timeout", check_req ~id:4 ~timeout:30. left right);
              ("one job", check_req ~id:5 ~jobs:1 left right);
            ];
          (* one byte changed in either text (the last newline becomes a
             space): the same circuit, another key *)
          let tweak text =
            String.mapi (fun i ch -> if i = String.length text - 1 then ' ' else ch) text
          in
          List.iter
            (fun (what, l, r) ->
              let resp = ask (check_req ~id:6 l r) in
              Alcotest.(check (option int)) (says (what ^ " misses")) (Some 0)
                (memo_hits resp);
              Alcotest.check decided_t (says (what ^ " verdict")) (decided r1)
                (decided resp))
            [ ("left byte", tweak left, right); ("right byte", left, tweak right) ])
        [
          ("EQ", fifo_text `Sop, fifo_text `Mux, [ Some "equivalent"; None; Some "CBF" ]);
          ( "NEQ",
            fifo_text `Sop,
            fifo_bug_text (),
            [ Some "inequivalent"; Some "true"; Some "CBF" ] );
          ("EDBF", edbf_l, edbf_r, [ Some "equivalent"; None; Some "EDBF" ]);
        ];
      (* the exposure list is part of the key, in order *)
      let l = fifo_text `Sop and r = fifo_text `Mux in
      let c1 = Netlist_io.parse l in
      let names =
        List.map (Circuit.signal_name c1) (Feedback.plan_structural c1).Feedback.exposed
      in
      Alcotest.(check bool) "the FIFO plan exposes two or more latches" true
        (List.length names >= 2);
      List.iter
        (fun (what, exposed, expect) ->
          let resp = ask (check_req ~exposed l r) in
          check_ok what resp;
          Alcotest.(check (option int)) what (Some expect) (memo_hits resp);
          Alcotest.(check (option string)) (what ^ ": verdict") (Some "equivalent")
            (sstr resp [ "verdict" ]))
        [
          ("the plan's names, listed: a miss", names, 0);
          ("the same list again: a hit", names, 1);
          ("the list reversed: a miss", List.rev names, 0);
        ];
      (* an exposure diagnosis is an error, never memoized *)
      for id = 1 to 2 do
        let resp = ask (check_req ~id ~exposed:[ "no_such_latch" ] l r) in
        Alcotest.(check (option bool)) "diagnosis rejected" (Some false)
          (sbool resp [ "ok" ]);
        Alcotest.(check bool) "diagnosis names the latch" true
          (match sstr resp [ "error" ] with
          | Some e -> contains e "no_such_latch"
          | None -> false)
      done;
      (* an engine field is ignored like any field the protocol does not
         name, so a memoized pair is still a hit *)
      let resp = ask (check_req ~engine:"frob" l r) in
      Alcotest.(check (option int)) "an engine field on a memoized pair hits"
        (Some 1) (memo_hits resp);
      (* hits keep the accounting: completed, observed, traced, no errors *)
      let s = ask Sjson.(Obj [ ("id", Int 0); ("op", String "stats") ]) in
      Alcotest.(check int) "hits: five repeats of three pairs, one list, the engine"
        17 !hits;
      Alcotest.(check (option int)) "server memo_hits" (Some !hits)
        (sint s [ "server"; "memo_hits" ]);
      Alcotest.(check (option int)) "errors: two diagnoses" (Some 2)
        (sint s [ "server"; "errors" ]);
      let checks = Option.value ~default:(-1) (sint s [ "server"; "checks" ]) in
      Alcotest.(check (option int)) "every check completed" (Some checks)
        (sint s [ "server"; "completed" ]);
      Alcotest.(check (option int)) "every check observed" (Some checks)
        (sint s [ "latency"; "count" ]);
      let hit_entries =
        List.filter
          (fun e -> sbool e [ "memo_hit" ] = Some true)
          (trace_entries (ask trace_req))
      in
      Alcotest.(check int) "a trace entry per hit" !hits (List.length hit_entries);
      List.iter
        (fun e ->
          Alcotest.(check int) "hit entry has the six phases" 6
            (match sget e [ "phases" ] with
            | Some (Sjson.Obj kvs) -> List.length kvs
            | _ -> 0))
        hit_entries)

let test_memo_skips_undecided () =
  (* the per-request-limits pair: an expired budget gives Undecided,
     which is not memoized; the decided answer that follows is, and a
     zero timeout then still gets it, since budgets are not in the key *)
  with_server (fun _ c ->
      let left, right = xor_texts () in
      List.iter
        (fun (id, timeout, verdict, hit) ->
          let r =
            Server.Client.request c (check_req ~id ?timeout left right)
          in
          check_ok "ok" r;
          Alcotest.(check (option string)) (Printf.sprintf "request %d verdict" id)
            (Some verdict) (sstr r [ "verdict" ]);
          Alcotest.(check (option int)) (Printf.sprintf "request %d memo hits" id)
            (Some hit) (memo_hits r))
        [
          (1, Some 0.0, "undecided", 0);
          (2, Some 0.0, "undecided", 0);
          (3, None, "equivalent", 0);
          (4, Some 0.0, "equivalent", 1);
        ])

let test_memo_per_server () =
  (* the memo belongs to its server: a second server misses what the
     first one memoized *)
  let req = check_req (fifo_text `Sop) (fifo_text `Mux) in
  with_server (fun _ c ->
      ignore (Server.Client.request c req);
      Alcotest.(check (option int)) "first server hits" (Some 1)
        (memo_hits (Server.Client.request c req)));
  with_server (fun _ c ->
      Alcotest.(check (option int)) "second server misses" (Some 0)
        (memo_hits (Server.Client.request c req)))

(* the main domain, 64 executors and a 64-job pool's 63 workers are
   OCaml 5's 128 domains: a 65th executor is refused before anything is
   bound or spawned *)
let test_executor_cap () =
  let socket_path = fresh_sock () in
  let cfg =
    { (Server.default_config ~socket_path) with Server.executors = 65; pool_jobs = 64 }
  in
  (match Server.create cfg with
  | _ -> Alcotest.fail "65 executors accepted"
  | exception Invalid_argument _ -> ());
  Alcotest.(check bool) "no socket bound" false (Sys.file_exists socket_path)

let suite =
  [
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "check equivalent" `Quick test_check_equivalent;
    Alcotest.test_case "check inequivalent" `Quick test_check_inequivalent;
    Alcotest.test_case "per-request limits" `Quick test_request_limits;
    Alcotest.test_case "errors keep the connection" `Quick test_errors_and_survival;
    Alcotest.test_case "load shedding" `Quick test_shedding;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "warm shared cache" `Quick test_warm_requests;
    Alcotest.test_case "concurrent clients" `Quick test_concurrent_clients;
    Alcotest.test_case "round-robin fairness" `Quick test_round_robin_fairness;
    Alcotest.test_case "graceful drain" `Quick test_drain_finishes_admitted;
    Alcotest.test_case "metrics op" `Quick test_metrics_op;
    Alcotest.test_case "http GET /metrics" `Quick test_http_metrics;
    Alcotest.test_case "deterministic trace sampling" `Quick test_trace_sampling;
    Alcotest.test_case "slow-request log" `Quick test_trace_slow_log;
    Alcotest.test_case "trace op lists admission order" `Quick
      test_trace_admission_order;
    Alcotest.test_case "trace ring disabled" `Quick test_trace_disabled;
    Alcotest.test_case "memo answers repeats" `Quick test_memo_repeats;
    Alcotest.test_case "memo skips undecided" `Quick test_memo_skips_undecided;
    Alcotest.test_case "memo per server" `Quick test_memo_per_server;
    Alcotest.test_case "at most 64 executors" `Quick test_executor_cap;
  ]
