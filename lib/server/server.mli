(** [seqver serve]: a long-lived concurrent verification server.

    One process owns the expensive shared state — a single {!Par.Pool}
    (every request's partitioned check runs on it; safe because the pool
    supports concurrent submitters), a single {!Cec.Cache.t} optionally
    backed by one persistent {!Store.t} — and answers line-delimited JSON
    requests over a Unix-domain socket.  Warm requests hit the shared
    cache/store, which is the whole point: the second verification of a
    structurally familiar miter costs a table lookup, not a SAT run.

    {b Architecture.}  The main thread accepts connections; each
    connection gets a reader {e thread} (cheap, blocks on socket reads);
    admitted [check] requests land on a bounded pending queue drained by
    [executors] worker {e domains}, each running the full verification on
    the shared pool.  Fairness is round-robin {e per connection}: one
    chatty client cannot starve the others.  [stats], [metrics], [trace]
    and [ping] answer inline from the reader thread, so the server is
    observable while saturated.

    {b Request memo.}  Each server keeps the decided verdicts of its
    checks by request content, so a byte-identical repeat skips parse,
    exposure planning, unrolling and the combinational check.  The key
    is an MD5 over exactly the fields a decided verdict depends on: the
    MD5s of the [left] and [right] strings and the exposure spec (absent
    or ["auto"], else the length-prefixed name list in order).  MD5 is
    not collision-resistant, so the memo trusts its clients: two texts
    crafted to share an MD5 would get the first one's verdict, a
    [certified] counterexample included, for the second.
    [timeout], [sat_conflicts] and [id] are not in the key: they change
    only the speed or an [undecided] outcome.  A hit answers the first
    response's [verdict], [certified], [cex] and [method], with
    [seconds] the lookup's own time, every phase and counter zero, and
    ["memo_hits":1].
    [undecided] answers, diagnoses and errors are never memoized.  The
    exposure shape and the required fields are validated before the
    lookup.  The memo is in memory only, holds at most 4,096 entries
    and evicts the least recently hit in batches
    ({!Cec.Lru}); a restarted daemon re-derives each pair once, and a
    configured store answers that check's cones.  The lookup runs on an
    executor, so a hit is admitted, completed, timed and traced like any
    check.  A miss pays for the key, an MD5 over both texts, on top of
    the check.

    {b Admission control.}  At most [max_pending] admitted-but-unstarted
    requests; beyond that a [check] is shed immediately with verdict
    [undecided], reason ["busy"] — the client sees a well-formed response,
    never a hang.

    {b Telemetry.}  Live {!Obs} metrics are always on: request-latency
    and queue-wait histograms ([server.request_seconds],
    [server.queue_wait_seconds]), queue/in-flight/connection gauges,
    per-engine solve-seconds histograms ([cec.engine_seconds.*]),
    per-cone-cost-decade histograms ([cec.cone_seconds.*]) and pool
    queue-wait/run histograms ([pool.*]).  Scraped three ways: the
    [stats] op (quantiles inline), the [metrics] op, and — when
    [metrics_addr] is set — a minimal HTTP/1.1 listener answering
    [GET /metrics] with Prometheus text exposition (format 0.0.4).

    {b Request tracing.}  Every [trace_sample]-th admitted check (by
    admission sequence number, so sampling is deterministic), plus every
    check slower than [slow_ms], lands in a bounded in-memory ring that
    keeps the 64 most recently completed such checks: trace id, verdict,
    seconds, queue wait, escalations, phase breakdown, and — when
    the request was captured — its span tree ({!Obs.capture}; spans
    emitted by pool-worker domains on the request's behalf are not
    included).  The ring is served by the [trace] op in admission order;
    [stats] summarizes the slow entries as a slow-request log.  Set [slow_ms = infinity] and [trace_sample = 0] to disable
    capture entirely.

    {b Shutdown.}  {!request_stop} (async-signal-safe — the CLI calls it
    from the SIGTERM/SIGINT handler) stops accepting, finishes every
    admitted request, joins the metrics listener, flushes and closes the
    store, joins every thread and domain, removes the socket, then
    {!run} returns.

    {b Wire protocol} (one JSON object per line, response mirrors the
    request's [id]):

    {v
    -> {"id":1,"op":"check","left":"@fifo64x16s","right":"@fifo64x16m",
        "exposed":"auto","timeout":30,"sat_conflicts":50000}
    <- {"id":1,"ok":true,"verdict":"equivalent","method":"CBF",
        "seconds":1.93,
        "phases":{"unroll_seconds":0.12,"cec_elapsed_seconds":1.71,
                  "partition_seconds":0.05,"sweep_cpu_seconds":3.1,
                  "sat_cpu_seconds":0.4,"bdd_cpu_seconds":0.0},
        "counters":{"sat_calls":18,"partitions":16,"cache_hits":0,
                    "store_hits":0,"store_writes":16,"memo_hits":0}}
    v}

    [left]/[right] are ["@name"] (a {!Workloads.by_name} suite circuit)
    or inline {!Netlist_io} text.  [exposed] is a list of latch names,
    or ["auto"] (the default) for {!Feedback.plan_structural} on [left].
    [timeout] and [sat_conflicts] build the request's {!Cec.limits}
    (defaulting to the server's).  Every check runs the one
    combinational checker (the sweep and its escalation ladder, see
    {!Cec.check_problem_with_stats}) with its clusters on the one shared
    pool; a field the protocol does not name (such as a [jobs] count or
    an [engine] name) is ignored.
    An [inequivalent] response carries ["cex":[[var,bool],...]] when the
    counterexample is certified (CBF) and ["certified":false] when it is
    the conservative EDBF rejection.  Failures (bad netlist, unknown
    name, exposure diagnosis) answer [{"ok":false,"error":...}] — the
    connection survives.

    The other ops:
    - [{"op":"ping"}] returns [{"ok":true,"pong":true}].
    - [{"op":"stats"}] returns
      [{"ok":true,"uptime_seconds":...,
        "server":{"connections","checks","completed","shed","errors",
                  "memo_hits","inflight","pending","executors",
                  "pool_jobs","pool_spawned"},
        "config":{"executors","pool_jobs","max_pending",
                  "timeout_seconds","sat_conflicts","cache_dir",
                  "metrics_addr","trace_sample","slow_ms"},
        "counters":{...live Obs counter totals...},
        "gauges":{...live Obs gauge values...},
        "latency":{"count","sum_seconds","p50_ms","p95_ms","p99_ms"},
        "queue_wait":{...same shape...},
        "dropped_events":N,
        "slow":[...up to 8 newest slow trace entries, no spans...],
        "store":{"entries","file_bytes","hits","misses","writes"}}]
      ([latency]/[queue_wait] are [null] before the first completed
      check; quantiles come from {!Obs.Histogram} and carry its
      bucket-bound error).
    - [{"op":"metrics"}] returns
      [{"ok":true,"content_type":"text/plain; version=0.0.4",
        "metrics":"...Prometheus exposition text..."}] — the scrape for
      socket-only deployments.
    - [{"op":"trace"}] returns
      [{"ok":true,"trace_ring_capacity":64,"traces":[...]}], the
      entries in admission order (ascending [trace_id]), whatever order
      their checks completed in; each entry is
      [{"trace_id","id","verdict","seconds","queue_wait_seconds",
        "slow","sampled","memo_hit","escalations",
        "phases":{"unroll_seconds","cec_elapsed_seconds",
                  "partition_seconds","sweep_cpu_seconds",
                  "sat_cpu_seconds","bdd_cpu_seconds"},
        "spans":[{"name","count","total_seconds","self_seconds",
                  "children":[...]}]}]
      ([verdict] is the response's, or ["error"]; error responses omit
      [memo_hit]/[escalations]/[phases]; [spans] is [null] when the entry
      was kept for slowness without a capture). *)

type config = {
  socket_path : string;
  executors : int;
      (** worker domains draining the admission queue, 1 to 64 (with the
          main domain and the pool's at most 63 workers, OCaml 5's limit
          of 128 domains) *)
  pool_jobs : int;  (** parallelism of the one shared {!Par.Pool} *)
  max_pending : int;  (** admission bound: queued (unstarted) requests *)
  limits : Cec.limits;  (** default per-request budgets *)
  cache_dir : string option;
      (** back the shared cache with one persistent store *)
  metrics_addr : string option;
      (** ["host:port"], [":port"] or ["port"]: serve HTTP
          [GET /metrics] (Prometheus text exposition) on this TCP
          address; [None] disables the listener (the [metrics] wire op
          always works).  Port [0] binds an ephemeral port, readable via
          {!metrics_port}. *)
  trace_sample : int;
      (** capture every Nth admitted check's span tree into the trace
          ring; [0] disables periodic sampling *)
  slow_ms : float;
      (** checks at least this slow (wall-clock milliseconds) always
          enter the trace ring and the [stats] slow-request log;
          [infinity] disables the slow path *)
}

val default_config : socket_path:string -> config
(** 2 executors, pool of {!Par.cpu_count} jobs, 64 pending,
    {!Cec.default_limits}, no store, no HTTP metrics
    listener, no periodic sampling, [slow_ms = 500.]. *)

type t

val create : config -> t
(** Binds and listens on [socket_path] (an existing socket file is
    replaced) and on [metrics_addr] when set, opens the store when
    configured, enables live {!Obs} counters.  No thread is started yet.
    @raise Unix.Unix_error when a socket cannot be bound.
    @raise Invalid_argument on a malformed [metrics_addr], a negative
    [trace_sample] or [max_pending], [executors] outside 1 to 64, or
    [pool_jobs] below 1 (above 64, {!Par.Pool.create} clamps it). *)

val run : t -> unit
(** The accept loop; blocks until {!request_stop}, then drains (finishes
    every admitted request), tears everything down and returns.  Call at
    most once. *)

val start : config -> t
(** [create] plus {!run} on a background thread — the in-process form
    used by tests. *)

val request_stop : t -> unit
(** Begin graceful shutdown.  Only sets a flag — safe from a signal
    handler, safe to call repeatedly and from any thread. *)

val stop : t -> unit
(** {!request_stop}, then waits until {!run} has returned (joining the
    {!start} thread when there is one). *)

val socket_path : t -> string

val metrics_port : t -> int option
(** The TCP port the /metrics listener is bound to ([None] when
    [metrics_addr] is unset) — the actual port, so binding port [0]
    works in tests. *)

(** Blocking single-connection client for the wire protocol — what
    [seqver client] and the tests use.  One request at a time per
    connection; run several clients for concurrency. *)
module Client : sig
  type t

  val connect : ?retries:int -> string -> t
  (** Connects to the server socket.  [retries] (default 0) retries a
      refused/missing socket at 100 ms intervals — for scripts that
      start the daemon and connect immediately.
      @raise Unix.Unix_error when the connection (still) fails. *)

  val request : t -> Sjson.t -> Sjson.t
  (** Sends one request line, blocks for the one response line.
      @raise End_of_file if the server hangs up first. *)

  val close : t -> unit
end
