(** Structured tracing and metrics.

    A dependency-free (stdlib + one local C stub) observability layer:
    hierarchical
    {e spans}, named {e counters}, {e histograms}, {e gauges} and point
    {e instants}, buffered in per-domain lock-free event buffers and
    merged at collection time, so instrumenting code that runs inside a
    {!Par.Pool} never contends on the hot path.

    The global sink is disabled by default; every emitting call then costs
    a branch or two (atomic loads) plus whatever the caller spent
    building its arguments — instrumentation sites that would allocate
    should pass attributes through the lazy {!attr} form.  Timing helpers
    ({!timed_span}) measure even while disabled, so derived statistics
    (e.g. {!Cec.stats}) stay correct with tracing off.

    Two sinks render a collected event list: {!Chrome} (trace-event
    JSON printed with [Sjson], loadable in Perfetto, one track per
    domain) and {!Summary} (a span-tree with self/total times).  {!Prom}
    renders the {e live} metrics (counters, gauges, histograms) in
    Prometheus text exposition format.  A synchronous {!set_hook} feeds
    live progress displays. *)

module Clock : sig
  external now : unit -> float = "obs_clock_monotonic_s"
  (** Monotonic seconds ([clock_gettime(CLOCK_MONOTONIC)] via a local C
      stub); immune to NTP steps, so deadlines and span durations never
      jump.  The epoch is arbitrary — only differences are meaningful. *)
end

(** Attribute values attached to spans and instants. *)
type value = Int of int | Float of float | Bool of bool | String of string

type attrs = (string * value) list

type event =
  | Begin of { name : string; t : float; dom : int; attrs : attrs }
  | End of { name : string; t : float; dom : int; attrs : attrs }
  | Instant of { name : string; t : float; dom : int; attrs : attrs }
  | Count of { name : string; t : float; dom : int; n : int }
      (** [dom] is the integer id of the domain that emitted the event;
          [t] is a {!Clock} timestamp. *)

(** {1 Recording} *)

val enabled : unit -> bool

val enable : unit -> unit
(** Turns the global sink on.  Events emitted before [enable] are not
    retroactively recorded. *)

val disable : unit -> unit

val counters_enabled : unit -> bool

val enable_counters : unit -> unit
(** Turns on {e live metrics} — a switch independent of {!enable}:
    {!count} calls accumulate into per-domain tables, {!observe} into
    per-domain histogram accumulators and {!Gauge} writes into a shared
    gauge table (no event buffering, so memory stays bounded over an
    arbitrarily long run); {!Counters.snapshot}, {!Histogram.snapshot}
    and {!Gauge.snapshot} read merged values at any time.  This is the
    long-lived server's metrics source. *)

val disable_counters : unit -> unit

val reset : unit -> unit
(** Drops all buffered events and zeroes the live counter, histogram and
    gauge accumulators.  Safe to call while other domains are emitting:
    the event buffers are invalidated by bumping a global generation
    (each owner lazily abandons its stale buffer on the next emit, so a
    concurrent append can never resurrect pre-reset events), and the
    accumulator tables are cleared under their own locks.  Events a
    racing domain emits {e during} the reset may land on either side of
    it; there is no torn state. *)

val set_buffer_cap : int -> unit
(** Caps each domain's event buffer at [n] events (clamped to >= 1;
    default 1_000_000).  Once a domain's buffer is full, further events
    from it are discarded and counted in {!dropped_events} — so enabling
    tracing in a long-lived server degrades to a bounded window instead
    of growing memory without bound.  {!reset} empties the buffers and
    restarts the window. *)

val buffer_cap : unit -> int

val dropped_events : unit -> int
(** Events discarded by the buffer cap since the last {!reset}, summed
    across domains.  Also exported by {!Prom} as
    [seqver_obs_dropped_events_total]. *)

val collect : unit -> event list
(** Merges every domain's buffer into one list sorted by timestamp
    (stable, so each domain's own order is preserved).  Safe to call
    after the emitting domains have been joined; collecting while they
    still run yields a consistent prefix of each buffer. *)

val capture : (unit -> 'a) -> 'a * event list
(** [capture f] runs [f] and returns the span/instant/count events the
    {e calling domain} emitted during it, in emission order — whether or
    not the global sink is {!enabled} (events still land in the global
    buffers only when it is).  This is the request-scoped tracing
    primitive: a server wraps one request in [capture] and keeps the
    event list in a bounded ring without ever turning global tracing on.
    Work the request hands to other domains (pool tasks) is not
    captured.  Captures nest by shadowing: an inner capture takes the
    events.  At most 10_000 events are kept per capture; the excess is
    discarded.  Cost when no capture is active anywhere: one extra
    atomic load per (otherwise disabled) site. *)

val set_hook : (event -> unit) option -> unit
(** Synchronous observer called on every emitted event {e in addition to}
    buffering, from the emitting domain — it must be thread-safe and
    fast.  Only invoked while {!enabled}. *)

(** {1 Emitting} *)

val span : name:string -> ?attrs:attrs -> (unit -> 'a) -> 'a
(** [span ~name f] runs [f] inside a span: a [Begin] event, then [f ()],
    then an [End] event (also on exceptions).  Spans nest per domain.
    Disabled: exactly [f ()]. *)

val timed_span : name:string -> ?attrs:attrs -> (unit -> 'a) -> 'a * float
(** Like {!span} but also returns [f]'s wall-clock seconds.  The duration
    is measured even when tracing is disabled (two clock reads), so stats
    fields can be derived from the span instrumentation alone. *)

val attr : (unit -> attrs) -> unit
(** Attaches attributes to the innermost open span of the calling domain;
    they are carried on its [End] event.  The thunk is only evaluated
    when tracing (or a capture) is active — use this for attributes whose
    construction allocates (end-of-call counter deltas and the like). *)

val instant : ?attrs:attrs -> string -> unit
(** A point event (cache hit, escalation, cancellation...). *)

val count : string -> int -> unit
(** [count name n] increments counter [name] by [n].  Per-domain buffers
    make this contention-free; totals are merged at collection time.
    Under {!enable_counters} the increment additionally lands in the
    domain's live accumulator (readable via {!Counters.snapshot}),
    whether or not tracing is enabled. *)

val observe : string -> float -> unit
(** [observe name v] records sample [v] into live histogram [name] —
    the distribution-valued sibling of {!count}.  Only active under
    {!enable_counters}; the sample lands in the calling domain's own
    accumulator (a bucket increment under an uncontended per-domain
    lock), merged across domains by {!Histogram.snapshot}.  Disabled
    cost: one atomic load. *)

(** {1 Live metrics} *)

(** Mergeable log-linear histograms.  Buckets are base-2 octaves split
    into 8 linear sub-buckets, covering [2^-20, 2^10) (~1 microsecond to
    ~17 minutes when samples are seconds) plus underflow/overflow
    buckets — 242 buckets, so a quantile estimate is off by at most one
    bucket width, i.e. a relative error of at most 12.5% (1/8, the
    worst-case relative width of a finite bucket). *)
module Histogram : sig
  type snap = {
    name : string;
    count : int;  (** total samples *)
    sum : float;  (** sum of samples *)
    buckets : (float * int) list;
        (** non-empty buckets as [(upper_bound, count)], ascending;
            a bucket covers [(lower, upper_bound]] where [lower] is the
            previous bucket's bound; the overflow bucket's bound is
            [infinity] *)
  }

  val snapshot : unit -> snap list
  (** Current histograms merged across every domain, sorted by name —
      empty unless {!enable_counters} is (or was) on.  Safe concurrently
      with {!observe} (per-domain accumulators are read under their own
      locks, one domain at a time). *)

  val find : string -> snap option
  (** [find name] = the named histogram from a fresh {!snapshot}. *)

  val quantile : snap -> float -> float
  (** [quantile s q] for [q] in [0,1]: the upper bound of the bucket
      holding the nearest-rank sample — an overestimate of the exact
      quantile by at most one bucket width.  Overflow-bucket ranks clamp
      to the largest finite bound; [0.] when the histogram is empty. *)

  val bucket_bounds_of_value : float -> float * float
  (** [(lower, upper)] bounds of the bucket sample [v] falls in — the
      interval a {!quantile} answer is accurate to.  Exposed for tests. *)

  val nearest_rank : float array -> float -> float
  (** Exact nearest-rank percentile of a {e sorted} array: the element at
      rank [ceil (q * n)] (1-based), clamped to the array.  The reference
      definition histogram quantiles are checked against; also
      perfbench's exact percentile. *)
end

(** Named gauges: last-written values (queue depth, in-flight requests,
    pool workers...).  A single shared table under one lock — gauge
    writes are low-frequency control-path events, unlike {!observe}. *)
module Gauge : sig
  val set : string -> float -> unit
  (** Only active under {!enable_counters}. *)

  val snapshot : unit -> (string * float) list
  (** Sorted by name. *)
end

(** {1 Sinks} *)

module Counters : sig
  val totals : event list -> (string * int) list
  (** Counter sums across all domains, sorted by name. *)

  val snapshot : unit -> (string * int) list
  (** Current live-counter totals merged across every domain, sorted by
      name — empty unless {!enable_counters} is (or was) on.  Safe to
      call from any domain while others are counting; the result is a
      consistent-per-counter snapshot (counters are summed one domain at
      a time, so a concurrent increment may or may not be included). *)
end

module Prom : sig
  (** Prometheus text exposition (format 0.0.4) over the {e live}
      metrics: every counter as [seqver_<name>_total], every gauge as
      [seqver_<name>], every histogram as [seqver_<name>] with cumulative
      [_bucket{le="..."}] lines (only non-empty buckets, plus the
      mandatory [+Inf]), [_sum] and [_count], each preceded by
      [# HELP]/[# TYPE].  Metric names are sanitized to
      [[a-zA-Z0-9_:]].  Serve with
      [Content-Type: text/plain; version=0.0.4]. *)

  val to_string : unit -> string
end

module Chrome : sig
  (** Chrome trace-event JSON ({{:https://ui.perfetto.dev}Perfetto}, or
      [chrome://tracing]): one [pid], one [tid] (track) per domain,
      [B]/[E] duration events with [args], [i] instants, [C] counters
      (running totals).  Timestamps are microseconds from the earliest
      collected event.  Each event is one [Sjson] object on its own line;
      a non-finite [Float] attribute prints as [null]. *)

  val write : out_channel -> event list -> unit
  val to_string : event list -> string
end

module Summary : sig
  type node = {
    name : string;
    count : int;  (** completed spans aggregated into this node *)
    total : float;  (** summed durations (CPU-like: across domains) *)
    self : float;  (** [total] minus time inside child spans *)
    children : node list;  (** sorted by [total], largest first *)
  }

  val tree : event list -> node list
  (** Aggregates spans by name path: the same name under the same parent
      path is one node, merged across domains.  Spans left open are
      closed at their domain's last event. *)

  val pp : Format.formatter -> event list -> unit
  (** Renders the tree plus counter totals, durations in seconds. *)
end
