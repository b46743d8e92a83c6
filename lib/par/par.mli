(** Fixed-size domain pool for data-parallel sweeps.

    OCaml 5 gives us true shared-memory parallelism through [Domain]; this
    module wraps it in the only two shapes the verification stack needs:
    an order-preserving parallel [map] and an early-cancelling
    [find_first].  Workers are plain domains blocked on a condition
    variable; the submitting domain participates in the work instead of
    idling.  Worker domains spawn {e lazily}: creating a pool is free, and
    domains appear only when a batch can actually use them — never more
    than [jobs - 1], never more than the largest batch's task count minus
    one.  A pool of [jobs = 1], or one only ever handed single-task
    batches, spawns no domains at all and runs the tasks inline
    (bit-for-bit the sequential behavior).

    Tasks must be self-contained: they may share read-only data with the
    submitter (publication happens-before is provided by the internal
    queue mutex) but must not mutate anything another task can reach
    unless they synchronize it themselves.

    {b Concurrent submitters.}  One pool may be shared by several domains
    submitting batches {e simultaneously} (the verification server runs
    every request's partitioned check on one pool).  The guarantees:
    batches are isolated — each {!Pool.run} returns exactly when {e its}
    [n] tasks have completed, an exception raised by a task re-raises in
    the batch that submitted it and never in a sibling batch, and
    {!Pool.map}/{!Pool.find_first} results never mix across batches.
    Tasks of concurrent batches interleave on the shared queue (a
    submitting domain helping to drain the queue may execute a sibling
    batch's task — that only speeds the sibling up), and worker-domain
    sizing counts the {e total} outstanding demand across batches, so
    concurrent small batches still get [min (jobs-1) total] workers.
    Fairness is cooperative, not preemptive: tasks run to completion. *)

val cpu_count : unit -> int
(** [Domain.recommended_domain_count ()] — a sensible default for
    [~jobs]. *)

module Pool : sig
  type t

  val create : jobs:int -> t
  (** A pool that runs up to [jobs] tasks in parallel, clamped to
      [1 .. 64] (at most [jobs - 1] worker domains plus the submitting
      domain: OCaml 5 runs at most 128 domains at once, and the clamp
      leaves the rest to the submitters).  No domain is spawned here —
      workers appear on the first {!run} that can use them. *)

  val jobs : t -> int

  val spawned : t -> int
  (** Worker domains actually spawned so far (grows with demand, [0]
      until a parallel batch arrives, reset by {!shutdown}). *)

  val shutdown : t -> unit
  (** Drains queued tasks, stops the workers and joins their domains.
      All pool state is read and written under the internal mutex, so a
      concurrent {!spawned} probe or a batch still in flight observes a
      consistent pool; a batch racing [shutdown] still completes (its
      submitting domain drains what the stopped workers leave behind),
      but no {e new} batch may be submitted once [shutdown] begins. *)

  val with_pool : jobs:int -> (t -> 'a) -> 'a
  (** [create], run, then [shutdown] (also on exception). *)

  val run : t -> int -> (int -> unit) -> unit
  (** [run p n f] executes [f 0 .. f (n-1)], distributing indices over
      the pool, and returns when all have completed.  If any task raises,
      one of the exceptions is re-raised in the caller after all tasks
      finish.  Effects made by the tasks happen-before the return. *)

  val map : t -> ('a -> 'b) -> 'a list -> 'b list
  (** Parallel [List.map] with deterministic (input-order) results. *)

  val find_first :
    ?found:bool Atomic.t -> t -> ('a -> 'b option) -> 'a list -> 'b option
  (** [find_first p f xs] returns [f x] for the {e first} element (in
      list order) on which [f] answers [Some _], or [None].  The result
      is deterministic — identical to [List.find_map f xs] whenever [f]
      is a pure function — but once some match is found, elements beyond
      it are cancelled (their [f] is never started), which is the
      counterexample short-circuit of the partitioned checker.

      [found], when given, is set to [true] the moment {e any} match is
      recorded — before in-flight siblings finish — so a long-running
      [f] can poll it and stop early (cooperative cancellation). *)
end
