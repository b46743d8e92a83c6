(** Combinational equivalence checking.

    The paper reduces sequential verification to combinational verification
    and hands the result to "an in-house tool similar to [10, 12]".  This is
    that tool: three engines over the {!Seqprob.t} problem IR — one shared
    structurally-hashed AIG holding both sides' output cones over a typed
    variable universe — optionally run in parallel over cone-clustered
    output partitions of the miter.

    {!check_problem_with_stats} is the one entry point; the unrollers
    ({!Cbf}, {!Edbf}) build problems directly, and {!of_circuits} wraps two
    combinational netlists into a problem (inputs matched {e by name} —
    each name becomes the variable [Seqprob.Var.time name 0], and the
    universe is the union of both input sets; outputs are matched by
    position). *)

type counterexample = (Seqprob.Var.t * bool) list
(** Assignment to (a subset of) the problem's variables; unlisted variables
    are [false]. *)

type verdict =
  | Equivalent
  | Inequivalent of counterexample
  | Undecided of string
      (** the check gave up within its resource {!limits}; the string is a
          human-readable reason ("SAT conflict budget", "BDD node ceiling",
          "partition deadline", "cancelled", prefixed by the partition) *)

(** The engine a check starts on.  Every front end ([Verify.check],
    [Hier.check], the CLI and the server) starts on [Sweep_engine]; the
    SAT and BDD engines are the rungs of its escalation ladder, and the
    benchmark's engine ablation, [Redundancy] and the tests' engine
    cross-checks start on them directly. *)
type engine =
  | Bdd_engine  (** monolithic BDDs over the AIG, one variable per input *)
  | Sat_engine  (** one CNF miter, one SAT call *)
  | Sweep_engine
      (** FRAIG sweep: candidate classes from random simulation, refined
          by every SAT counterexample; each node is merged into its class
          head by incremental SAT, then a miter check on the swept AIG.
          A (sub)problem with at most {!exhaustive_inputs} inputs
          is simulated on every input pattern instead, so its classes are
          exact and merge without SAT: an equivalent one makes no SAT
          call, an inequivalent one a single call for its
          counterexample *)

val exhaustive_inputs : int
(** 12: the sweep simulates a (sub)problem with at most this many inputs
    on all of its input patterns, and then needs no SAT call to prove a
    merge.  Set from measurement (DESIGN.md §11): up
    to 12 inputs the enumeration beat the SAT merges on every pair
    measured, while at 15 inputs it took ten times as long as SAT on
    s1196's H-vs-J check. *)

type limits = {
  sat_conflicts : int option;
      (** base conflict budget per SAT call; the escalation ladder's SAT
          rung multiplies it *)
  bdd_nodes : int option;
      (** approximate live-node ceiling for the BDD engine *)
  seconds : float option;
      (** wall-clock deadline per partition, covering every escalation
          rung spent on it *)
  escalate : bool;
      (** when a budget blows, climb the engine ladder (bigger-budget SAT,
          then BDD) before answering [Undecided] *)
}
(** Resource limits for one check.  [None] caps are unlimited. *)

val no_limits : limits
(** No caps, escalation on — engines run to completion (the pre-budget
    behavior); only cross-partition cancellation can interrupt them. *)

val default_limits : limits
(** Generous defaults (50k conflicts per SAT call, 2M BDD nodes, no
    deadline, escalation on) that stop runaway solves without affecting
    easy problems. *)

type stats = {
  mutable sat_calls : int;  (** SAT solver invocations *)
  mutable sim_rounds : int;
      (** 64-pattern simulation words (sweep): 4 random ones per sweep,
          plus one per SAT counterexample that refined its classes; an
          exhaustive sweep of [n] inputs simulates max(1, 2{^ n-6}) *)
  mutable partitions : int;
      (** output-cone clusters checked — the {!Layout}'s verdict units
          (1 = monolithic) *)
  mutable cache_hits : int;
      (** partitions answered from the in-memory result cache *)
  mutable store_hits : int;
      (** partitions answered from the persistent verdict store (disjoint
          from [cache_hits]: a verdict promoted into memory counts here
          once, then as a cache hit on repeats) *)
  mutable store_writes : int;
      (** verdicts appended write-through to the persistent store *)
  mutable cache_evictions : int;
      (** entries dropped from the in-memory cache by its capacity bound *)
  mutable conflicts : int;  (** SAT conflicts spent, summed over all calls *)
  mutable budget_hits : int;
      (** engine runs stopped by a blown conflict budget or node ceiling *)
  mutable deadline_hits : int;
      (** engine runs stopped by a blown partition deadline *)
  mutable cancelled : int;
      (** engine runs stopped because a sibling cluster's counterexample
          decided the check (cross-partition cancellation); never a
          deadline hit *)
  mutable escalations : int;  (** ladder rungs climbed after a blown budget *)
  mutable undecided : int;
      (** partitions left undecided by a budget or deadline; a partition
          abandoned because a sibling found a counterexample does not
          count *)
  mutable elapsed_seconds : float;
      (** true wall clock of the whole check (monotonic), including
          partitioning and cache probing *)
  mutable partition_seconds : float;
      (** wall clock spent computing the partition layout (output
          clustering, cost estimation and sub-AIG extraction); [0.] for a
          check that computed none: [~partition:false], or a small-support
          problem the sweep enumerates in one piece *)
  mutable bdd_seconds : float;
      (** CPU-seconds spent in each engine, summed across clusters.  The
          three buckets are {e disjoint}: time inside [Sat.solve] is
          always SAT time ([sat_seconds]), wherever the call came from —
          the sweep engine's merge queries included — and each engine's
          bucket gets the remainder of its runs' wall time.  In parallel
          mode clusters overlap in time, so the sums can legitimately
          {e exceed} [elapsed_seconds] — compare against
          [elapsed_seconds] for the wall-clock story *)
  mutable sat_seconds : float;
  mutable sweep_seconds : float;
}
(** Per-check statistics: the one record of a check's counters and
    timings, which [Verify.stats], [seqver verify], Table 1 and the
    server's responses and trace ring all read.  While a check runs, each
    partition accumulates into its own [stats] (concurrent checks, and the
    partitions within one check, never share one); the partitions are then
    summed into the returned value.  The fields are mutable only for that
    accumulation: Cec never writes a [stats] value after returning it, so
    the caller owns it outright.  All [*_seconds] fields are derived from
    the {!Obs} span instrumentation (monotonic clock) and are measured
    whether or not tracing is enabled; {!stats_pp} prints both the wall
    clock and the per-engine CPU-second sums. *)

val fresh_stats : unit -> stats
(** Every counter and every second at zero: the stats of a check that
    ran no engine. *)

val stats_pp : Format.formatter -> stats -> unit
(** One-line rendering printing {e every} field: counters, the elapsed
    wall clock (with the partitioning share) and the per-engine
    CPU-seconds (labelled as such, since they can exceed the wall clock
    in parallel runs). *)

(** Structural-hash result cache.  Keyed by the purely structural canonical
    AIG signature of an output-cone pair (see {!Aig.cone_signature});
    structurally identical cone pairs — common across the Table-1 variants
    of one circuit, across unrolling depths, and under renamed inputs —
    are proven once.  Counterexamples are stored over canonical input
    positions (first-visit DFS order) so a hit replays under the hitting
    problem's own typed variables.  Safe to share across domains and
    across checks.

    The in-memory index is {e bounded}: growing past [capacity] triggers a
    batch eviction of the least-recently-hit entries down to 3/4 of
    capacity (counted in {!type-stats}[.cache_evictions]), so arbitrarily
    long runs hold at most [capacity] verdicts in memory.  With a [store]
    backing, misses fall through to the persistent store (a disk hit is
    promoted back into memory) and new verdicts are written through —
    evicted entries are therefore recoverable, and verdicts survive the
    process.  [Undecided] answers are never cached or persisted. *)
module Cache : sig
  type t

  val create : ?capacity:int -> ?store:Store.t -> unit -> t
  (** [create ()] is unbacked at the default capacity; [~store] makes the
      cache write-through to (and fall back on) a persistent store. *)

  val clear : t -> unit
  (** Drops the in-memory index only; a backing store is untouched. *)

  val size : t -> int
end

module Layout = Layout
(** Cost-model-driven partition layout: overlap clustering into
    {e clusters} (the verdict, cache-key and pool-task units), a
    [nodes × depth] cone cost estimate, and a monolithic fast path below a
    total-cost threshold.  See {!Layout.compute}. *)

module Lru = Lru
(** The bounded table with batch least-recently-hit eviction under
    {!Cache}'s in-memory index. *)

val check_problem_with_stats :
  ?engine:engine ->
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?partition:bool ->
  ?limits:limits ->
  ?cache:Cache.t ->
  Seqprob.t ->
  verdict * stats
(** Decides equivalence of the problem's two output-cone groups and
    returns the per-check statistics with the verdict.  Default engine:
    [Sweep_engine]; default limits: {!no_limits}.

    The split is {e adaptive} at every [jobs] level, driven by the
    {!Layout} cost model: below a total-cost threshold the whole miter is
    checked in one piece (no {!Par.Pool} spin-up — small problems never
    pay for partitioning), and above it the miter is split into
    output-cone {e clusters} — each an independent check by soundness of
    output splitting.  Output pairs whose fanin cones (in the shared AIG)
    overlap by at least half of the smaller cone are clustered together
    (so shared logic is swept once); each cluster is checked — and cached
    — on its own, as one pool task.  The layout depends only on the
    problem — never on [jobs], never on cache state — so verdicts and
    cache keys are identical at every parallelism level; [jobs] only
    sizes the pool.  [~partition:true] forces the clustered path
    regardless of cost; [~partition:false] forces the monolithic check.
    Unforced, the sweep engine checks a problem with at most
    {!exhaustive_inputs} inputs in one piece whatever its cost, without
    computing a layout, when its enumeration simulates at most 2{^ 20}
    word-nodes (64-pattern words times graph nodes): below that, one
    exhaustive sweep costs less than laying the problem out.
    Clusters are carved out of the problem graph with {!Aig.extract} — no
    netlist round-trip — and run heaviest first (ties by cluster index)
    on a lazily spawned {!Par.Pool} of at most [min jobs clusters]
    domains; at [jobs = 1] they run in that order on the calling
    domain.

    {b Shared pools.}  [pool] runs the partitioned search on a
    caller-owned pool instead of a per-check one: the pool is {e not}
    shut down afterwards, and — because {!Par.Pool} is safe under
    concurrent submitters — many simultaneous checks (the verification
    server's concurrent requests) may share one pool, whose lazy
    demand-driven sizing never spawns more domains than outstanding
    clusters warrant.  When [pool] is given and [jobs] is not, the
    parallelism level defaults to the pool's [jobs]; an explicit
    [~jobs:1] runs this one check's clusters on the calling domain, not
    on the pool, and any other [jobs] runs them on the whole pool.

    {b Budgets.}  With [limits] set, each cluster checks under its own
    wall-clock deadline and each SAT call / BDD build under its resource
    cap; a blown budget climbs the escalation ladder (requested engine at
    base budget → SAT at a larger conflict budget → BDD under the node
    ceiling) before giving up.  A partition that still cannot be decided
    makes the overall verdict [Undecided] — unless some other partition
    finds a counterexample, which always wins.  Budgets never flip a
    verdict: anything short of a full proof or a concrete counterexample
    is reported as [Undecided], never as [Equivalent].

    {b Cancellation.}  The moment any partition finds a counterexample a
    shared flag is set, every in-flight sibling solver stops mid-solve,
    and no cluster starts after it.  The {e verdict} is still
    deterministic, but under parallel cancellation the reported
    counterexample may come from any failing partition (at [jobs = 1]
    clusters run in task order, so it is the first failing one in that
    order).

    {b Caching.}  A fresh {!Cache} is used per check unless [cache]
    supplies a shared one; a persistent verdict store is attached through
    the cache ([~cache:(Cache.create ~store ())]).  [Undecided] answers
    are never cached.

    @raise Invalid_argument if the two output groups differ in length
    (impossible for problems built by {!Seqprob.problem}). *)

val of_circuits : Circuit.t -> Circuit.t -> Seqprob.t
(** Wraps two combinational circuits into a problem via
    {!Seqprob.of_circuits} (inputs united by name at time 0), for
    [check_problem_with_stats (of_circuits c1 c2)].
    @raise Invalid_argument if either circuit contains latches or the
    output counts differ. *)

val counterexample_is_valid :
  Circuit.t -> Circuit.t -> counterexample -> bool
(** Replays a counterexample on both circuits and confirms some output pair
    differs.  Signals are matched by full variable identity: a signal named
    ["x"] reads the value of variable [x@0], and a signal named ["x@1"] (an
    unrolled time frame) reads frame 1 of [x] — distinct frames of one
    input never collide.  For problem-level replay use
    {!Seqprob.cex_is_valid}. *)
