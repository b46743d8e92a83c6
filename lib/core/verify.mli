(** Sequential equivalence checking via combinational verification — the
    paper's headline reduction.

    Both circuits are unrolled by the one {!Edbf.unroll} traversal, over
    one shared event table, {e into one shared AIG} — the {!Seqprob}
    problem IR — and that problem is handed to the combinational
    equivalence checker, with no intermediate unrolled netlists.  A pair
    whose hidden latches are all regular crosses no enable and unrolls to
    its CBF; the method is [Edbf_method] exactly when either side has a
    load-enabled latch that is not exposed.  Latches listed in [exposed] (by name, which must exist in
    both circuits) are treated as pseudo-I/O, and their next-state
    functions are verified along with the outputs.

    Completeness: for acyclic regular-latch circuits the check is exact
    (Theorem 5.1).  With load-enabled latches it is sound but conservative
    (Theorem 5.2) — an [Inequivalent] answer may be a false negative, which
    the [counterexample] being [None] signals. *)

type method_ = Cbf_method | Edbf_method

type verdict =
  | Equivalent
  | Inequivalent of Cec.counterexample option
      (** [Some cex]: a replayable typed witness (CBF, exact).  [None]: the
          conservative EDBF check failed — possibly a false negative. *)
  | Undecided of string
      (** the combinational check gave up within its resource limits (see
          {!Cec.limits}); neither equivalence nor inequivalence was
          established *)

type stats = {
  method_ : method_;
  depth : int;
  variables : int;  (** united unrolled variable count (shared builder) *)
  events : int;  (** events in the shared table: 1 (just the empty
                     event) when no enable is crossed *)
  unrolled_nodes : int;
      (** AND nodes of the shared unrolled AIG, both sides — the miter
          size the engines actually see *)
  unrolled_gates : int * int;
      (** per-side gate replication before structural hashing — what each
          side would cost as a flat netlist unroll *)
  cec : Cec.stats;  (** full per-check combinational statistics *)
  unroll_seconds : float;
      (** wall clock spent unrolling both sides into the shared AIG
          (monotonic, measured whether or not tracing is enabled) *)
  seconds : float;  (** wall-clock of the whole check (monotonic) *)
}

type outcome = { verdict : verdict; stats : stats }

val exposed_pred :
  Circuit.t ->
  string list ->
  (Circuit.signal -> bool, Seqprob.diagnosis) result
(** Resolves exposed-latch names to a signal predicate.  Every name must
    exist and be a latch output: [Error (No_such_latch _)] otherwise.
    This is the one shared resolution used by {!check}, {!Flow.run} and
    [seqver retime --exposed]. *)

val check :
  ?jobs:int ->
  ?pool:Par.Pool.t ->
  ?limits:Cec.limits ->
  ?cache:Cec.Cache.t ->
  ?rewrite_events:bool ->
  ?guard_events:bool ->
  ?exposed:string list ->
  Circuit.t ->
  Circuit.t ->
  (outcome, Seqprob.diagnosis) result
(** [rewrite_events] (default true) applies the paper's rule (5);
    [guard_events] (default false) additionally applies the
    event-consistency refinement of {!Edbf.unroll} — a sound strengthening
    beyond the published method that removes more EDBF false negatives.
    The unrolled miter goes to the one combinational checker, the sweep
    with its escalation ladder ({!Cec.check_problem_with_stats}).
    [jobs] (default 1) is the number of domains that run the
    combinational check's output-cone clusters; whether the check is
    partitioned at all is the cost model's decision, the same at every
    [jobs] (see {!Cec.check_problem_with_stats});
    [pool] runs it on a caller-owned (possibly shared) pool instead, which
    is left running afterwards — the verification server passes one pool
    to every concurrent request; [limits] (default {!Cec.no_limits})
    bounds the checker and its ladder and turns a blown budget into an
    [Undecided] verdict; [cache] shares a combinational result cache
    across checks, backed by a persistent verdict store when created with
    [Cec.Cache.create ~store].

    Diagnoses instead of exceptions: [No_such_latch] when an exposed name
    is missing or not a latch, [Non_exposed_cycle] when a sequential cycle
    survives the exposure, [Output_arity_mismatch] when the two sides
    disagree on output count. *)

(** {1 Counterexample replay}

    A CBF counterexample assigns typed variables [{base; index = Time d}]
    (source [base], [d] cycles before the failing cycle).  These helpers
    turn it back into a concrete input sequence and confirm it on the
    original circuits — no string parsing involved. *)

val cex_to_sequence : Circuit.t -> Cec.counterexample -> bool array list
(** [cex_to_sequence c cex] is an input sequence for [c] (vectors in
    [Circuit.inputs] order) of length [depth+1] whose last cycle is the
    failing one.  Variables not mentioned in [cex] (including exposed-latch
    variables, which cannot be driven) read [false]; variables whose base
    is not an input of [c] are ignored, so the same counterexample yields
    each circuit's own sequence even when the input sets differ. *)

val confirm_cex :
  ?exposed:string list ->
  Circuit.t ->
  Circuit.t ->
  Cec.counterexample ->
  bool
(** Replays per-circuit sequences on both circuits under the exact
    3-valued semantics (all power-up states, with exposed-latch variables
    forced through their [cex] values where the latch still exists) and
    checks that some output differs at the final cycle.  Each circuit
    replays over its own input list, so counterexamples over asymmetric
    (united) input sets are honoured on both sides.  Only meaningful for
    pairs rejected through the CBF path. *)
