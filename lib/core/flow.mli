(** The experimental flow of Fig. 19 (Section 8).

    From an original circuit [A]:
    - [B]: [A] with a minimal feedback vertex set of latches exposed
      (their outputs are made observable, i.e. added to the primary
      outputs, and they are pinned during retiming);
    - [C]: [B] after delay-oriented synthesis and minimum-period retiming;
    - [D]: [A] after combinational synthesis only;
    - [E]: [B] after synthesis and minimum-area retiming constrained to
      [D]'s delay;
    - [F]: like [C] but from the unmodified [A] (measures the optimization
      penalty of exposure): [D] retimed for the minimum period;
    - [G]: like [E] but from the unmodified [A]: [D] retimed for minimum
      area;
    - [H]/[J]: CBF unrollings of [B] and [C], checked by combinational
      equivalence (Table 1's "H vs J" time). *)

type metrics = { latches : int; area : int; delay : int }

type row = {
  name : string;
  a : metrics;
  exposed : int;
  exposed_percent : float;
  b : metrics;
  c : metrics;
  d : metrics;
  e : metrics;
  f : metrics;
  g : metrics;
  verify_verdict : Verify.verdict;
  verify_stats : Verify.stats;
      (** the H-vs-J check's own statistics; its [seconds] is Table 1's
          "H vs J" time *)
  stage_seconds : (string * float) list;
      (** wall clock per pipeline stage, in execution order: ["B"]; ["D"];
          ["C"]; ["E"]; ["F"]; ["G"]; ["verify"].  Derived from the {!Obs}
          stage spans (monotonic clock), measured whether or not tracing
          is enabled.  F and G retime D's netlist, so ["F"] covers only
          F's retiming (D's entry holds the synthesis they share). *)
}

val metrics_of : Circuit.t -> metrics

val run :
  ?jobs:int ->
  ?limits:Cec.limits ->
  ?cache:Cec.Cache.t ->
  ?period:int ->
  Circuit.t ->
  (row, Seqprob.diagnosis) result
(** Runs the full pipeline on a regular-latch circuit.  The retiming
    stages are sequential; [jobs], [limits] and [cache] are passed to the
    H-vs-J combinational check (see {!Verify.check}; a
    [Cec.Cache.create ~store] cache persists its verdicts); a blown
    budget surfaces as a [Verify.Undecided _] verdict in the row, never as
    an error.  [period], when given, replaces [D]'s
    delay as the clock-period target for the area-constrained retimings
    [E]/[G]; a user-supplied period is a hard constraint, so an
    unachievable one yields [Error (Infeasible_period _)] (the default
    target silently degrades to the minimum feasible period instead).

    Load-enabled latches yield [Error (Hidden_enabled_latch _)]: like the
    paper (which lacked a retiming tool for them), the optimizing flow
    covers regular latches; load-enabled circuits get {!exposure_report},
    {!Verify.check}, and {!Classes.min_period_single_class} instead.  Any
    diagnosis from the embedded {!Verify.check} propagates unchanged. *)

val regular_latches_only : Circuit.t -> (unit, Seqprob.diagnosis) result
(** [Error (Hidden_enabled_latch _)] naming the first load-enabled latch:
    retiming covers regular latches only. *)

val circuits : Circuit.t -> (Circuit.t * Circuit.t, Seqprob.diagnosis) result
(** Just [B] and [C] (exposed + optimized), for callers that want to verify
    or inspect them separately. *)

val exposure_report : Circuit.t -> int * int * int
(** [(total_latches, structural_exposed, functional_exposed)] — the Table 2
    numbers plus the paper's predicted improvement from unateness
    analysis. *)
