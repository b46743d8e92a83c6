(** Event-Driven Boolean Functions (Sections 4.2, 5.2).

    Extends CBF unrolling to load-enabled latches: the value of an enabled
    latch at evaluation context [(d, E)] (delay [d] relative to the event
    [E]) is its data input at context [(0, push(pred, E))], where [pred] is
    the semantic predicate of its enable at shift [d].  Unrolled input
    variables are the typed [Seqprob.Var.at source ~shift ~event] — event
    identities are drawn from a {!Events.table} that must be {e shared}
    between the two circuits being compared, which is exactly what makes
    the integer event id a sound part of the variable's identity.

    The check is {e conservative} (Theorem 5.2): equal unrollings imply
    equivalence for circuits related by enable-class-preserving synthesis,
    but false negatives exist (Figs. 10, 11); the rule-(5) rewrite in
    {!Events} removes the Fig. 10 class. *)

type info = {
  depth : int;  (** largest delay used in any context *)
  variables : int;  (** distinct unrolled variables of this unroll *)
  events : int;  (** distinct events in the shared table after unrolling *)
  replication : int;  (** gate instances translated (before hashing) *)
}

val unroll :
  ?guard:bool ->
  table:Events.table ->
  ?exposed:(Circuit.signal -> bool) ->
  Seqprob.builder ->
  Circuit.t ->
  (Aig.lit list * info, Seqprob.diagnosis) result
(** Unrolls into the builder's shared AIG, returning the output cones.

    With [~guard:true] (default false), every unrolled output is weakened
    by the {e event-consistency} facts — the head predicate of each event
    held at the instant the event denotes — so the comparison becomes
    [facts → outputs equal].  This is a sound refinement implementing the
    paper's future-work direction ("a complete technique to distinguish
    events and combination of events and signals"): data functions that
    differ only where their enable is false no longer cause false
    negatives.  Both circuits sharing the table build identical guards
    over the same typed variables.

    Outputs: primary outputs in order, then exposed-latch data functions
    (name order), then exposed-latch enable functions (name order, enabled
    latches only) — the same convention as {!Cbf.unroll}.  Diagnoses:
    [Non_exposed_cycle] for a sequential cycle with no exposed latch. *)
