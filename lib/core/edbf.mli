(** Event-Driven Boolean Functions (Sections 4.2, 5.2) — the one unroller.

    Extends CBF unrolling to load-enabled latches: the value of an enabled
    latch at evaluation context [(d, E)] (delay [d] relative to the event
    [E]) is its data input at context [(0, push(pred, E))], where [pred] is
    the semantic predicate of its enable at shift [d].  Unrolled input
    variables are the typed [Seqprob.Var.at source ~shift ~event] — event
    identities are drawn from a {!Events.table} that must be {e shared}
    between the two circuits being compared, which is exactly what makes
    the integer event id a sound part of the variable's identity.

    Along a path that crosses no enable the event stays {!Events.empty},
    and the traversal is the CBF's (Fig. 7 as the special case of Fig. 8):
    a sample at shift [d] of the empty event {e is} the CBF variable
    [Seqprob.Var.time source d].  So a circuit with regular latches only
    unrolls to exactly its CBF, and {!Cbf.unroll} is this traversal over a
    fresh table.  The table's BDD manager is created by the first enable
    crossed, so such an unroll builds no BDD at all.

    The check is {e conservative} (Theorem 5.2): equal unrollings imply
    equivalence for circuits related by enable-class-preserving synthesis,
    but false negatives exist (Figs. 10, 11); the rule-(5) rewrite in
    {!Events} removes the Fig. 10 class. *)

type info = {
  depth : int;  (** largest delay used in any context *)
  variables : int;  (** distinct unrolled variables of this unroll *)
  events : int;  (** distinct events in the shared table after unrolling *)
  replication : int;  (** gate instances translated (before hashing) *)
  hidden_enabled : string option;
      (** the first load-enabled latch, not exposed, that the traversal
          crossed (by name); [None] when every sample is a CBF time frame
          — what {!Cbf.unroll} diagnoses *)
}

val unroll :
  ?guard:bool ->
  table:Events.table ->
  ?exposed:(Circuit.signal -> bool) ->
  Seqprob.builder ->
  Circuit.t ->
  (Aig.lit list * info, Seqprob.diagnosis) result
(** Unrolls into the builder's shared AIG, returning the output cones, in
    one [unroll] span.

    With [~guard:true] (default false), every unrolled output is weakened
    by the {e event-consistency} facts — the head predicate of each event
    held at the instant the event denotes — so the comparison becomes
    [facts → outputs equal].  This is a sound refinement implementing the
    paper's future-work direction ("a complete technique to distinguish
    events and combination of events and signals"): data functions that
    differ only where their enable is false no longer cause false
    negatives.  Both circuits sharing the table build identical guards
    over the same typed variables.  A traversal that crosses no enable
    has no facts, so the guard leaves its outputs as they are.

    Outputs: primary outputs in order at the empty event, then for every
    exposed latch (in name order) its data function, then for every
    exposed load-enabled latch (in name order) its enable function.  An
    exposed latch's output is a fresh variable, so exposure also breaks
    sequential cycles.  Diagnoses: [Non_exposed_cycle] for a sequential
    cycle with no exposed latch. *)
