(** Events for Event-Driven Boolean Functions (Section 4.2).

    An event is an ordered list of enable predicates; [η(E)] denotes the
    most recent instant after which the predicates fired in order.  Here a
    predicate is represented {e semantically}: as a BDD over
    [(source, shift)] variables, where a source is a primary input or latch
    output {e name} (names of latch outputs are preserved by the synthesis
    passes, and enabled circuits are not retimed — matching the paper's
    experimental setup).  Two circuits being compared must share one
    {!table} so that equal predicates receive equal identities.

    The table optionally applies the paper's rewrite rule (5): when pushing
    predicate [p] onto an event whose head predicate [q] satisfies
    [q ⇒ p], the push is the identity ([η[p,·] = η[·]]) — this removes the
    Fig. 10 class of false negatives.  Disable it to measure the effect
    (the ablation of DESIGN.md). *)

type table

type event = int
(** Hash-consed event identity; equal ids = equal events. *)

val create : ?rewrite:bool -> unit -> table
(** A fresh shared table ([rewrite] defaults to [true]). *)

val man : table -> Bdd.man
(** The BDD manager in which predicates live, created on first use (an
    unrolling that crosses no enable never creates one). *)

val empty : event

val pred_var : table -> source:string -> shift:int -> Bdd.t
(** The predicate variable for [source] delayed by [shift] cycles. *)

val push : table -> pred:Bdd.t -> event -> event
(** [push t ~pred e] is the event [pred :: e], normalized by rule (5) when
    enabled. *)

val elements : table -> event -> Bdd.t list
(** Predicates of the event, most recent first. *)

val count : table -> int
(** Number of distinct events interned so far. *)

val to_string : table -> event -> string
(** Stable, human-readable key (used in unrolled variable names). *)

val var_source : table -> int -> string * int
(** [(source, shift)] behind a predicate-BDD variable index.
    @raise Not_found for unknown indices. *)

val decompose : table -> event -> (Bdd.t * event) option
(** [decompose t e] is [Some (head_predicate, tail_event)] for a non-empty
    event, [None] for {!empty}. *)
