(** The VSIDS decision order: per-variable activities and an indexed
    binary max-heap of variables (Eén & Sörensson, "An Extensible
    SAT-solver", SAT 2003).

    The heap orders variables by activity, highest first, ties to the
    lower variable, so the order is deterministic.  A position array maps
    each variable to its heap slot, so the heap holds a variable at most
    once and never grows past the number of variables.

    The solver keeps every unassigned variable in the heap.  An assigned
    variable may stay there until {!pop} returns it and the solver skips
    it.  Re-exported as [Sat.Order]. *)

type t

val create : unit -> t

val new_var : t -> unit
(** Adds the next variable (1-based) with activity [0.] and inserts it. *)

val activity : t -> int -> float

val insert : t -> int -> unit
(** Inserts a variable unless the heap already holds it. *)

val bump : t -> int -> unit
(** Adds the current increment to a variable's activity and moves it up
    if the heap holds it.  When an activity passes [1e100], every
    activity and the increment are scaled by [1e-100] and the heap is
    rebuilt: scaling can round distinct activities to equal ones, whose
    tie-break by variable may disagree with the old heap order. *)

val decay : t -> unit
(** Grows the increment by [1/0.95], so later bumps outweigh earlier
    ones. *)

val is_empty : t -> bool

val pop : t -> int
(** Removes and returns the highest-activity variable, ties to the lower
    variable.  @raise Invalid_argument when the heap is empty. *)

val elements : t -> int list
(** The variables the heap holds, in slot order. *)
