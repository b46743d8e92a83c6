(** A CDCL SAT solver.

    Conflict-driven clause learning with two-literal watches, first-UIP
    learning, VSIDS branching, phase saving, Luby restarts and
    activity-based learned-clause deletion.

    Decisions are deterministic: the solver branches on the unassigned
    variable of highest VSIDS activity, ties to the lower variable (see
    {!Order}), in its saved phase.  The same clauses, added in the same
    order and solved under the same assumptions, give the same decisions,
    conflicts and answers.

    Literals use the DIMACS convention: variables are positive integers
    [1..nvars]; a negative integer denotes negation.  Variables are created
    on demand by {!new_var} or implicitly by {!add_clause}. *)

module Order = Order
(** The VSIDS decision order: variable activities and an indexed max-heap
    that holds each variable at most once. *)

type t

type result = Sat | Unsat | Unknown

type budget = {
  max_conflicts : int option;
  max_propagations : int option;
  max_seconds : float option;
}
(** Resource limits for a single {!solve} call.  Each cap is relative to the
    call (a shared solver gets a fresh budget every time).  [None] means
    unlimited. *)

val budget :
  ?conflicts:int -> ?propagations:int -> ?seconds:float -> unit -> budget

val create : unit -> t

val new_var : t -> int
(** Allocates the next variable (1-based). *)

val add_clause : t -> int list -> unit
(** Adds a clause.  The empty clause makes the instance trivially
    unsatisfiable.  @raise Invalid_argument on literal 0. *)

val solve :
  ?assumptions:int list -> ?budget:budget -> ?cancel:bool Atomic.t -> t -> result
(** Decides satisfiability under the given assumption literals.  The solver
    may be re-used: clauses persist across calls, assumptions do not.

    When a [budget] cap is exceeded, or [cancel] reads [true] (it is polled
    once per search-loop iteration, so an external thread can stop a running
    solve), the answer is [Unknown].  An interrupted solver remains valid:
    learnt clauses are kept and a later call may re-solve with a larger
    budget.  A zero conflict budget gives up before the first propagation. *)

val value : t -> int -> bool
(** [value s v] is the model value of variable [v] after a [Sat] answer
    (unassigned variables read [false]). *)

val stats : t -> int * int * int
(** [(conflicts, decisions, propagations)] since creation. *)
