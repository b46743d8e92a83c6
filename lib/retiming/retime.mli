(** Top-level retiming transformations on netlists. *)

type report = {
  period_before : int;
  period_after : int;
  latches_before : int;
  latches_after : int;
}

type error = Infeasible_period
(** The one input-dependent failure mode of constrained retiming: the
    requested clock period is below the graph's minimum feasible period. *)

val min_period :
  ?exposed:(Circuit.signal -> bool) ->
  ?pool:Par.Pool.t ->
  Circuit.t ->
  Circuit.t * report
(** Retimes for the minimum feasible clock period, then minimizes latch
    count under that period.  [exposed] latches stay in place (pseudo-I/O).
    The circuit must contain only regular latches.  [pool] is accepted
    and unused: both retimings are sequential. *)

val constrained_min_area :
  ?exposed:(Circuit.signal -> bool) ->
  ?pool:Par.Pool.t ->
  period:int ->
  Circuit.t ->
  (Circuit.t * report, error) result
(** Minimizes latch count subject to a clock-period bound.
    [Error Infeasible_period] if the period is infeasible.  [pool] is
    accepted and unused. *)

val min_area :
  ?exposed:(Circuit.signal -> bool) -> Circuit.t -> Circuit.t * report
(** Minimizes latch count with no period constraint: {!Minarea.solve}
    at the total delay, which no path exceeds. *)
