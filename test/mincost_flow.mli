(** Minimum-cost flow by scaling successive shortest paths with potentials:
    a test oracle that solves the min-area retiming LP on its dual.  The
    dual of
    [min Σ a(v)·r(v)  s.t.  r(u) − r(v) ≤ b(u,v)] is a min-cost flow whose
    optimal node potentials give the optimal retiming labels. *)

type arc = { src : int; dst : int; capacity : int; cost : int }

type result = {
  flow : int array;  (** flow on each arc, in input order *)
  potentials : int array;
      (** node potentials [π] with [cost + π(src) − π(dst) ≥ 0] on every
          residual arc at optimality *)
  total_cost : int;
}

val solve :
  ?init_potentials:int array ->
  nodes:int ->
  arcs:arc list ->
  int array ->
  result option
(** [solve ~nodes ~arcs supply] computes a feasible min-cost flow where node
    [v] has net outflow [supply.(v)] (positive = source, negative = sink).
    Supplies must sum to zero.  Returns [None] when no feasible flow
    exists.

    [init_potentials] seeds the node potentials, skipping the Bellman–Ford
    initialization pass, for a caller that already ran one over the same
    constraint system.  They must be reduced-cost feasible
    ([cost + π(src) − π(dst) ≥ 0] on every arc with positive capacity).

    @raise Invalid_argument on malformed input: sizes, negative capacities,
    supplies not summing to zero, potentials that are not reduced-cost
    feasible, or a negative-cost cycle of positive-capacity arcs (whose
    min-cost circulation would be unbounded below). *)
