(** Minimum-area retiming as a dual min-cost-flow (the algorithm underlying
    Minaret [6]).

    Minimizes the latches {!Rgraph.apply} keeps, subject to legality
    ([w_r(e) ≥ 0]) and, optionally, a clock-period bound implemented by
    the classical [W]/[D]-matrix constraints: [r(u) − r(v) ≤ W(u,v) − 1]
    for every vertex pair with [D(u,v) > c].  The edges of a fanout group
    ([Rgraph.t.groups]) share one latch chain, so the group keeps its
    heaviest retimed edge; a group of [k > 1] edges into [v_i] of weights
    [w_i] gets a mirror vertex [m] with [r(v_i) − r(m) ≤ w_max − w_i] and
    objective term [r(m) − r(src)] (Leiserson & Saxe's fanout sharing),
    a single edge keeps its own term.

    As in Minaret, the LP is bounded first: {!Feas.bounds} gives every
    label's exact range at the period, a mirror's range is
    [max_i (lb(v_i) − (w_max − w_i))] to the same maximum over the upper
    bounds, a vertex or mirror whose range is one value is fixed, and the
    constraints those ranges imply are never built.  The W/D searches run
    from the free vertices only and stop where every further target is
    implied; dominated period constraints (implied by an earlier
    violating vertex on the same shortest path plus the base edge
    constraints) are pruned too, and the flow runs over the free vertices,
    the free mirrors and the host. *)

val solve : ?period:int -> ?pool:Par.Pool.t -> Rgraph.t -> int array option
(** Normalized, legal labels that minimize [Circuit.latch_count
    (Rgraph.apply g ~r)] among the labelings meeting [period], or [None]
    iff the requested period is infeasible (without [period] the base
    constraint system is always satisfiable, so the result is always
    [Some]).  The bounds decide infeasibility before any constraint is
    built, and a result that misses the period or breaks its own
    constraints is an internal error ([Failure]), never a [None].

    [pool] parallelizes the per-source W/D Dijkstras of the constraint
    generation; the result does not depend on it.

    @raise Invalid_argument when [period] is given and the packed W/D
    Dijkstra keys do not fit an int: when (latch total + 1) × (delay
    total + 1) exceeds about [max_int / 2^(⌈log2 n⌉ + 2)]; and as
    {!Feas.bounds} does. *)
