(** Minimum-area retiming as a dual min-cost-flow (the algorithm underlying
    Minaret [6]).

    Minimizes the per-edge latch total [Σ_e w_r(e)] subject to legality
    ([w_r(e) ≥ 0]) and, optionally, a clock-period bound implemented by the
    classical [W]/[D]-matrix constraints: [r(u) − r(v) ≤ W(u,v) − 1] for
    every vertex pair with [D(u,v) > c].  As in Minaret, the LP is bounded
    first: {!Feas.bounds} gives every label's exact range at the period,
    a vertex whose range is one value is fixed, and the constraints those
    ranges imply are never built.  The W/D searches run from the free
    vertices only and stop where every further target is implied;
    dominated period constraints (implied by an earlier violating vertex
    on the same shortest path plus the base edge constraints) are pruned
    too, and the flow runs over the free vertices and the host. *)

val solve : ?period:int -> ?pool:Par.Pool.t -> Rgraph.t -> int array option
(** Normalized, legal labels, or [None] iff the requested period is
    infeasible (without [period] the base constraint system is always
    satisfiable, so the result is always [Some]).

    The labels are latch-minimal without [period], and with one on a
    graph of at most 4,000 vertices whose packed [W]/[D] Dijkstra keys fit
    an int, which holds unless (latch total + 1) × (delay total + 1)
    exceeds about [max_int / 2^(⌈log2 n⌉ + 2)].  In that exact mode the
    bounds decide infeasibility before any constraint is built, and a
    result that misses the period or breaks its own constraints is an
    internal error ([Failure]), never a [None].  Any other graph skips the
    quadratic [W]/[D] constraint generation and takes the FEAS-repair
    mode: the period's {!Feas.bounds} decide infeasibility before the
    flow runs, and an unconstrained optimum that misses the period is
    repaired by one {!Feas.feasible} pass, started from it clamped into
    those bounds.  The repair meets the period but may keep more latches
    than the minimum.

    Among equally small per-edge totals the labeling returned is the one
    the flow lands on; {!Rgraph.apply} shares fanout latches, so the
    circuit's latch count can differ between such optima.

    [pool] parallelizes the per-source W/D Dijkstras of the constraint
    generation; the result does not depend on it. *)
