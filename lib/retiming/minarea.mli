(** Minimum-area retiming as a dual min-cost-flow (the algorithm underlying
    Minaret [6]).

    Minimizes the per-edge latch total [Σ_e w_r(e)] subject to legality
    ([w_r(e) ≥ 0]) and, optionally, a clock-period bound implemented by the
    classical [W]/[D]-matrix constraints: [r(u) − r(v) ≤ W(u,v) − 1] for
    every vertex pair with [D(u,v) > c].  Dominated period constraints
    (implied by an earlier violating vertex on the same shortest path plus
    the base edge constraints) are pruned before the flow sees them, and
    the Bellman–Ford feasibility distances seed the flow's potentials. *)

val solve :
  ?period:int ->
  ?max_exact_vertices:int ->
  ?pool:Par.Pool.t ->
  ?reference:bool ->
  Rgraph.t ->
  int array option
(** Optimal (normalized, legal) labels, or [None] iff the requested period
    is infeasible (without [period] the base constraint system is always
    satisfiable, so the result is always [Some]).  When a period is
    requested and the graph has more than [max_exact_vertices] (default
    4000) vertices, the quadratic [W]/[D] constraint generation is
    skipped: the unconstrained optimum is repaired with FEAS iterations
    instead (area-suboptimal but period-legal).

    [pool] parallelizes the per-source W/D Dijkstras of the constraint
    generation.  [reference] (default false) routes the whole solve
    through the retained original implementations — unpruned constraint
    generation, the pre-scaling flow core, naive FEAS repair — for
    differential testing; both engines reach the same optimal latch
    total, though tie-breaking between equal-cost labelings may differ. *)
