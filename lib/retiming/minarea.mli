(** Minimum-area retiming (Minaret's job [6]) by steepest descent over
    minimum cuts.

    Minimizes the latches {!Rgraph.apply} keeps, subject to legality
    ([w_r(e) ≥ 0]) and a clock-period bound: every register-free path
    longer than the period keeps a latch.  The edges of a fanout group
    ([Rgraph.t.groups]) share one latch chain, so the group keeps its
    heaviest retimed edge; a group of [k > 1] edges into [v_i] of weights
    [w_i] gets a mirror vertex [m] with [r(v_i) − r(m) ≤ w_max − w_i] and
    objective term [r(m) − r(src)] (Leiserson & Saxe's fanout sharing),
    a single edge keeps its own term.

    The LP is L♮-convex, so steepest descent solves it exactly (Murota &
    Shioura; Hurst, Mishchenko & Brayton retime the same way).
    {!Feas.bounds} gives every label's exact range at the period.  The
    descent starts at the least labeling, vertices the host cannot reach
    at their greatest label, and mirrors at their least consistent
    value.  Each step moves the least minimum-weight closure
    ({!Vgraph.Closure}) of the constraints tight at the current labeling
    up by one, or down when no up step gains; the hosts and the vertices
    at their bound are blocked.  Period constraints are generated on
    demand (Wang & Zhou): a candidate move with a register-free path
    past the period adds that path's endpoint pair to the closure, and
    the max-flow resumes. *)

val solve : ?period:int -> Rgraph.t -> int array option
(** Normalized, legal labels that minimize [Circuit.latch_count
    (Rgraph.apply g ~r)] among the labelings meeting [period] (default:
    the total delay, which no path exceeds), or [None] iff the period is
    infeasible.  The bounds decide infeasibility before any descent
    step.  Among the optimal labelings, the result is the least one when
    the host reaches every vertex.  A result that misses the period or
    breaks its own constraints is an internal error ([Failure]), never
    a [None].
    @raise Invalid_argument as {!Feas.bounds} does. *)
