(** Minimum-period retiming: the FEAS algorithm of Leiserson–Saxe with a
    binary search over clock periods (unit-delay model).

    The engine is incremental: one CSR image of the retiming graph is
    shared by every FEAS run, and each round recomputes arrival times only
    over the zero-weight-successor closure of the vertices whose label
    changed.  The binary search is warm-started — FEAS from the all-zero
    labeling yields the pointwise-{e minimal} feasible retiming, and
    minimal labelings are monotone in the period, so each probe seeds from
    the labeling of the best period found so far.  Run from the least
    legal labeling, forward and on the reversed graph, the same engine
    gives every label's exact range at a period ({!bounds}), which
    {!Minarea} uses to bound its LP. *)

val arrival : Rgraph.t -> r:int array -> int array
(** Combinational arrival time Δ(v) of every vertex under retiming labels
    [r]: the longest register-free path delay ending at (and including)
    [v]. *)

val period_of : Rgraph.t -> r:int array -> int
(** Clock period of the retimed graph: max arrival time. *)

val feasible : ?init:int array -> Rgraph.t -> period:int -> int array option
(** [feasible g ~period] is [Some r] (normalized, legal) if a retiming
    achieving the period exists, starting the FEAS iteration from [init]
    (default all-zero, which must be legal). *)

val min_period : ?pool:Par.Pool.t -> Rgraph.t -> int * int array
(** The minimum feasible clock period and labels achieving it.  The search
    interval comes from the delay profile (max gate delay up to the period
    of the unretimed graph), and the delay-profile lower bound is probed
    first so balanced pipelines collapse to a single FEAS run.  With
    [pool], each bisection step probes [Par.Pool.jobs pool] candidate
    periods in parallel (each probe runs on its own state against the
    shared CSR). *)

type bounds = { lb : int array; ub : int array }
(** [lb.(v)] and [ub.(v)]: the least and greatest label of [v] over the
    legal labelings that meet a period with both hosts at 0 — exact,
    since those labelings form a lattice.  A vertex the host cannot reach
    has [lb.(v) = -unbounded]; one that cannot reach the host sink has
    [ub.(v) = unbounded]. *)

val unbounded : int
(** [max_int / 4]: the magnitude of a missing bound, small enough that
    differences of bounds and sums with latch counts do not overflow. *)

val bounds : Rgraph.t -> period:int -> bounds option
(** The label bounds at [period], or [None] exactly when no legal
    labeling meets it.  Two FEAS passes: forward from the least legal
    labeling [r(v) = -W(host, v)], and on the reversed graph from
    [-W(v, host_sink)].  FEAS only makes forced increments, so each pass
    ends at the least (resp. greatest) labeling meeting the period; a
    feasible pass needs at most [n - 1] rounds, so one that goes illegal
    or exhausts its [n + 1] rounds proves the period infeasible.
    Vertices the host cannot reach start below
    [-(latch total + vertex count)] and stay unbounded.  Labels may be
    negative: unlike {!min_period}, the bounds are not limited to
    labelings reachable from the all-zero start.
    @raise Invalid_argument if the latch total does not fit an int
    shifted past the vertex-index bits. *)
