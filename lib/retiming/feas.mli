(** Minimum-period retiming: the FEAS algorithm of Leiserson–Saxe with a
    binary search over clock periods (unit-delay model).

    The engine is incremental: one CSR image of the retiming graph is
    shared by every FEAS run, and each round recomputes arrival times only
    over the zero-weight-successor closure of the vertices whose label
    changed.  Every FEAS pass starts below its answer, so it ends at the
    least labeling above its start that meets the period or proves there
    is none.  From the least legal labeling [r(v) = -W(host, v)] that
    answer is the least labeling meeting the period; these least
    labelings rise as the period falls, so the binary search seeds each
    probe from the one of the best period found so far.  Run forward and
    on the reversed graph, the same engine gives every label's exact range
    at a period ({!bounds}), which {!Minarea} uses to bound its LP. *)

val arrival : Rgraph.t -> r:int array -> int array
(** Combinational arrival time Δ(v) of every vertex under retiming labels
    [r]: the longest register-free path delay ending at (and including)
    [v]. *)

val period_of : Rgraph.t -> r:int array -> int
(** Clock period of the retimed graph: max arrival time. *)

val min_period : Rgraph.t -> int * int array
(** The minimum feasible clock period, exact, and the least labeling
    achieving it on the vertices the host reaches (the others sit below
    every label the host can force).  One bisection over the delay
    profile (max gate delay up to the period of the unretimed graph)
    probes the lower bound first, so balanced pipelines settle in a
    single FEAS run.
    @raise Invalid_argument as {!bounds} does. *)

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
    negative.
    @raise Invalid_argument if the latch total does not fit an int
    shifted past the vertex-index bits. *)

val least_above : Rgraph.t -> period:int -> int array -> int array option
(** [least_above g ~period start]: the least legal labeling that meets
    [period], with both hosts at 0, among those at or above [start]
    (whose host labels are 0), or [None] if there is none.  A Dijkstra
    pass lifts [start] to the least legal labeling above it, and one FEAS
    pass from there makes only forced increments.
    @raise Invalid_argument as {!bounds} does. *)

type timing
(** Reusable arrival and departure scratch over one retiming graph. *)

val timing : Rgraph.t -> timing

val long_paths : timing -> r:int array -> period:int -> (int * int * int) list
(** For a legal [r], register-free paths of delay past [period], as
    [(first vertex, last vertex, latches the path crosses in the
    unretimed graph)]: the critical chain of every frontier vertex (one
    past the period with no register-free predecessor that is), and the
    departure path of every chain start (a vertex whose arrival is its
    own delay) cut where its delay first exceeds the period.  Empty
    exactly when [r] meets [period].  One arrival pass and one departure
    pass. *)
