(** Minimum-period retiming: the FEAS algorithm of Leiserson–Saxe with a
    binary search over clock periods (unit-delay model).

    The engine is incremental: one CSR image of the retiming graph is
    shared by every FEAS run, and each round recomputes arrival times only
    over the zero-weight-successor closure of the vertices whose label
    changed.  The binary search is warm-started — FEAS from the all-zero
    labeling yields the pointwise-{e minimal} feasible retiming, and
    minimal labelings are monotone in the period, so each probe seeds from
    the labeling of the best period found so far. *)

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
