(** Cost-model-driven partition layout for the partitioned CEC.

    Splits a {!Seqprob.t} into overlap-clustered output-cone {e clusters}:
    the verdict, cache-key and scheduling units, a pure function of the
    problem, independent of [jobs] and of cache state.  Below a
    total-cost threshold the layout collapses to a monolithic check so
    small problems never pay partitioning overhead.  Re-exported as
    [Cec.Layout]. *)

type cluster = {
  members : int list;  (** output-pair indices, ascending *)
  nodes : int;  (** distinct AIG nodes in the pair's combined fanin cone *)
  depth : int;  (** 1 + deepest unroll frame among the cone's inputs *)
  cost : float;  (** estimated work in node-frames, [>= nodes] *)
}

type t = {
  monolithic : bool;
      (** total estimated cost under the threshold (or mean cluster cost
          under the floor): check the whole problem in one piece, spin up
          no pool *)
  total_cost : float;
      (** sum of cluster costs; for a quick-rejected monolithic layout,
          the quick bound computed without clustering: twice
          {!single_cone_cost}, where the factor 2 is an allowance for
          nodes shared by overlapping clusters, not a proven upper bound *)
  clusters : cluster list;
      (** empty for a quick-rejected monolithic layout (the problem was
          too small to even pay the clustering pass) *)
}

val default_threshold : float
(** 15k node-frames — above every table-1 circuit that partitioning slows
    down (milliseconds of engine work, where per-cluster setup is pure
    overhead), below every large-tier workload. *)

val min_mean_cluster_cost : float
(** Mean-cluster-cost floor (150 node-frames): a problem whose total
    clears the threshold but whose clusters are confetti — each paying
    fixed signature/solver/simulator setup for almost no work — still
    runs monolithically. *)

val estimate : nodes:int -> depth:int -> float
(** [nodes * max 1 depth] — monotone in both arguments. *)

val single_cone_cost : Seqprob.t -> float
(** The whole problem costed as one cone: {!estimate} of the graph's node
    count at 1 + the deepest unroll frame among its variables.  What a
    monolithic check costs in the cone-cost histogram. *)

val compute : ?forced:bool -> Seqprob.t -> t
(** Full layout: cluster, estimate, threshold-check.  The layout is
    monolithic when the total estimate is under {!default_threshold}
    {e or} the mean cluster cost is under {!min_mean_cluster_cost}; when
    even twice {!single_cone_cost} is under the threshold it is monolithic
    without a clustering pass.  [~forced:true] disables the monolithic
    fast path (the [~partition:true] contract).

    Clustering takes time proportional to the output cones (times the
    clusters sharing a node), never outputs times the graph, and is
    traced as a [cec.layout.cluster] span. *)

val of_clusters : ?forced:bool -> cluster list -> t
(** The threshold check of {!compute}, over the given clusters:
    [compute ~forced p] is [of_clusters ~forced] of [p]'s clusters
    whenever it clusters at all. *)
