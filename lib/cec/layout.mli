(** Cost-model-driven partition layout for the partitioned CEC.

    Splits a {!Seqprob.t} into overlap-clustered output-cone {e clusters}
    (the verdict and cache-key units — a pure function of the problem,
    independent of [jobs] and of cache state) and packs the clusters by
    estimated cost into scheduling {e bins} (what the domain pool actually
    runs; also jobs-independent, and never an influence on a verdict or a
    cache key).  Below a total-cost threshold the layout collapses to a
    monolithic check so small problems never pay partitioning or pool
    overhead.  Re-exported as [Cec.Layout]. *)

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
      (** sum of cluster costs; for a quick-rejected monolithic layout, a
          cheap upper bound computed without clustering *)
  clusters : cluster list;
      (** empty for a quick-rejected monolithic layout (the problem was
          too small to even pay the clustering pass) *)
  bins : int list list;
      (** scheduling groups of indices into [clusters], heaviest first;
          [[]] when [monolithic] *)
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

val bin_cost_target : float
(** Aimed-for work per scheduling bin (a quarter of the threshold), so
    bin count grows with problem cost up to {!max_bins}. *)

val max_bins : int

val estimate : nodes:int -> depth:int -> float
(** [nodes * max 1 depth] — monotone in both arguments. *)

val compute : ?forced:bool -> Seqprob.t -> t
(** Full layout: cluster, estimate, threshold-check, pack.  The layout is
    monolithic when the total estimate is under {!default_threshold}
    {e or} the mean cluster cost is under {!min_mean_cluster_cost}.
    [~forced:true] disables the monolithic fast path (the
    [~partition:true] contract). *)
