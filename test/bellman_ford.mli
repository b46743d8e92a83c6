(** Single-source shortest paths with negative weights: a test oracle
    for difference-constraint feasibility.  A system
    [r(u) - r(v) <= w] is feasible iff the constraint graph (edge [v -> u]
    with weight [w]) has no negative cycle; the shortest-path distances give
    a satisfying assignment. *)

type result =
  | Distances of int array  (** shortest distance from the virtual source *)
  | Negative_cycle of int list  (** nodes of some negative-weight cycle *)

val solve : Vgraph.Digraph.t -> result
(** Runs Bellman–Ford from a virtual super-source connected to every node
    with weight 0. *)

val feasible_potentials : Vgraph.Digraph.t -> int array option
(** [feasible_potentials g] is [Some p] with [p.(dst) <= p.(src) + weight]
    for every edge, or [None] if a negative cycle exists. *)
