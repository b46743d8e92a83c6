(** Minimum-weight closures by maximum flow.

    Over nodes [0 .. n−1] with integer weights, a closure is a set [X]
    that contains [v] whenever it contains [u], for every arc [u → v],
    and contains no blocked node.  The minimum total weight over the
    closures is a minimum cut (Picard, "Maximal closure of a graph and
    applications to combinatorial problems", Management Science 1976):
    a source arc of capacity [−w(v)] into every node of negative weight,
    a sink arc of capacity [w(v)] out of every node of positive weight,
    an infinite sink arc out of every blocked node and an infinite arc
    per closure arc.  The nodes a maximum flow leaves reachable from the
    source form the least of the minimum-weight closures, by inclusion.

    The network is reused: {!clear} keeps its storage, and arcs added
    after {!solve} keep the flow valid, so the next {!solve} resumes from
    it. *)

type t

val create : int -> t
(** An empty network over [n] nodes, all of weight 0 and unblocked. *)

val clear : t -> unit
(** Drops every arc and all flow, and resets every weight to 0 and every
    node to unblocked; keeps the storage. *)

val set_weight : t -> int -> int -> unit
(** [set_weight t v w] gives [v] the weight [w].  Call before the first
    {!solve} after {!clear}. *)

val block : t -> int -> unit
(** Excludes the node from every closure.  Call after the node's
    {!set_weight}, if any, and before the first {!solve} after
    {!clear}. *)

val add_arc : t -> int -> int -> unit
(** [add_arc t u v]: a closure that contains [u] contains [v]. *)

val solve : t -> int list
(** Runs a maximum flow (Dinic's blocking flows, from the flow the
    network already carries) and returns the least minimum-weight
    closure, which is empty exactly when no closure has negative weight.
    Counts its augmenting pushes in the [flow.augmentations] counter. *)
