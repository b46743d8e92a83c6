(** Mutable directed graphs with integer edge weights.

    Nodes are dense integers [0 .. node_count - 1].  Parallel edges and
    self-loops are allowed; each edge carries an [int] weight (used for latch
    counts in retiming graphs and for costs in flow problems). *)

type t

type edge = { src : int; dst : int; weight : int }

val create : unit -> t

val add_node : t -> int
(** Allocates and returns a fresh node id. *)

val add_nodes : t -> int -> unit
(** [add_nodes g n] ensures [g] has at least [n] nodes. *)

val node_count : t -> int

val edge_count : t -> int

val add_edge : t -> ?weight:int -> int -> int -> int
(** [add_edge g u v] adds an edge [u -> v] (default weight 0) and returns its
    edge id. *)

val edge : t -> int -> edge

val succ : t -> int -> int list
(** Outgoing edge ids of a node. *)

val iter_edges : (int -> edge -> unit) -> t -> unit

val iter_succ : t -> int -> (int -> edge -> unit) -> unit
(** [iter_succ g u f] applies [f edge_id edge] to every outgoing edge of
    [u]. *)

val iter_pred : t -> int -> (int -> edge -> unit) -> unit

val has_self_loop : t -> int -> bool

val induced : t -> keep:(int -> bool) -> t
(** Subgraph on the nodes satisfying [keep] (node ids preserved; dropped
    nodes become isolated). *)
