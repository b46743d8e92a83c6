open Vgraph
(** Retiming graphs (Leiserson–Saxe model) extracted from netlists.

    Vertices are combinational gates plus a host vertex 0 representing the
    environment (all primary inputs and outputs).  An edge [u -> v] with
    weight [w] records a connection passing through [w] latches.

    Only regular (non-load-enabled) latches participate; latches named by
    [exposed] are treated as an I/O boundary (their output is a pseudo
    primary input and their data a pseudo primary output), which is exactly
    the paper's latch-exposure mechanism, and they keep their position.

    Logic with no path to a primary output (or to an exposed latch's data
    or enable) is pruned: dangling cones would otherwise bound the clock
    period and attract pointless registers, and {!apply} rebuilds only what
    the graph covers (sweep semantics).

    A latch-only cycle (a feedback loop with no gate) is exposed
    automatically.

    @raise Invalid_argument on load-enabled latches. *)

type origin = { vertex : int; weight : int; src : Circuit.signal }
(** Where a connection comes from: the driving vertex, the number of latches
    crossed, and the driving signal in the original circuit (the gate
    output, primary input, or exposed latch output). *)

type t = {
  graph : Digraph.t;
      (** vertex 0 = host source (drives primary inputs), vertex 1 = host
          sink (reads primary outputs).  Splitting the environment in two
          keeps the graph free of cycles through the host, so the
          register-free subgraph used for timing is always acyclic. *)
  delay : int array;  (** combinational delay per vertex (hosts 0) *)
  signal_of_vertex : Circuit.signal array;  (** vertex -> gate-output signal *)
  fanin_origin : origin array array;
      (** [fanin_origin.(vertex).(k)]: origin of the [k]-th fanin *)
  po_origin : origin array;  (** per primary output, in order *)
  exposed_origin : (Circuit.signal * origin) array;
      (** per exposed latch: (latch signal, origin of its data) *)
  groups : int array array;
      (** the fanout groups: the ids of the edges whose connections start
          at one source signal (an {!origin}'s [src]); {!apply} drives
          each group from one shared latch chain.  Every edge lies in
          exactly one group, and the edges of a group leave one vertex. *)
  circuit : Circuit.t;
}

val host : int
(** The host source vertex (0). *)

val host_sink : int
(** The host sink vertex (1).  Legal retimings keep both hosts at label
    0. *)

val build : ?exposed:(Circuit.signal -> bool) -> Circuit.t -> t

val vertex_count : t -> int

(** Read-only CSR image of the graph: both adjacency directions as flat
    offset-indexed arrays, shared by the incremental FEAS states and the
    W/D-matrix Dijkstras (which run on many domains against one image). *)
type csr = {
  nv : int;
  pred_off : int array;  (** length [nv + 1] *)
  pred_src : int array;
  pred_weight : int array;
  succ_off : int array;  (** length [nv + 1] *)
  succ_dst : int array;
  succ_weight : int array;
}

val csr : t -> csr

val is_legal : t -> r:int array -> bool
(** [r.(host) = r.(host_sink) = 0] and all retimed edge weights
    [w + r(dst) - r(src)] non-negative. *)

val normalize : t -> r:int array -> int array
(** Shifts labels so that [r.(host) = 0].
    @raise Invalid_argument if the two host labels differ. *)

val apply : t -> r:int array -> Circuit.t
(** Rebuilds the netlist with latches moved according to [r], one latch
    chain per fanout group, so the result keeps the heaviest retimed edge
    of every group plus the exposed latches, which are reinstated unmoved.
    Primary input/output names are preserved.
    @raise Invalid_argument if [r] is not legal. *)
