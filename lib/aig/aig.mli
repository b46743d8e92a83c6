(** Structurally hashed and-inverter graphs.

    The combinational workhorse behind the equivalence checker: circuits are
    compiled into a shared AIG, simulated 64 assignments at a time, and
    exported to CNF for SAT queries.

    Literals pack a node id and a complement bit: [lit = 2*node + compl].
    Node 0 is the constant false, so literal 0 is false and literal 1 is
    true. *)

type t
(** AIG manager. *)

type lit = int

val create : unit -> t

val lit_false : lit
val lit_true : lit

val input : t -> lit
(** A fresh primary-input node (positive literal). *)

val num_inputs : t -> int

val input_lit : t -> int -> lit
(** [input_lit g i] is the positive literal of the [i]-th input (creation
    order). *)

val neg : lit -> lit
val is_complement : lit -> bool
val node_of : lit -> int

val and_ : t -> lit -> lit -> lit
(** Hash-consed conjunction with constant and unit simplification. *)

val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val mux : t -> lit -> lit -> lit -> lit
(** [mux g s t e] is [if s then t else e]. *)

val and_list : t -> lit list -> lit

val node_count : t -> int
(** Number of nodes including the constant and inputs. *)

val and_count : t -> int

val is_input_node : t -> int -> bool

val fanins : t -> int -> lit * lit
(** Fanins of an AND node.  @raise Invalid_argument for inputs/constant. *)

val level : t -> int -> int
(** Depth of a node: inputs at 0, an AND at [1 + max fanin levels].
    Computed on first use, up to the node asked for, so a graph whose
    levels nobody reads pays nothing for them. *)

(** {1 Simulation} *)

val simulate : t -> int64 array -> int64 array
(** [simulate g in_words] computes 64 parallel evaluations.  [in_words]
    gives one word per input (creation order); the result has one word per
    node.  Read a literal's value with {!sim_lit}. *)

val sim_lit : int64 array -> lit -> int64
(** Interprets a node-indexed simulation vector at a literal (applies the
    complement). *)

val eval : t -> bool array -> lit -> bool
(** Single-pattern reference evaluation. *)

(** {1 Cones} *)

val cone_inputs : t -> lit list list -> int list
(** Input {e node ids} of the cones of the root-literal groups, in
    first-visit DFS order — the same traversal order as
    {!cone_signature}, so the k-th element corresponds to the k-th input
    mentioned by the signature.  This is what lets a cached
    counterexample, stored by canonical input position, be replayed on a
    different but structurally identical cone. *)

type walk
(** Reusable scratch for taking many cones of one graph: a visit stamp,
    an extraction map and an input index per node, allocated once by
    {!walk}.  Each {!cone} or {!extract} then costs time proportional to
    the cone, not to the graph.  A walk is not safe to share between
    domains, and it does not see nodes added to the graph after it was
    made. *)

val walk : t -> walk

val cone : walk -> lit list -> int Vgraph.Vec.t
(** [cone w roots] collects every node (constant, input, AND) in the
    transitive fanin of [roots], the root nodes included, each once.  The
    result is [w]'s own buffer: it is overwritten by the next {!cone} or
    {!extract} on [w]. *)

type extraction = {
  sub : t;  (** the extracted sub-AIG *)
  roots : lit list;  (** the given roots as sub-AIG literals, in order *)
  sub_inputs : int array;  (** sub input index -> parent input index *)
}

val extract : walk -> lit list -> extraction
(** [extract w roots] copies the cones of [roots] into a fresh AIG, in
    ascending parent node order, so the copy is also structurally hashed
    and topologically ordered and numbers its nodes and inputs as the
    parent does. *)

val cone_signature : t -> input_label:(int -> string) -> lit list list -> string
(** Canonical structural signature of the cones of the given root-literal
    groups.  Nodes are renumbered in first-visit (DFS, fanin-before-node)
    order starting from the roots, so the signature is invariant under the
    creation order of nodes outside the cones; input nodes are rendered
    through [input_label] (which receives the node id).  Two calls return
    the same string iff the root groups denote structurally identical
    cones over identically labelled inputs — the key used by the
    equivalence checker's result cache. *)

(** {1 Circuit conversion} *)

val apply_fn : t -> Circuit.gate_fn -> lit array -> lit
(** Translates one gate application over already-translated fanin
    literals.  Arity must match the function (checked upstream by
    {!Circuit.add_gate}). *)

type env = { of_signal : lit array }
(** Mapping from circuit signals to AIG literals. *)

val of_circuit_comb :
  t -> Circuit.t -> source:(Circuit.signal -> lit) -> env
(** Compiles the combinational part of a circuit into the AIG.  [source]
    supplies literals for primary inputs and latch outputs; gate-driven
    signals are translated.  The returned environment maps every signal
    that lies in the combinational cones. *)
