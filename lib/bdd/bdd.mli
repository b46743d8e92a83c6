(** Reduced ordered binary decision diagrams.

    A from-scratch ROBDD package: hash-consed nodes in a manager, an ITE
    computed cache, Boolean connectives, cofactors, composition,
    quantification, support and unateness queries.  Node handles are only
    meaningful together with the manager that created them.

    Variables are identified by dense integers in creation order, which is
    also the BDD variable order (smaller index = closer to the root). *)

type man
(** A BDD manager: node table, unique table and operation caches. *)

type t
(** A BDD node handle (a Boolean function over the manager's variables). *)

val man : unit -> man

val zero : man -> t
val one : man -> t

val var : man -> int -> t
(** [var m i] is the function of the [i]-th variable, allocating fresh
    variables as needed so that all indices [0..i] exist. *)

val node_count : man -> int
(** Total live nodes in the manager (diagnostic). *)

val equal : t -> t -> bool
(** Constant-time semantic equality (hash-consing canonicity). *)

val id : t -> int
(** Stable canonical identity of the node within its manager (equal
    functions have equal ids). *)

val is_zero : man -> t -> bool

val not_ : man -> t -> t
val and_ : man -> t -> t -> t
val or_ : man -> t -> t -> t
val xor_ : man -> t -> t -> t
val nand_ : man -> t -> t -> t
val nor_ : man -> t -> t -> t
val xnor_ : man -> t -> t -> t
val ite : man -> t -> t -> t -> t

val and_list : man -> t list -> t
val or_list : man -> t list -> t

val apply_fn : man -> Circuit.gate_fn -> t array -> t
(** The function of one gate over its fanins' functions (the BDD
    counterpart of [Aig.apply_fn]).  Arity must match the function
    (checked upstream by [Circuit.add_gate]). *)

val cofactor : man -> t -> var:int -> bool -> t
(** [cofactor m f ~var b] is f with [var] fixed to [b]. *)

val compose : man -> t -> var:int -> t -> t
(** [compose m f ~var g] substitutes [g] for variable [var] in [f]. *)

val exists : man -> int list -> t -> t
val forall : man -> int list -> t -> t

val support : man -> t -> int list
(** Variables the function structurally depends on, ascending. *)

val depends_on : man -> t -> int -> bool

val size : man -> t -> int
(** Number of DAG nodes of [f] including terminals. *)

val eval : man -> t -> (int -> bool) -> bool
(** [eval m f env] evaluates [f] under the assignment [env]. *)

val any_sat : man -> t -> (int * bool) list option
(** A satisfying partial assignment (variables not mentioned are
    don't-care), or [None] if [f] is the zero function. *)

val sat_count : man -> t -> nvars:int -> float
(** Number of satisfying assignments over [nvars] variables. *)

val is_positive_unate : man -> t -> var:int -> bool
(** [f] is positive unate in [x] iff [f|x=0 ≤ f|x=1]. *)

val is_negative_unate : man -> t -> var:int -> bool

val leq : man -> t -> t -> bool
(** Functional implication [f ≤ g]. *)

val fold :
  man ->
  t ->
  const:(bool -> 'a) ->
  node:(int -> 'a -> 'a -> 'a) ->
  'a
(** Bottom-up fold over the DAG of [f]; [node v lo hi] combines the
    results for the low/high children of a node labelled with variable
    [v].  Each DAG node is visited once. *)
