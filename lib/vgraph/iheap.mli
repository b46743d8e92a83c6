(** Monomorphic int min-heap.

    A binary heap over plain [int] keys backed by a bare [int array] — no
    boxing, no comparator closure — for the hot loops of Dijkstra-style
    searches where entries are (priority, payload) pairs packed into one
    integer.  The heap is reusable: {!clear} keeps the backing storage, so
    a search run thousands of times (one per augmenting path, one per
    constraint source) allocates nothing after warm-up. *)

type t

val create : ?capacity:int -> unit -> t

val is_empty : t -> bool

val add : t -> int -> unit

val pop_min : t -> int
(** @raise Invalid_argument when empty. *)

val clear : t -> unit
(** Empties the heap without releasing storage. *)
