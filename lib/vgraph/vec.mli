(** Growable vectors.

    A thin dynamic-array abstraction used throughout the project (BDD node
    tables, AIG nodes, adjacency lists).  Elements are stored contiguously;
    [push] is amortized O(1). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] is an empty vector.  [dummy] fills unused capacity and
    is never observable through the API. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val get : 'a t -> int -> 'a
(** [get v i] is the [i]-th element.  @raise Invalid_argument if out of
    bounds. *)

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int
(** [push v x] appends [x] and returns its index. *)

val pop : 'a t -> 'a
(** Removes and returns the last element.  @raise Invalid_argument if
    empty. *)

val clear : 'a t -> unit

val shrink : 'a t -> int -> unit
(** [shrink v n] truncates [v] to length [n] (which must not exceed the
    current length). *)

val iter : ('a -> unit) -> 'a t -> unit

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list

val copy : 'a t -> 'a t
