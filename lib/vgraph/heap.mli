(** Binary min-heaps over an arbitrary ordering. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> dummy:'a -> unit -> 'a t

val is_empty : 'a t -> bool

val add : 'a t -> 'a -> unit

val pop_min : 'a t -> 'a
(** @raise Invalid_argument if empty. *)
