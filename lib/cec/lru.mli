(** A bounded string-keyed table with batch least-recently-hit eviction,
    safe to share across domains (one mutex).  Growing past [capacity]
    drops the least-recently-hit entries down to 3/4 of capacity in one
    batch, so a long run pays an amortized O(1) per insertion and holds
    at most [capacity] entries.  [Cec.Cache] keeps its in-memory verdicts
    in one; the verification server keeps its request memo in another. *)

type 'a t

val create : capacity:int -> 'a t
(** An empty table; a [capacity] below 1 counts as 1. *)

val find : 'a t -> string -> 'a option
(** The entry under the key, which becomes the most recently hit. *)

val add : 'a t -> string -> 'a -> int option
(** Inserts the entry when the key is absent and returns
    [Some evicted], the number of entries the capacity bound then
    dropped; [None] when the key is present, which leaves the table
    unchanged. *)

val clear : 'a t -> unit
val size : 'a t -> int
