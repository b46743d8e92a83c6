(** Flat int-to-int hash table.

    Open addressing with linear probing over two bare [int array]s (keys
    and values) whose power-of-two capacity starts small and doubles at
    three-quarters load, so a lookup allocates nothing: no boxed key, no
    bucket, no option.  Built for hot memo tables whose keys are several
    small integers packed into one (the AIG's structural hash, the
    unroller's memo).  Keys and values must be non-negative; there is no
    removal. *)

type t

val create : int -> t
(** [create n] is an empty table sized for about [n] entries before its
    first growth. *)

val find : t -> int -> int
(** [find t k] is the value bound to [k], or [-1] when [k] is absent. *)

val add : t -> int -> int -> unit
(** [add t k v] binds [k] to [v].
    @raise Invalid_argument on a negative key or value, or if [k] is
    already bound. *)

val find_or_add : t -> int -> int -> int
(** [find_or_add t k v] is the value bound to [k] if there is one;
    otherwise it binds [k] to [v] and is [-1].  One probe either way.
    @raise Invalid_argument on a negative key or value. *)

val length : t -> int
