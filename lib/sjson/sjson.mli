(** Minimal JSON: the repository's one codec.

    The repository carries no JSON dependency; this is a small, strict
    parser/printer for the server's line-delimited wire protocol and
    [Obs.Chrome]'s trace files: the standard seven value shapes, UTF-8
    pass-through, [\uXXXX] escapes (surrogate pairs included) decoded to
    UTF-8 on input.  Numbers follow the RFC 8259 grammar (no [+], no
    leading zeros, no bare [.]); those without a fraction or exponent
    parse as [Int], everything else as [Float].  Printing never emits
    newlines, so one value is always one line. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Raised by {!parse} on malformed input; the message includes the
    offending byte offset. *)

val parse : string -> t
(** Parses exactly one JSON value (leading/trailing whitespace allowed;
    trailing garbage is an error). *)

val to_string : t -> string
(** Compact single-line rendering; strings are escaped, a finite integral
    float keeps a fraction ([1.0]) so it parses back as a [Float], and
    non-finite floats print as [null] (they have no JSON form). *)

(** {1 Accessors} — total, [None]/default on shape mismatch. *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val get_string : t -> string option
val get_int : t -> int option
val get_float : t -> float option
(** [get_float] also accepts [Int]. *)

val get_bool : t -> bool option
val get_list : t -> t list option
