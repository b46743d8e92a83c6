(** BLIF (Berkeley Logic Interchange Format) import/export.

    Supports the subset used by the MCNC/ISCAS benchmark distributions:

    - [.model], [.inputs], [.outputs], [.end] (line continuation with [\ ]);
    - [.names] single-output PLA cover with [0], [1], [-] input literals
      (both on-set and off-set covers);
    - [.latch input output \[type clock\] \[init\]] — edge-triggered latch;
      the init value is parsed but {e ignored} with a warning collected in
      the result (this library's semantics is non-deterministic power-up,
      Section 3.2 of the paper).

    Export writes gates as [.names] covers (each of our gate functions has
    an exact small cover). *)

type import = {
  circuit : Circuit.t;
  warnings : string list;  (** ignored constructs, e.g. latch init values *)
}

val parse : string -> import
(** @raise Invalid_argument on malformed input. *)

val to_string : Circuit.t -> string
