(** Textual netlist format (a BLIF-flavoured subset).

    {v
    .model <name>
    .inputs a b c
    .outputs z
    .latch  q d          # q <= d each cycle
    .latche q d e        # q <= d when e, else holds
    .gate <fn> out in1 in2 ...
    .end
    v}

    [<fn>] is one of [const0 const1 buf not and or nand nor xor xnor mux].
    Lines starting with [#] are comments.  Signals may be referenced before
    definition. *)

val to_string : Circuit.t -> string

val parse : string -> Circuit.t
(** @raise Invalid_argument on malformed input. *)
