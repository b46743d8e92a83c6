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
    A [#] starts a comment that runs to the end of its line; tokens are
    separated by spaces.  Signals may be referenced before definition.
    A second [.model] starts the circuit afresh, and text after [.end] is
    ignored. *)

val to_string : Circuit.t -> string

val parse : string -> Circuit.t
(** One pass over the text.  Signal ids follow the order in which names
    are first met: a gate's fanins left to right, then its output; a
    latch's data (and enable), then the latch.
    @raise Invalid_argument on malformed input. *)
