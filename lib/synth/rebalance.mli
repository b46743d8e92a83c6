(** Delay-oriented restructuring (the working core of our SIS
    ["script.delay"] stand-in).

    The combinational logic between latch/IO boundaries is compiled into a
    structurally hashed AIG, every AND tree is rebuilt balanced
    (lowest-level operands first, as in ABC's [balance]), and the result is
    mapped back to the paper's library — inverters and 2-input NAND gates —
    with complement edges absorbed into NAND outputs.  Latch positions,
    input names and output order are preserved. *)

val run : ?rewrite:bool -> Circuit.t -> Circuit.t
(** With [~rewrite:true] (default false) the AIG is first restructured by
    {!Aig_rewrite.rewrite}. *)
