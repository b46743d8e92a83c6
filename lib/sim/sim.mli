(** Sequential simulation and the exact 3-valued equivalence oracle.

    Semantics (paper, Section 3): all latches share one clock; a
    load-enabled latch updates iff its enable evaluates true this cycle,
    otherwise it holds.  Outputs of cycle [t] are combinational functions of
    the inputs at [t] and the state at [t]; the state then updates.  Latches
    power up non-deterministically. *)

type tv = F | T | X
(** Three-valued logic; [X] is unknown / undefined. *)

val tv_pp : Format.formatter -> tv -> unit

val tv_equal : tv -> tv -> bool

(** {1 Two-valued simulation} *)

val run :
  Circuit.t -> init:bool array -> inputs:bool array list -> bool array list
(** Outputs per cycle for a fixed power-up state. *)

(** {1 Conservative three-valued simulation} *)

val run_3v : Circuit.t -> inputs:bool array list -> tv array list
(** Classic X-propagation simulation with all latches starting at [X].  May
    report [X] where the exact semantics has a defined value (Fig. 1). *)

(** {1 Exact three-valued semantics} *)

val run_exact : ?max_latches:int -> Circuit.t -> inputs:bool array list -> tv array list
(** Output function [O_C(π)] of Definition 1: the value if every power-up
    state produces it, [X] (⊥) otherwise.  Enumerates all [2^L] power-up
    states.  @raise Invalid_argument if the circuit has more than
    [max_latches] (default 16) latches. *)

val equivalent_exact :
  ?max_latches:int ->
  Circuit.t ->
  Circuit.t ->
  input_seqs:bool array list list ->
  (bool array list * tv array list * tv array list) option
(** Checks exact 3-valued equivalence on the given input sequences; returns
    a distinguishing sequence and the two output traces on mismatch. *)

val all_input_seqs : Circuit.t -> depth:int -> bool array list list
(** All input sequences of the given length (use only for tiny circuits). *)
