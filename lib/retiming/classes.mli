(** Latch classes for load-enabled retiming (Legl et al. [9], Fig. 16).

    A latch class [cl = (e)] groups all latches sharing the enable signal
    [e] (regular latches form the class [None]).  Latches may merge during a
    retiming move only within one class; moving a load-enabled latch
    forward across a gate produces one latch of the same class on the gate
    output (the enable connection travels with the latch). *)

val classes : Circuit.t -> (Circuit.signal option * Circuit.signal list) list
(** Latches grouped by class. *)

val can_forward_move : Circuit.t -> gate:Circuit.signal -> bool
(** True iff every fanin of [gate] is a latch output and all those latches
    belong to the same class — the legality condition of a forward move. *)

val forward_move : Circuit.t -> gate:Circuit.signal -> Circuit.t
(** Applies the Fig. 16 move: the gate reads the latch data inputs directly
    and a single latch of the common class is placed on the gate output.
    The original latches are kept (they may be dangling; a sweep removes
    them).  All other structure, input names, and output order are
    preserved.
    @raise Invalid_argument if the move is illegal. *)

(** {1 Single-class retiming (Legl et al.'s reduction)}

    When every latch in the circuit belongs to one class — all load-enabled
    by the {e same primary input} — retiming reduces to the regular-latch
    problem: conceptually the machine only advances on enabled cycles, and
    on those cycles it behaves exactly like the underlying regular-latch
    machine.  We strip the enables, retime, and re-attach the enable to
    every latch of the result. *)

val single_class_enable : Circuit.t -> Circuit.signal option
(** [Some e] when every latch is load-enabled by the same primary input
    [e]; [None] otherwise (including all-regular circuits — those retime
    directly). *)

val min_period_single_class : Circuit.t -> Circuit.t * Retime.report
(** Minimum-period retiming of a single-class circuit.
    @raise Invalid_argument if {!single_class_enable} is [None]. *)

val constrained_min_area_single_class :
  period:int -> Circuit.t -> (Circuit.t * Retime.report, Retime.error) result
(** Period-constrained minimum-area retiming of a single-class circuit.
    [Error Infeasible_period] if the period is infeasible.
    @raise Invalid_argument if {!single_class_enable} is [None]. *)
