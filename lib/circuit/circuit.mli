(** Gate-level sequential netlists.

    A circuit is a set of signals, each driven by a primary input, a
    combinational gate, or an edge-triggered latch (optionally load-enabled).
    All latches are driven by one implicit single-phase clock, matching the
    paper's circuit model [(I, O, G, L)].  Latches have no initial value:
    power-up state is non-deterministic (exact 3-valued equivalence,
    Section 3.2 of the paper).

    The combinational part must be acyclic; cycles are legal only through a
    latch (data input → latch output). *)

type signal = int
(** Dense signal identifier, valid within one circuit. *)

type gate_fn =
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor  (** n-ary parity *)
  | Xnor
  | Mux  (** fanins [s; t; e]: [if s then t else e] *)

type driver =
  | Undriven  (** declared but not yet connected *)
  | Input
  | Gate of gate_fn * signal array
  | Latch of { data : signal; enable : signal option }

type t

(** {1 Construction} *)

val create : ?size:int -> string -> t
(** An empty circuit.  [size] (default 64) is the expected signal count:
    the name table and signal vectors start sized for it and grow past
    it. *)

val name : t -> string

val declare : t -> ?name:string -> unit -> signal
(** A fresh, undriven signal (for forward references when building feedback
    paths).  @raise Invalid_argument if [name] is already taken. *)

val resolve : t -> string -> pos:int -> len:int -> signal
(** [resolve c s ~pos ~len] is the signal named [String.sub s pos len],
    declared (undriven) when no signal has that name yet: one name-table
    probe, and a string is copied only for a new name.  The one
    find-or-declare behind the netlist and BLIF readers.
    @raise Invalid_argument if the slice is out of bounds. *)

val add_input : t -> string -> signal

val add_gate : t -> ?name:string -> gate_fn -> signal list -> signal
(** Fresh signal driven by a gate.  Arity is checked. *)

val add_latch : t -> ?name:string -> ?enable:signal -> data:signal -> unit -> signal

val set_gate : t -> signal -> gate_fn -> signal array -> unit
(** Drive a previously declared signal.  The fanin array becomes the
    driver's own (it is not copied), so the caller must not change it
    afterwards.  @raise Invalid_argument on a bad signal id or arity, or
    if the signal is already driven. *)

val set_latch : t -> signal -> ?enable:signal -> data:signal -> unit -> unit

val mark_output : t -> signal -> unit
(** Appends to the primary output list (a signal may be listed more than
    once; outputs are positional). *)

val const_true : t -> signal
(** The (shared) constant-1 signal. *)

val const_false : t -> signal

(** {1 Access} *)

val signal_count : t -> int

val driver : t -> signal -> driver

val signal_name : t -> signal -> string

val find_signal : t -> string -> signal option

val inputs : t -> signal list
(** Primary inputs in declaration order. *)

val outputs : t -> signal list

val is_output : t -> signal -> bool

val latches : t -> signal list
(** Latch output signals, in id order. *)

val latch_info : t -> signal -> signal * signal option
(** [(data, enable)] of a latch signal.  @raise Invalid_argument on
    non-latch. *)

val gates : t -> signal list
(** Gate-driven signals in id order. *)

val fanout_counts : t -> int array
(** [counts.(s)] = number of fanin references to [s] plus 1 if [s] is a
    primary output. *)

(** {1 Structure} *)

val check : t -> unit
(** Validates the circuit: no undriven signals, arities correct, the
    combinational part acyclic.  @raise Invalid_argument with a message
    otherwise. *)

val comb_topo : t -> signal list
(** Gate-driven signals in topological order (fanins before fanouts),
    treating inputs and latch outputs as sources.
    @raise Invalid_argument on combinational cycles. *)

val cone : t -> signal list -> bool array
(** [cone c roots] marks the transitive fanin of [roots], stopping at
    (and including) inputs and latch outputs; latch outputs are not
    traversed through. *)

val seq_cone : t -> signal list -> bool array
(** Like {!cone} but traverses through latches (full sequential support). *)

val fn_cost : gate_fn -> int
(** Unit-delay/area cost of a gate: 0 for [Const] and [Buf], 1 otherwise. *)

val delay : t -> int
(** Max level over primary outputs and latch data inputs (the clock-period
    lower bound under the unit-delay model). *)

val area : t -> int
(** Number of logic gates (excluding [Const] and [Buf]). *)

val latch_count : t -> int

(** {1 Whole-circuit transforms} *)

val copy : ?name:string -> t -> t

val extract :
  t -> keep_outputs:signal list -> t * (signal * signal) list
(** [extract c ~keep_outputs] builds a new circuit containing exactly the
    sequential cone of [keep_outputs] (inputs become inputs, latches are
    kept).  Returns the new circuit and the old→new signal map restricted
    to kept signals. *)

val stats_pp : Format.formatter -> t -> unit
