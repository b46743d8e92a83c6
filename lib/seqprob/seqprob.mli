(** The sequential-verification problem IR.

    The paper's whole contribution is a reduction: a sequential
    equivalence question becomes {e one} combinational miter (Fig. 18).
    This module is that miter as a first-class value — the single currency
    handed between the unroller ({!Edbf}, with {!Cbf} over it), the
    combinational engines ({!Cec}) and the counterexample machinery
    ({!Verify}):

    - a {e typed} variable universe ({!Var}): every unrolled input is a
      [(base, index)] pair, where the index is a time frame (a sample that
      crossed no enable) or an event-qualified shift (one that crossed an
      enable).  Nothing downstream ever parses a name string like ["x@3"]
      again — names exist only for printing.
    - one {e shared, structurally hashed} AIG holding both sides' output
      cones over the united variable array.  Logic replicated across time
      frames, and logic shared between the two sides, is built once.
    - a typed {!diagnosis} channel enumerating the real failure modes of
      the pipeline, replacing [Invalid_argument] plumbing end to end. *)

(** Typed time-frame / event-frame variables. *)
module Var : sig
  type index =
    | Time of int
        (** CBF variable: the source sampled [d] cycles before the
            evaluation instant ([Time 0] = now). *)
    | At of { shift : int; event : Events.event }
        (** EDBF variable: the source sampled [shift] cycles before the
            instant denoted by a non-empty [event] (from the check's
            shared {!Events.table}). *)

  type t = { base : string; index : index }
  (** [base] is the source name in the original circuit (a primary input
      or an exposed latch output). *)

  val time : string -> int -> t

  val at : string -> shift:int -> event:Events.event -> t
  (** The EDBF sample of a source [shift] cycles before [event].  A sample
      of {!Events.empty} is the CBF variable: [at b ~shift:d
      ~event:Events.empty = time b d], so a sample has one name whichever
      unrolling took it. *)

  val delay : t -> int
  (** The time component ([d] or [shift]). *)

  val equal : t -> t -> bool

  val to_string : t -> string
  (** Canonical printable form, stable for BLIF/debug dumps:
      ["base@d"] for [Time d], ["base@d~eN"] for [At {shift = d; event = N}].
      {!of_string} inverts it ([of_string (to_string v) = v] for every
      variable built by {!time} or {!at}) even when [base] itself contains
      ['@']. *)

  val of_string : string -> t
  (** Parses the {!to_string} form (splitting at the {e last} ['@']),
      building event samples with {!at}, so ["x@2~e0"] reads as
      [time "x" 2].  A string with no parseable index suffix is read as
      [{base = s; index = Time 0}] — convenient for wrapping plain
      combinational inputs. *)
end

(** {1 Diagnoses}

    The enumerated failure modes of the whole reduction pipeline.  Every
    stage returns [('a, diagnosis) result]; nothing user-reachable raises
    [Invalid_argument] for these anymore. *)

type diagnosis =
  | Non_exposed_cycle of { circuit : string; signal : string }
      (** A sequential cycle with no exposed latch on it: the circuit has
          no CBF/EDBF (Section 3's acyclicity requirement). *)
  | Hidden_enabled_latch of { circuit : string; latch : string }
      (** A load-enabled latch where only regular latches are supported
          (e.g. the retiming-based optimizing flow, matching the paper's
          experimental setup). *)
  | Infeasible_period of { circuit : string; period : int }
      (** The requested clock period is below the minimum feasible
          period of the retiming graph. *)
  | Output_arity_mismatch of { left : int; right : int }
      (** The two sides expose different numbers of outputs — they cannot
          be positionally compared. *)
  | No_such_latch of { circuit : string; name : string }
      (** An [exposed] name that is missing from the circuit, or present
          but not a latch output. *)

val diagnosis_to_string : diagnosis -> string

exception Error of diagnosis
(** Internal unwinding convenience for the recursive unrollers; public
    entry points catch it and return [Error _].  It escapes only from
    functions documented to raise on broken internal invariants. *)

(** {1 The problem} *)

type t = {
  graph : Aig.t;  (** shared structurally-hashed AIG, both sides *)
  vars : Var.t array;  (** AIG input index -> variable *)
  outs1 : Aig.lit list;  (** side 1 output cones, positional *)
  outs2 : Aig.lit list;  (** side 2 output cones, positional *)
}

val and_nodes : t -> int
(** AND nodes in the shared graph (the unrolled miter size). *)

val side_replication : t -> int * int
(** AND nodes reachable from each side's outputs (shared nodes count for
    both sides — the overlap is the sharing the IR buys). *)

val cex_is_valid : t -> (Var.t * bool) list -> bool
(** Evaluates both sides under the assignment (unlisted variables are
    [false]) and checks that some positional output pair differs. *)

(** {1 Building}

    A [builder] owns the AIG and the variable interning table.  The two
    unrollers write into one shared builder so that equal variables become
    the {e same} AIG input and shared logic hashes together. *)

type builder

val builder : unit -> builder
val graph : builder -> Aig.t

val var_lit : builder -> Var.t -> Aig.lit
(** The AIG input literal for a variable, interning on first use. *)

val builder_vars : builder -> Var.t array
(** Snapshot of the interned variables in input-creation order (what
    {!problem} will freeze into [vars]). *)

val problem :
  builder -> outs1:Aig.lit list -> outs2:Aig.lit list -> (t, diagnosis) result
(** Seals the builder.  [Error (Output_arity_mismatch _)] when the sides
    disagree on output count. *)

val of_circuits : Circuit.t -> Circuit.t -> (t, diagnosis) result
(** Wraps two {e combinational} circuits as a problem: inputs are matched
    by name across the two circuits (each name becomes the variable
    [{base = name; index = Time 0}]; the universe is the union of both
    input sets), outputs by position.  This is the thin compatibility
    shim under the [Circuit.t] entry points of {!Cec}. *)
