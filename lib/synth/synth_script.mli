(** The synthesis script of Fig. 17 ("script.delay", modified), as a
    composable pipeline:

    sweep → balance/remap into the INV+NAND2 library → sweep → optional
    fanout limiting.

    Function-preserving on the sequential circuit (latch positions fixed
    between passes — this is pure combinational synthesis in the paper's
    sense). *)

type options = {
  fanout_limit : int option;  (** paper uses 4; [None] disables the pass *)
  rewrite : bool;  (** cut-based AIG rewriting ({!Aig_rewrite}) before balancing *)
}

val default_options : options

val delay_script : ?options:options -> Circuit.t -> Circuit.t
(** The full pipeline. *)

val quick_cleanup : Circuit.t -> Circuit.t
(** Just the sweep (constant propagation + dead logic removal). *)
