(** Clocked Boolean Functions (Section 4.1, 5.1 of the paper).

    For an acyclic sequential circuit with regular latches, the CBF of each
    output is an ordinary Boolean function over time-indexed copies of the
    primary inputs: a latch output at relative delay [d] is its data input
    at delay [d+1].  {!unroll} materializes the CBFs {e directly as cones
    of a shared structurally-hashed AIG} (a {!Seqprob.builder}): input
    [(i, d)] becomes the typed variable [Seqprob.Var.time i d], and logic
    replicated across time frames — or shared with the other side of a
    comparison unrolled into the same builder — is hashed to a single
    node.

    There is no second traversal here: the CBF is the EDBF that crosses no
    enable (Fig. 7 is Fig. 8 with every event empty), so {!unroll} runs
    {!Edbf.unroll} over a fresh {!Events.table}, whose samples at the empty
    event are exactly the CBF's time-frame variables.

    Theorem 5.1: two such circuits are exact 3-valued equivalent iff their
    CBFs are equal — so equivalence of the unrolled cones (decided by
    {!Cec.check_problem_with_stats}) decides sequential equivalence.

    Latches designated [exposed] are treated as an I/O boundary: their
    output is a fresh CBF variable and their data function is appended to
    the unrolled outputs (so that verification also checks the exposed
    next-state functions).  Exposed latches may be load-enabled (their
    enable is then also checked, as part of the data / enable output
    pair). *)

type info = {
  depth : int;  (** largest delay at which any input variable is used *)
  variables : int;  (** distinct (source, delay) variables of this unroll *)
  replication : int;
      (** gate instances translated (before structural hashing) — the size
          the unrolling would have as a netlist *)
}

val unroll :
  ?exposed:(Circuit.signal -> bool) ->
  Seqprob.builder ->
  Circuit.t ->
  (Aig.lit list * info, Seqprob.diagnosis) result
(** Unrolls into the builder's AIG and returns the output cones: the
    original primary outputs (in order) at delay 0, then for every exposed
    latch (in name order) its data CBF, then for every exposed
    load-enabled latch its enable CBF.  Non-exposed latches in the cones
    must be regular.  Diagnoses: [Non_exposed_cycle] for a sequential
    cycle that contains no exposed latch, [Hidden_enabled_latch] for the
    first non-exposed load-enabled latch the traversal reaches (one
    outside every output cone is never reached, and is no error).  On an
    error the builder may hold part of the unrolling. *)

val sequential_depth : ?exposed:(Circuit.signal -> bool) -> Circuit.t -> int
(** Topological latch depth (an upper bound on the functional sequential
    depth of Definition 4, which can be lower due to false
    dependencies). *)

val var_name : string -> int -> string
(** [var_name i d] is the printable name of the CBF variable for source
    [i] at delay [d] — [Seqprob.Var.to_string (Seqprob.Var.time i d)]
    (["i@0" = i] at the current cycle). *)

val functional_depth :
  ?exposed:(Circuit.signal -> bool) ->
  Circuit.t ->
  (int, Seqprob.diagnosis) result
(** The {e functional} sequential depth of Definition 4: the largest delay
    [d] such that some output (or exposed next-state function) truly
    depends on an input at delay [d].  Can be strictly smaller than
    {!sequential_depth} when deep paths carry only false dependencies
    (e.g. logic that cancels, like [q XOR q]).  Detected with BDDs built
    over the unrolled AIG, reading delays off the typed variables. *)
