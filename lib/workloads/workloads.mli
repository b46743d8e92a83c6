(** Benchmark circuit generators.

    The paper evaluates on MCNC/ISCAS'89 netlists ([minmax*], [prolog],
    [s*]) and twelve proprietary industrial designs; neither set ships with
    this repository.  These generators rebuild the {e shape} of each
    benchmark from fixed seeds: published latch count, feedback structure
    (share of latches that must be exposed), pipeline depth imbalance (what
    retiming exploits) and, for the industrial set, load-enabled latches
    with conditional-update feedback (Figs. 14, 20).  See DESIGN.md,
    "Substitutions". *)

val minmax : width:int -> Circuit.t
(** Pipelined min/max tracker over a [width]-bit input stream: an input
    register bank plus feedback min- and max-registers behind ripple
    comparators.  [3*width] latches, two thirds of which are feedback
    (matching the 66% exposure of the paper's minmax rows). *)

val pipeline :
  name:string -> width:int -> stages:int -> imbalance:int -> seed:int -> Circuit.t
(** Acyclic pipeline (Fig. 6): [stages] register banks of [width] bits
    separated by random logic whose depth alternates between shallow and
    [imbalance]-times deeper — the slack min-period retiming recovers. *)

val deep_datapath :
  name:string -> width:int -> stages:int -> seed:int -> Circuit.t
(** Deep pipelined datapath sized to stress retiming: [stages] register
    banks of [width] lanes with cross-lane mixing, one gate per lane per
    stage except every eighth stage, which carries a six-gate chain.  The
    slack sits in long stretches between the deep stages, so min-period
    retiming must drag registers across many stage boundaries and min-area
    retiming sees W/D shortest paths spanning hundreds of vertices.
    [width * stages] latches. *)

val fsm_datapath :
  name:string ->
  latches:int ->
  self_loops:int ->
  gates:int ->
  width:int ->
  seed:int ->
  Circuit.t
(** The Table 1 shape: [self_loops] conditional/toggle registers (each
    forces itself into the feedback vertex set) embedded in an otherwise
    acyclic latch network of [latches] total latches and roughly [gates]
    gates. *)

val industrial :
  name:string ->
  latches:int ->
  exposed:int ->
  unate_fraction:float ->
  enable_fraction:float ->
  seed:int ->
  Circuit.t
(** The Table 2 shape (Fig. 20): [exposed] self-feedback registers (a
    [unate_fraction] of them conditional-update, hence convertible by the
    functional analysis), the rest an acyclic glue/pipeline network, with
    [enable_fraction] of the acyclic latches load-enabled. *)

val table1_suite : unit -> (string * Circuit.t) list
(** The 23 circuits of Table 1 (published latch counts, scaled gate
    counts). *)

val table1_suite_small : unit -> (string * Circuit.t) list
(** The subset of {!table1_suite} cheap enough for unit tests and quick
    benches. *)

val table2_suite : unit -> (string * Circuit.t) list
(** ex1..ex12 of Table 2 (published latch and exposure counts). *)

val retime_suite : unit -> (string * Circuit.t) list
(** Deep-datapath instances for the retiming tier (shipped engines vs
    the test oracles in the retiming tests): from a small differential-checkable
    instance (256 latches) up to thousands of latches, all within the exact
    min-area vertex bound. *)

val fifo :
  ?bug:bool ->
  entries:int ->
  width:int ->
  style:[ `Sop | `Mux ] ->
  unit ->
  Circuit.t
(** Parameterized FIFO: [entries * width] hold-mux data latches
    (self-loops, so the structural analysis exposes them all) plus
    write/read pointer counters.  The two [style]s compute the same
    function with genuinely different gate structure ([`Sop]: balanced
    one-hot decode + sum-of-products read port; [`Mux]: linear decode
    chains + a binary mux tree over the pointer bits); latch names are
    shared across styles so one exposure cut fits both.  [~bug] swaps two
    data bits in entry 0's write mux — an intentional inequivalence for
    cancellation tests.  [entries] must be a power of two. *)

val lane_alu :
  ?bug:bool ->
  lanes:int ->
  width:int ->
  stages:int ->
  style:[ `Ripple | `Select ] ->
  unit ->
  Circuit.t
(** Wide ALU pipeline: [lanes] independent [width]-bit datapaths, [stages]
    register stages deep ([lanes*width*stages] flip-flops), mixing kept
    strictly lane-local so the unrolled output cones split exactly per
    lane.  Per-stage rotate-add-xor; the adder is the style point
    ([`Ripple] carry chain vs [`Select] carry-select).  Acyclic — no
    exposure needed; CBF unrolls to depth [stages].  [~bug] inverts one
    sum bit in lane 0's last stage.  [width] must be even and >= 4. *)

val hier_suite :
  unit -> (string * Hier.design * Hier.design * [ `Eq | `Neq of string ]) list
(** The hierarchical tier ([seqver hier] and the hier tests):
    [(pair name, left design, right design, expected)] rows.

    - ["hfifo"]: FIFO-of-queues — {!fifo} leaves (two sizes), a banked
      pair, a mixer and a stateful top (5 modules, 3 levels); the right
      side uses the other read-port style {e and} resynthesized parent
      glue, so every level differs structurally.
    - ["halu"]: lane-ALU cluster — {!lane_alu} leaves under a
      cross-checking lane module the top instantiates twice (4 modules,
      one multiply-instantiated).
    - ["hfifo_mut"] / ["halu_mut"]: intentionally broken right sides; the
      compositional check must attribute the counterexample to the named
      module ([`Neq "qwide"] / [`Neq "aluX"]), agreeing with flat
      verification of the flattened pair.

    Every design's flattened side is registered by its design name
    (e.g. ["@hfifo_a"]) for {!lookup}/server resolution. *)

val names : unit -> string list
(** Every circuit name {!lookup} resolves — all suite circuits by name,
    large-tier circuits by their [Circuit.name] (e.g. ["fifo64x16s"],
    mutant side ["fifo64x16m_bug"]), and the {!hier_suite} designs'
    flattened sides by design name. *)

val lookup : string -> (Circuit.t, string) result
(** Look up (and build) one named circuit.  On failure the error message
    lists up to five near-miss names (edit distance), ready to show to a
    CLI or server user. *)

val by_name : string -> Circuit.t
(** {!lookup}, raising.  @raise Not_found on an unknown name. *)
