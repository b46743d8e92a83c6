(** Hierarchical compositional SEC: a module overlay on the flat netlist,
    a leaf-first planner that verifies module pairs bottom-up with
    already-verified submodules black-boxed, and a store-backed per-module
    verdict table so unchanged subtrees are warm hits across runs.

    {b The overlay.}  A {!design} is a tree of named {!module_def}s.  Each
    module owns a {e glue} circuit built by {!Build}: the module's own
    logic and state, with every submodule instance represented by
    {e cut-point inputs} (one fresh primary input per instance output,
    named ["<inst>.o<k>"]) and {e obligation outputs} (the signals driving
    the instance's inputs, appended after the module's own outputs).  This
    convention makes the black-boxed parent check {e exactly} a
    {!Verify.check} of the two glue circuits: cut-point inputs are united
    by name across the pair (the abstracted submodule produces equal
    outputs on both sides), and the obligation outputs are compared
    positionally (both sides must drive the submodule identically).

    {b Soundness.}  Black-boxing a submodule is sound only in the proving
    direction, and only once the submodule pair itself is proven
    equivalent: if every child pair is [Equivalent] and the glue pair is
    [Equivalent] (over free cut-points, with obligation outputs equal),
    the composed pair is equivalent.  An [Inequivalent] or [Undecided]
    glue answer proves {e nothing} — free cut-points over-approximate the
    values a real child can produce — so the planner re-runs that subtree
    {e flat} ({!flatten}) rather than ever reporting a spurious verdict.
    A refuted {e leaf} (or flat-fallback) pair is a real inequivalence of
    those modules and is attributed to them.

    {b Verdict reuse.}  With a {!Store.t}, every decided module-pair
    verdict persists under key
    [(left subtree signature, right subtree signature, boundary
    signature)].  Subtree signatures hash the glue netlist {e and} the
    children's subtree signatures, so editing one leaf invalidates the
    keys of exactly that leaf's ancestor chain: siblings and unrelated
    modules answer from the store on the next run.  Hier records are
    written with the store's ["hier"] kind tag, so [seqver cache stats]
    can attribute entries and mixed flat/hier caches stay readable. *)

type module_def = {
  mod_name : string;
  glue : Circuit.t;
      (** module logic; inputs = [ports_in] plus instance cut-points,
          outputs = module outputs then per-instance obligation outputs *)
  ports_in : string list;  (** module-level input ports, in port order *)
  out_count : int;  (** module-level outputs = first [out_count] glue outputs *)
  instances : (string * string) list;
      (** [(instance name, child module name)], in instantiation order *)
}

type design = {
  design_name : string;
  top : string;
  modules : module_def list;
}

(** Glue-circuit builder enforcing the cut-point/obligation convention. *)
module Build : sig
  type t

  val create : string -> t
  (** A fresh module named after the argument; its glue circuit carries
      the same name. *)

  val glue : t -> Circuit.t
  (** The underlying circuit, for adding gates and latches directly. *)

  val input : t -> string -> Circuit.signal
  (** Declare a module-level input port (in call order). *)

  val inst :
    t -> name:string -> child:module_def -> inputs:Circuit.signal list ->
    Circuit.signal list
  (** Instantiate [child] as [name]: records the obligation outputs
      ([inputs], one per child input port, in port order) and returns the
      instance's output cut-points (fresh inputs ["name.o<k>"], one per
      child output).  @raise Invalid_argument on an arity mismatch or a
      duplicate instance name. *)

  val output : t -> Circuit.signal -> unit
  (** Mark a module-level output (positional, in call order). *)

  val finish : t -> module_def
  (** Seals the module: marks module outputs, then each instance's
      obligation outputs, validates the circuit. *)
end

val make_design : name:string -> top:string -> module_def list -> design
(** Validates the module table: unique module names, [top] present, every
    instance's child present, the instance graph acyclic.
    @raise Invalid_argument otherwise. *)

val find_module : design -> string -> module_def
(** @raise Invalid_argument on an unknown module name. *)

val module_order : design -> string list
(** Modules reachable from [top] in leaf-first (post-)order, each name
    once — the planner's checking order. *)

val invalidation_set : design -> string -> string list
(** The modules whose subtree signature changes when the named module's
    glue changes: the module itself plus every ancestor, in
    {!module_order} order.  This is exactly the set a warm rerun
    re-checks after {!map_module}. *)

val flatten : ?name:string -> design -> Circuit.t
(** Inline the whole hierarchy into one flat circuit (instance-path
    prefixes like ["p0/q1/"] on inner latch names, so the exposure cut of
    a flattened pair lines up when the two designs use the same hierarchy
    and latch names).  [name] defaults to [design_name]. *)

val flatten_at : design -> string -> Circuit.t
(** Flatten the subtree rooted at the named module — the planner's flat
    fallback. *)

val circuit_signature : Circuit.t -> string
(** Content hash of a circuit's netlist text (hex digest). *)

val subtree_signature : design -> string -> string
(** Hash of the module's glue signature and, recursively, its children's
    subtree signatures — changes exactly on the {!invalidation_set} of an
    edit. *)

val boundary_signature : design -> string -> string
(** Hash of the module's interface: input port names, output count, and
    per instance the child's name and interface. *)

val store_kind : string
(** ["hier"] — the {!Store} kind tag of per-module verdict records. *)

val module_key : left:design -> right:design -> string -> string
(** The store key of a module pair's verdict. *)

(** {1 Adversarial resynthesis} *)

val resynthesize : ?seed:int -> Circuit.t -> Circuit.t
(** Equivalence-preserving local rewrites, applied gate-by-gate with a
    seeded RNG: De Morgan flips, XOR/MUX re-encodings, fanin commutation.
    Input, output and latch names and positions are preserved, so the
    result drops into the same module boundary. *)

val break_output : ?output:int -> Circuit.t -> Circuit.t
(** An intentionally-broken mutant: the same circuit with one output
    (default the first) inverted — an observable inequivalence.
    @raise Invalid_argument when [output] is out of range. *)

val map_module : design -> name:string -> f:(Circuit.t -> Circuit.t) -> design
(** Replace one module's glue with [f glue].  [f] must preserve the
    module interface (port names, output positions); checked.
    @raise Invalid_argument when the interface changed or [name] is
    unknown. *)

(** {1 The planner} *)

type mode = Leaf | Blackbox | Flat
(** How a module pair was decided: a leaf check, a black-boxed glue
    check, or the flat fallback of its subtree. *)

type source = Checked | Store_hit

type module_verdict = M_equivalent | M_inequivalent | M_undecided of string

type module_report = {
  rm_module : string;
  rm_mode : mode;
  rm_source : source;
  rm_verdict : module_verdict;
  rm_seconds : float;
}

type verdict =
  | Equivalent
  | Inequivalent of {
      offending : string;  (** the module pair that differs *)
      cex : Cec.counterexample option;
          (** the module-level counterexample when freshly proven (absent
              on warm store hits and conservative EDBF rejections) *)
    }
  | Undecided of { module_ : string; reason : string }

type report = {
  verdict : verdict;
  modules : module_report list;  (** leaf-first, as processed *)
  store_hits : int;
  checked : int;  (** module pairs decided by running the checker *)
  flat_fallbacks : int;
  seconds : float;
}

val check :
  ?jobs:int ->
  ?limits:Cec.limits ->
  ?store:Store.t ->
  design ->
  design ->
  report
(** Leaf-first compositional check of two designs.  Modules are paired by
    name; a hierarchy or boundary mismatch falls back to one flat check
    of the whole pair.  Each module pair is answered from the store when
    possible, otherwise checked ({!mode}, one {!Verify.check}) and its
    verdict persisted (kind ["hier"]; [Undecided] is never stored).  The
    first refuted module pair stops the run with an attributed
    [Inequivalent]; an undecidable one stops with [Undecided].  With a store, each inner
    combinational check gets a fresh {!Cec.Cache} backed by it, so even a
    cold ancestor re-check reuses surviving cone verdicts.  Obs: span [hier.module] per check, counters
    [hier.module_checked], [hier.module_store_hits],
    [hier.flat_fallback]. *)
