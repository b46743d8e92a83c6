(** Feedback analysis (Section 6).

    A latch whose next-state function [F] is positive unate in its own
    output [x] decomposes as [F = e·d + ē·x] (Lemma 6.1): the feedback can
    be modelled by a load-enabled latch with enable [e] (unique) and data
    [d] (any function in the interval [[F|x=0, F|x=1]], Lemma 6.2 giving a
    canonical disjoint-support choice when one exists).  Latches that fail
    the condition are {e exposed} — a minimum feedback vertex set of the
    latch dependency graph — and pinned during synthesis, reducing the
    verification problem to the acyclic case. *)

(** How to pick the data function [d] from its interval (the ablation of
    DESIGN.md — different choices on the two sides cause Fig. 11 false
    negatives). *)
type dchoice =
  | D_low  (** [d = F|x=0], the interval's lower end — deterministic *)
  | D_disjoint
      (** the unique [d] whose support is disjoint from [e]'s, when it
          exists (Lemma 6.2); falls back to [D_low] otherwise *)

type analysis = {
  latch : Circuit.signal;
  self_feedback : bool;  (** its own output is in its next-state cone *)
  in_cycle : bool;  (** lies on some latch-dependency cycle *)
  positive_unate : bool;  (** next-state function positive unate in self *)
}

val latch_graph : Circuit.t -> Vgraph.Digraph.t * Circuit.signal array
(** Latch dependency graph: one node per latch (indexed as in the returned
    array, which follows [Circuit.latches] order); an edge [u -> v] when
    [u]'s output feeds the data or enable cone of [v]. *)

val analyze : Circuit.t -> analysis list
(** Per-latch feedback analysis.  Cones with more than 64 sources are
    conservatively reported not unate. *)

type plan = {
  exposed : Circuit.signal list;  (** latches to expose (made observable) *)
  converted : Circuit.signal list;
      (** self-feedback latches remodelled as load-enabled *)
}

val plan_structural : Circuit.t -> plan
(** The paper's experimental mode: no functional analysis, expose a minimal
    feedback vertex set (Table 2's "# Exposed"). *)

val plan_functional : Circuit.t -> plan
(** Unateness-aware mode: self-loops of positive-unate latches are removed
    by conversion; the remaining cycles are broken by exposure.  The paper
    predicts this "would lead to reduced number of exposed latches". *)

val decompose :
  Bdd.man -> Bdd.t -> x:int -> dchoice:dchoice -> (Bdd.t * Bdd.t) option
(** [decompose man f ~x ~dchoice] is [Some (e, d)] with
    [f = e·d + ē·x_var] when [f] is positive unate in variable [x]. *)

val apply_plan : ?dchoice:dchoice -> Circuit.t -> plan -> Circuit.t
(** Rebuilds the circuit with every [converted] latch remodelled as a
    load-enabled latch ([exposed] latches are untouched — exposure is a
    property consumed by unrolling and retiming, not a netlist change). *)

exception Node_budget_exceeded

val next_state_function :
  ?node_limit:int ->
  Circuit.t ->
  Circuit.signal ->
  Bdd.man * Bdd.t * (int -> Circuit.signal)
(** The next-state BDD of a latch over its cone sources, and the mapping
    from BDD variable index back to the source signal.  The latch's own
    output, when present, is always variable 0.
    @raise Node_budget_exceeded when the BDD grows past [node_limit]
    (default unlimited); {!analyze} uses a budget and conservatively reports
    such latches as not unate. *)
