(* Cost-model-driven partition layout for the partitioned CEC.

   Output pairs whose fanin cones overlap by at least half of the smaller
   cone are greedily merged into [clusters], so shared logic is swept
   once.  A cluster is the one unit of partitioned work: it is checked,
   cached and handed to the domain pool on its own.  Clustering depends
   only on the problem (never on [jobs], never on cache state), so
   cluster boundaries (and hence verdicts and cache keys) are identical
   at every parallelism level and across warm/cold runs.

   The cost estimate for a cluster is [nodes * depth]: the cone's node
   count in the shared unrolled AIG times its time-frame depth (1 + the
   deepest unroll frame among its inputs).  Node count is what simulation
   and CNF size scale with; depth is a proxy for how much replicated logic
   the unroller fed the cone, which correlates with how hard its SAT
   merges are.

   Below [default_threshold] total cost the whole layout collapses to a
   monolithic check: partitioning overhead (per-cluster extraction,
   solver warm-up) dwarfs the work on small problems.  Partitioned
   checks measured as a net slowdown on every table-1 row, on one domain
   as on two. *)

type cluster = {
  members : int list; (* output-pair indices, ascending *)
  nodes : int; (* distinct AIG nodes in the pair's combined cone *)
  depth : int; (* 1 + deepest unroll frame among the cone's inputs *)
  cost : float; (* estimated work, node-frames *)
}

type t = {
  monolithic : bool;
      (* total cost below threshold: check the whole problem in one
         piece, no pool *)
  total_cost : float;
  clusters : cluster list;
}

(* Calibrated on this repository's workloads (see DESIGN.md §11): every
   table-1 circuit that partitioning slows down measures at or below
   ~13.6k node-frames (s6669) and verifies in single-digit milliseconds —
   per-cluster setup alone costs a comparable amount — while the
   large-tier FIFOs and lane ALUs measure 15.7k node-frames and up with
   multi-second monolithic checks. *)
let default_threshold = 15_000.

(* Second guard, for problems whose total clears the threshold but whose
   clusters are confetti (s38417: 47k node-frames across 1035 clusters of
   ~46 each): every cluster pays a fixed setup cost — signature hash,
   solver and simulator warm-up — so a layout whose {e mean} cluster cost
   is under this floor is pure overhead and runs monolithically no matter
   the total. *)
let min_mean_cluster_cost = 150.

let estimate ~nodes ~depth = float_of_int nodes *. float_of_int (max 1 depth)

(* AIG node -> unroll frame of the variable an input node carries; 0 for
   every other node, which never deepens a cone *)
let input_frames (p : Seqprob.t) =
  let frames = Array.make (Aig.node_count p.graph) 0 in
  Array.iteri
    (fun i v ->
      frames.(Aig.node_of (Aig.input_lit p.graph i)) <- Seqprob.Var.delay v)
    p.vars;
  frames

(* Greedy overlap clustering: a pair joins an existing group when at least
   half of the smaller cone (its own, or the group's accumulated one) is
   already covered by the other; the best-covered group wins, ties to the
   newest.  Chains collapse into one group — degrading gracefully to the
   monolithic check — while independent cones split.

   Only groups sharing a node with the cone can qualify, so [groups_of]
   indexes each node's groups and a pair costs time in its cone times the
   groups per node, never in the graph. *)
let clusters (p : Seqprob.t) =
  let o1 = Array.of_list p.outs1 and o2 = Array.of_list p.outs2 in
  let n = Array.length o1 in
  let frames = input_frames p in
  let walk = Aig.walk p.graph in
  (* node -> ids of the groups whose accumulated cone holds it *)
  let groups_of = Array.make (Aig.node_count p.graph) [] in
  (* per group id, in creation order *)
  let members = Array.make n [] (* reversed *)
  and size = Array.make n 0
  and deepest = Array.make n 0 (* deepest input frame in the group *) in
  let ngroups = ref 0 in
  let overlap = Array.make n 0 in
  let touched = Vgraph.Vec.create ~dummy:0 () in
  for i = 0 to n - 1 do
    let cone = Aig.cone walk [ o1.(i); o2.(i) ] in
    let csize = Vgraph.Vec.length cone in
    let cdepth = ref 0 in
    Vgraph.Vec.iter
      (fun s ->
        cdepth := max !cdepth frames.(s);
        List.iter
          (fun g ->
            if overlap.(g) = 0 then ignore (Vgraph.Vec.push touched g);
            overlap.(g) <- overlap.(g) + 1)
          groups_of.(s))
      cone;
    let best = ref (-1) and best_score = ref 0 in
    Vgraph.Vec.iter
      (fun g ->
        let score = 2 * overlap.(g) in
        overlap.(g) <- 0;
        if
          score >= min csize size.(g)
          && (score > !best_score || (score = !best_score && g > !best))
        then begin
          best := g;
          best_score := score
        end)
      touched;
    Vgraph.Vec.clear touched;
    let g =
      if !best >= 0 then !best
      else begin
        incr ngroups;
        !ngroups - 1
      end
    in
    Vgraph.Vec.iter
      (fun s ->
        if not (List.mem g groups_of.(s)) then begin
          groups_of.(s) <- g :: groups_of.(s);
          size.(g) <- size.(g) + 1
        end)
      cone;
    deepest.(g) <- max deepest.(g) !cdepth;
    members.(g) <- i :: members.(g)
  done;
  List.init !ngroups (fun g ->
      let depth = 1 + deepest.(g) in
      {
        members = List.rev members.(g);
        nodes = size.(g);
        depth;
        cost = estimate ~nodes:size.(g) ~depth;
      })

let single_cone_cost (p : Seqprob.t) =
  let maxd =
    Array.fold_left (fun a v -> max a (Seqprob.Var.delay v)) 0 p.vars
  in
  estimate ~nodes:(Aig.node_count p.graph) ~depth:(1 + maxd)

(* Quick rejection, no clustering pass needed: no cluster can cost more
   than [single_cone_cost] (its nodes are a subset of the graph, its depth
   at most the deepest unroll frame), and the factor 2 allows for nodes
   duplicated across overlapping clusters.  That factor is an allowance,
   not a proven bound: overlap clustering merges any pair sharing half the
   smaller cone, so duplication stays mild in practice. *)
let quick_bound p = 2. *. single_cone_cost p

let of_clusters ?(forced = false) cls =
  let total = List.fold_left (fun a c -> a +. c.cost) 0. cls in
  let monolithic =
    (not forced)
    && (total < default_threshold
       || total < min_mean_cluster_cost *. float_of_int (max 1 (List.length cls)))
  in
  { monolithic; total_cost = total; clusters = cls }

let compute ?(forced = false) (p : Seqprob.t) =
  let bound = quick_bound p in
  if (not forced) && bound < default_threshold then
    (* problem too small to possibly clear the threshold: monolithic
       without even paying the clustering pass ([clusters] left empty) *)
    { monolithic = true; total_cost = bound; clusters = [] }
  else
    of_clusters ~forced
      (Obs.span ~name:"cec.layout.cluster" (fun () -> clusters p))
