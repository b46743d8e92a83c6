(* Cost-model-driven partition layout for the partitioned CEC.

   Two layers, with different invariants:

   - [clusters] — the verdict units.  Output pairs whose fanin cones
     overlap by at least half of the smaller cone are greedily merged, so
     shared logic is swept once.  Clustering depends only on the problem
     (never on [jobs], never on cache state), so cluster boundaries — and
     hence verdicts and cache keys — are identical at every parallelism
     level and across warm/cold runs.

   - [bins] — the scheduling units.  Clusters are packed largest-first
     into a number of bins proportional to the total *estimated cost*
     (again never to [jobs]); a pool never spawns more domains than there
     are bins.  Because bins only group work and each cluster is still
     checked (and cached) on its own, cost refinement from observed engine
     seconds can reshape the bins without perturbing any verdict or key.

   The cost estimate for a cluster is [nodes * depth]: the cone's node
   count in the shared unrolled AIG times its time-frame depth (1 + the
   deepest unroll frame among its inputs).  Node count is what simulation
   and CNF size scale with; depth is a proxy for how much replicated logic
   the unroller fed the cone, which correlates with how hard its SAT
   merges are.  When the caller can supply observed engine seconds for a
   cluster's signature (a prior verdict in the result cache or the
   persistent store), the observation replaces the estimate.

   Below [threshold] total cost the whole layout collapses to a
   monolithic check: partitioning overhead (per-cluster extraction,
   solver warm-up, pool spin-up) dwarfs the work on small problems —
   partitioned jobs=2 checks historically measured as a net slowdown on
   every table-1 row for exactly this reason. *)

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
  bins : int list list;
      (* scheduling groups of cluster indices, heaviest bin first; empty
         when [monolithic] *)
  bin_costs : float array;
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

(* Target work per scheduling bin.  A quarter of the threshold: the
   smallest partitioned problem still yields ~4 bins, enough to keep a
   small pool busy, and big problems get cost-proportionally more (up to
   [max_bins]). *)
let bin_cost_target = 5_000.

let max_bins = 64

(* Two underfull bins are merged while their combined cost stays within
   this factor of the per-bin target: fewer tasks, bounded imbalance. *)
let bin_slack = 1.5

(* Node-frames per observed engine second, used to convert a prior's
   seconds back into the estimate's unit.  Rough by design — priors only
   steer bin packing, never verdicts. *)
let cost_per_second = 2e5

let estimate ~nodes ~depth = float_of_int nodes *. float_of_int (max 1 depth)

(* AIG input node -> unroll frame of the variable it carries *)
let input_delays (p : Seqprob.t) =
  let d = Hashtbl.create 64 in
  for i = 0 to Aig.num_inputs p.graph - 1 do
    Hashtbl.replace d
      (Aig.node_of (Aig.input_lit p.graph i))
      (Seqprob.Var.delay p.vars.(i))
  done;
  d

(* Greedy overlap clustering (moved here from the checker, unchanged
   semantics): a pair joins an existing group when at least half of the
   smaller cone (its own, or the group's accumulated one) is already
   covered by the other.  Chains collapse into one group — degrading
   gracefully to the monolithic check — while independent cones split. *)
type out_group = {
  mutable g_members : int list; (* reversed *)
  marks : bool array; (* accumulated cone marks over AIG nodes *)
  mutable gsize : int; (* marked node count *)
  mutable gdepth : int; (* deepest input frame seen in the group *)
}

let clusters (p : Seqprob.t) =
  let o1 = Array.of_list p.outs1 and o2 = Array.of_list p.outs2 in
  let delays = input_delays p in
  let n = Array.length o1 in
  let groups = ref [] in
  let marked m =
    let acc = ref [] in
    Array.iteri (fun s b -> if b then acc := s :: !acc) m;
    !acc
  in
  for i = 0 to n - 1 do
    let m = Aig.cone_nodes p.graph [ o1.(i); o2.(i) ] in
    (* work on the marked-node list so scoring an output against a group
       costs O(|cone|), not O(|graph|) *)
    let nodes = marked m in
    let size = List.length nodes in
    let depth =
      List.fold_left
        (fun acc s ->
          match Hashtbl.find_opt delays s with
          | Some d -> max acc d
          | None -> acc)
        0 nodes
    in
    let best = ref None in
    List.iter
      (fun g ->
        let overlap = ref 0 in
        List.iter (fun s -> if g.marks.(s) then incr overlap) nodes;
        let score = 2 * !overlap in
        if score >= min size g.gsize then
          match !best with
          | Some (bscore, _) when bscore >= score -> ()
          | _ -> best := Some (score, g))
      !groups;
    match !best with
    | Some (_, g) ->
        List.iter
          (fun s ->
            if not g.marks.(s) then begin
              g.marks.(s) <- true;
              g.gsize <- g.gsize + 1
            end)
          nodes;
        g.gdepth <- max g.gdepth depth;
        g.g_members <- i :: g.g_members
    | None ->
        groups :=
          { g_members = [ i ]; marks = m; gsize = size; gdepth = depth }
          :: !groups
  done;
  List.rev_map
    (fun g ->
      let depth = 1 + g.gdepth in
      {
        members = List.rev g.g_members;
        nodes = g.gsize;
        depth;
        cost = estimate ~nodes:g.gsize ~depth;
      })
    !groups

(* Purely structural signature of a cluster's cone pair over the shared
   graph — by canonicity of {!Aig.cone_signature} it equals the signature
   the checker computes on the extracted sub-problem, so it indexes the
   same cache and store entries. *)
let cluster_signature (p : Seqprob.t) cl =
  let o1 = Array.of_list p.outs1 and o2 = Array.of_list p.outs2 in
  let roots1 = List.map (fun i -> o1.(i)) cl.members in
  let roots2 = List.map (fun i -> o2.(i)) cl.members in
  Aig.cone_signature p.graph ~input_label:(fun _ -> "") [ roots1; roots2 ]

(* Largest-first (LPT) packing into [bins] bins; deterministic — ties keep
   cluster order (stable sort) and go to the lowest-index bin. *)
let pack ~bins cls =
  let bins = max 1 bins in
  let order =
    List.stable_sort (fun (_, a) (_, b) -> Float.compare b.cost a.cost) cls
  in
  let bin_members = Array.make bins [] in
  let bin_cost = Array.make bins 0. in
  List.iter
    (fun (idx, c) ->
      let lightest = ref 0 in
      for i = 1 to bins - 1 do
        if bin_cost.(i) < bin_cost.(!lightest) then lightest := i
      done;
      bin_members.(!lightest) <- idx :: bin_members.(!lightest);
      bin_cost.(!lightest) <- bin_cost.(!lightest) +. c.cost)
    order;
  let nonempty = ref [] in
  for i = bins - 1 downto 0 do
    if bin_members.(i) <> [] then
      nonempty := (List.sort compare bin_members.(i), bin_cost.(i)) :: !nonempty
  done;
  !nonempty

(* Merge underfull bins: repeatedly combine the two lightest while their
   sum stays within [bin_slack * bin_cost_target].  Deterministic, and
   bounded (each merge reduces the bin count). *)
let merge_slack packed =
  let by_cost = List.stable_sort (fun (_, a) (_, b) -> Float.compare a b) in
  let rec go l =
    match by_cost l with
    | (m1, c1) :: (m2, c2) :: rest
      when c1 +. c2 <= bin_slack *. bin_cost_target ->
        go ((List.sort compare (m1 @ m2), c1 +. c2) :: rest)
    | l -> l
  in
  go packed

(* Cheap upper bound on the total cost, no clustering pass needed: every
   cluster's node set is a subset of the graph and its depth is at most
   the deepest unroll frame anywhere; the factor 2 covers node duplication
   across overlapping clusters (overlap clustering merges any pair sharing
   half the smaller cone, so duplication stays mild). *)
let quick_bound (p : Seqprob.t) =
  let maxd =
    Array.fold_left (fun a v -> max a (Seqprob.Var.delay v)) 0 p.vars
  in
  2. *. float_of_int (Aig.node_count p.graph) *. float_of_int (1 + maxd)

let compute ?(threshold = default_threshold) ?(forced = false) ?prior
    (p : Seqprob.t) =
  if (not forced) && quick_bound p < threshold then
    (* problem too small to possibly clear the threshold: monolithic
       without even paying the clustering pass ([clusters] left empty) *)
    {
      monolithic = true;
      total_cost = quick_bound p;
      clusters = [];
      bins = [];
      bin_costs = [||];
    }
  else
  let cls = clusters p in
  let base_total = List.fold_left (fun a c -> a +. c.cost) 0. cls in
  let ncl = List.length cls in
  (* The monolithic decision uses the *unrefined* estimate: priors say a
     cone's verdict will replay cheaply from the cache, but only the
     partitioned path has per-cluster keys to replay under — collapsing a
     warm problem to one monolithic check would throw those verdicts
     away.  Refined costs steer packing only. *)
  if
    (not forced)
    && (base_total < threshold
       || base_total < min_mean_cluster_cost *. float_of_int (max 1 ncl))
  then
    {
      monolithic = true;
      total_cost = base_total;
      clusters = cls;
      bins = [];
      bin_costs = [||];
    }
  else begin
    let cls =
      match prior with
      | None -> cls
      | Some f ->
          List.map
            (fun c ->
              match f ~signature:(cluster_signature p c) with
              | Some seconds ->
                  { c with cost = Float.max 1. (seconds *. cost_per_second) }
              | None -> c)
            cls
    in
    let total = List.fold_left (fun a c -> a +. c.cost) 0. cls in
    let bins =
      min (min max_bins ncl)
        (max 1 (int_of_float (Float.ceil (total /. bin_cost_target))))
    in
    let packed = merge_slack (pack ~bins (List.mapi (fun i c -> (i, c)) cls)) in
    (* heaviest bin first, so the pool starts the critical work early *)
    let packed =
      List.stable_sort (fun (_, a) (_, b) -> Float.compare b a) packed
    in
    {
      monolithic = false;
      total_cost = total;
      clusters = cls;
      bins = List.map fst packed;
      bin_costs = Array.of_list (List.map snd packed);
    }
  end
