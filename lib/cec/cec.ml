type counterexample = (Seqprob.Var.t * bool) list

type verdict =
  | Equivalent
  | Inequivalent of counterexample
  | Undecided of string

type engine = Bdd_engine | Sat_engine | Sweep_engine

type limits = {
  sat_conflicts : int option; (* base conflict budget per SAT call *)
  bdd_nodes : int option; (* live-node ceiling for the BDD engine *)
  seconds : float option; (* wall-clock deadline per partition *)
  escalate : bool; (* retry a blown budget up the engine ladder *)
}

let no_limits =
  { sat_conflicts = None; bdd_nodes = None; seconds = None; escalate = true }

let default_limits =
  {
    sat_conflicts = Some 50_000;
    bdd_nodes = Some 2_000_000;
    seconds = None;
    escalate = true;
  }

type stats = {
  mutable sat_calls : int;
  mutable sim_rounds : int;
  mutable partitions : int;
  mutable cache_hits : int;
  mutable store_hits : int;
  mutable store_writes : int;
  mutable cache_evictions : int;
  mutable conflicts : int;
  mutable budget_hits : int;
  mutable deadline_hits : int;
  mutable cancelled : int;
  mutable escalations : int;
  mutable undecided : int;
  mutable elapsed_seconds : float;
  mutable partition_seconds : float;
  mutable bdd_seconds : float;
  mutable sat_seconds : float;
  mutable sweep_seconds : float;
}

let fresh_stats () =
  {
    sat_calls = 0;
    sim_rounds = 0;
    partitions = 0;
    cache_hits = 0;
    store_hits = 0;
    store_writes = 0;
    cache_evictions = 0;
    conflicts = 0;
    budget_hits = 0;
    deadline_hits = 0;
    cancelled = 0;
    escalations = 0;
    undecided = 0;
    elapsed_seconds = 0.;
    partition_seconds = 0.;
    bdd_seconds = 0.;
    sat_seconds = 0.;
    sweep_seconds = 0.;
  }

(* Field-wise sum.  Each partition task accumulates into its own [stats],
   so no synchronization is needed; they are summed after the pool joins
   (the join provides the happens-before edge). *)
let add a b =
  {
    sat_calls = a.sat_calls + b.sat_calls;
    sim_rounds = a.sim_rounds + b.sim_rounds;
    partitions = a.partitions + b.partitions;
    cache_hits = a.cache_hits + b.cache_hits;
    store_hits = a.store_hits + b.store_hits;
    store_writes = a.store_writes + b.store_writes;
    cache_evictions = a.cache_evictions + b.cache_evictions;
    conflicts = a.conflicts + b.conflicts;
    budget_hits = a.budget_hits + b.budget_hits;
    deadline_hits = a.deadline_hits + b.deadline_hits;
    cancelled = a.cancelled + b.cancelled;
    escalations = a.escalations + b.escalations;
    undecided = a.undecided + b.undecided;
    elapsed_seconds = a.elapsed_seconds +. b.elapsed_seconds;
    partition_seconds = a.partition_seconds +. b.partition_seconds;
    bdd_seconds = a.bdd_seconds +. b.bdd_seconds;
    sat_seconds = a.sat_seconds +. b.sat_seconds;
    sweep_seconds = a.sweep_seconds +. b.sweep_seconds;
  }

let stats_pp ppf s =
  Format.fprintf ppf
    "%d partitions, %d SAT calls, %d sim rounds, %d cache hits, %d store hits, %d store writes, %d cache evictions, %d conflicts, %d budget hits, %d deadline hits, %d cancelled, %d escalations, %d undecided, elapsed %.3fs (partitioning %.3fs), engine CPU-seconds bdd %.3f sat %.3f sweep %.3f"
    s.partitions s.sat_calls s.sim_rounds s.cache_hits s.store_hits
    s.store_writes s.cache_evictions s.conflicts s.budget_hits s.deadline_hits
    s.cancelled s.escalations s.undecided s.elapsed_seconds s.partition_seconds
    s.bdd_seconds s.sat_seconds s.sweep_seconds

(* Monotonic: NTP steps must neither fire per-partition deadlines early
   nor skew the reported engine seconds. *)
let now () = Obs.Clock.now ()

(* Budget, deadline and cancellation counters double as trace instants,
   so an interruption is attributed to the partition span it happened
   in. *)
let note_budget_hit st reason =
  st.budget_hits <- st.budget_hits + 1;
  Obs.instant "cec.budget_hit" ~attrs:[ ("reason", Obs.String reason) ]

let note_deadline_hit st =
  st.deadline_hits <- st.deadline_hits + 1;
  Obs.instant "cec.deadline_hit"

let note_cancelled st =
  st.cancelled <- st.cancelled + 1;
  Obs.instant "cec.cancelled"

(* Budget context for one partition: the limits, an absolute wall-clock
   deadline (fixed when the partition starts, so escalation rungs share it),
   and the cross-partition cancel flag. *)
type bctx = {
  lim : limits;
  deadline : float option;
  cancel : bool Atomic.t option;
}

let bctx_of_limits lim =
  {
    lim;
    deadline = Option.map (fun s -> now () +. s) lim.seconds;
    cancel = None;
  }

let cancelled b = match b.cancel with Some c -> Atomic.get c | None -> false

let expired b =
  match b.deadline with Some d -> now () > d | None -> false

(* ---------- result cache ---------- *)

module Cache = struct
  (* Keys are purely structural cone signatures; counterexamples are stored
     over *canonical input positions* (first-visit DFS order, the order of
     Aig.cone_inputs), so a hit on a structurally identical cone pair with
     different variables — the same cone at another unrolling depth, or
     under renamed inputs — replays under the hitting problem's own
     variables.  Entries are {!Store.verdict}s, in memory and on disk.

     The in-memory index is a bounded {!Lru}, optionally backed by a
     persistent Store.  Evicted verdicts that were store-backed are not
     lost: the store keeps them (under its own, larger bound) and a later
     miss re-promotes. *)
  type t = { mem : Store.verdict Lru.t; store : Store.t option }

  let default_capacity = 65_536

  let create ?(capacity = default_capacity) ?store () =
    { mem = Lru.create ~capacity; store }

  let clear t = Lru.clear t.mem
  let size t = Lru.size t.mem

  (* where a hit was served from — callers account the two differently *)
  type hit = Memory of Store.verdict | Disk of Store.verdict

  (* Lookup, memory first, then the backing store; a disk hit is promoted
     into memory so repeats stay off the store's mutex.  Also returns how
     many entries the promotion evicted. *)
  let find_hit t key =
    match Lru.find t.mem key with
    | Some e -> (Some (Memory e), 0)
    | None -> (
        match Option.bind t.store (fun st -> Store.find st key) with
        | None -> (None, 0)
        | Some e -> (Some (Disk e), Option.value ~default:0 (Lru.add t.mem key e)))

  (* Insert if absent, write-through to the store (outside the index's
     mutex: Store.add dedupes on its own).  Returns (records appended to
     the store, entries evicted). *)
  let add_entry t key entry =
    match Lru.add t.mem key entry with
    | None -> (0, 0)
    | Some evicted ->
        let wrote =
          match t.store with Some st -> Store.add st key entry | None -> false
        in
        ((if wrote then 1 else 0), evicted)
end

(* ---------- BDD engine ---------- *)

exception Bdd_give_up of string

let check_bdd st b (p : Seqprob.t) =
  let man = Bdd.man () in
  let steps = ref 0 in
  (* polled before each new BDD node, after the node ceiling: the ceiling
     is approximate, so a single wide conjunction may overshoot it *)
  let poll () =
    if cancelled b then begin
      note_cancelled st;
      raise (Bdd_give_up "cancelled")
    end;
    incr steps;
    if !steps land 255 = 0 && expired b then begin
      note_deadline_hit st;
      raise (Bdd_give_up "partition deadline")
    end
  in
  (* BDD variable = AIG input index; the problem's vars array names it *)
  let lit_bdd = Bdd.of_aig ?node_limit:b.lim.bdd_nodes ~poll man p.graph in
  let rec cmp o1 o2 =
    match (o1, o2) with
    | [], [] -> Equivalent
    | f :: r1, h :: r2 ->
        let bf = lit_bdd f and bh = lit_bdd h in
        if Bdd.equal bf bh then cmp r1 r2
        else begin
          match Bdd.any_sat man (Bdd.xor_ man bf bh) with
          | None -> assert false
          | Some assignment ->
              Inequivalent
                (List.map (fun (v, b) -> (p.vars.(v), b)) assignment)
        end
    | _ -> invalid_arg "Cec: output counts differ"
  in
  try cmp p.outs1 p.outs2 with
  | Bdd.Node_limit ->
      note_budget_hit st "BDD node ceiling";
      Undecided "BDD node ceiling"
  | Bdd_give_up reason -> Undecided reason

(* Incremental Tseitin encoder over a (possibly growing) AIG. *)
module Encoder = struct
  type t = {
    g : Aig.t;
    solver : Sat.t;
    vars : int Vgraph.Vec.t; (* node -> sat var, 0 = unencoded *)
  }

  let create g = { g; solver = Sat.create (); vars = Vgraph.Vec.create ~dummy:0 () }

  let var_of e n =
    while Vgraph.Vec.length e.vars <= n do
      ignore (Vgraph.Vec.push e.vars 0)
    done;
    Vgraph.Vec.get e.vars n

  let rec encode_node e n =
    let v = var_of e n in
    if v <> 0 then v
    else begin
      let v = Sat.new_var e.solver in
      Vgraph.Vec.set e.vars n v;
      if n = 0 then Sat.add_clause e.solver [ -v ]
      else if not (Aig.is_input_node e.g n) then begin
        let f0, f1 = Aig.fanins e.g n in
        let l0 = encode_lit e f0 and l1 = encode_lit e f1 in
        Sat.add_clause e.solver [ -v; l0 ];
        Sat.add_clause e.solver [ -v; l1 ];
        Sat.add_clause e.solver [ v; -l0; -l1 ]
      end;
      v
    end

  and encode_lit e l =
    let v = encode_node e (Aig.node_of l) in
    if Aig.is_complement l then -v else v
end

(* One budgeted SAT call.  [factor] scales the base conflict budget (the
   escalation ladder retries with a larger factor); the wall-clock slice is
   whatever remains until the partition deadline. *)
let sat_solve_counted st b ?(factor = 1) solver ?assumptions () =
  st.sat_calls <- st.sat_calls + 1;
  let c0, _, _ = Sat.stats solver in
  let budget =
    let conflicts = Option.map (fun n -> n * factor) b.lim.sat_conflicts in
    let seconds = Option.map (fun d -> d -. now ()) b.deadline in
    match (conflicts, seconds) with
    | None, None -> None
    | _ -> Some (Sat.budget ?conflicts ?seconds ())
  in
  (* Time the solve here, into the SAT bucket, whichever engine is
     calling: the sweep engine's merge queries are SAT work and must show
     up as such (historically they were folded into sweep_seconds,
     leaving sat_seconds at 0.0 despite hundreds of calls). *)
  let t0 = now () in
  let r = Sat.solve ?assumptions ?budget ?cancel:b.cancel solver in
  st.sat_seconds <- st.sat_seconds +. (now () -. t0);
  let c1, _, _ = Sat.stats solver in
  st.conflicts <- st.conflicts + (c1 - c0);
  (match r with
  | Sat.Unknown ->
      if cancelled b then note_cancelled st
      else if expired b then note_deadline_hit st
      else note_budget_hit st "SAT conflict budget"
  | Sat.Sat | Sat.Unsat -> ());
  r

let give_up_reason b =
  if cancelled b then "cancelled"
  else if expired b then "partition deadline"
  else "SAT conflict budget"

(* Model value of node [n] of the encoded AIG, or [None] when the solver
   does not encode it.  Read right after a [Sat] answer: adding a clause
   backtracks the solver and clears the model. *)
let model_value enc n =
  let v = Encoder.var_of enc n in
  if v = 0 then None else Some (Sat.value enc.Encoder.solver v)

(* The problem's counterexample from a model: [input_value i] is the model
   value of problem input [i]; unencoded inputs are left out (false). *)
let model_cex vars input_value =
  List.filter_map
    (fun i -> Option.map (fun b -> (vars.(i), b)) (input_value i))
    (List.init (Array.length vars) Fun.id)

(* The miter as clauses, not AIG nodes, so a check never grows the graph
   it is given: one indicator per output pair that is not structurally
   equal, implying the pair differs, and their disjunction.  No pair left
   means the groups are structurally equal. *)
let solve_miter st b ?factor enc outs1 outs2 ~cex =
  match List.filter (fun (l1, l2) -> l1 <> l2) (List.combine outs1 outs2) with
  | [] -> Equivalent
  | pairs -> (
      let s = enc.Encoder.solver in
      let diffs =
        List.map
          (fun (l1, l2) ->
            let a = Encoder.encode_lit enc l1 and c = Encoder.encode_lit enc l2 in
            let d = Sat.new_var s in
            Sat.add_clause s [ -d; a; c ];
            Sat.add_clause s [ -d; -a; -c ];
            d)
          pairs
      in
      Sat.add_clause s diffs;
      match sat_solve_counted st b ?factor s () with
      | Sat.Unsat -> Equivalent
      | Sat.Sat -> Inequivalent (cex ())
      | Sat.Unknown -> Undecided (give_up_reason b))

let check_sat st b ?factor (p : Seqprob.t) =
  let g = p.graph in
  let enc = Encoder.create g in
  let input_value i = model_value enc (Aig.node_of (Aig.input_lit g i)) in
  solve_miter st b ?factor enc p.outs1 p.outs2 ~cex:(fun () ->
      model_cex p.vars input_value)

(* ---------- sweep engine ---------- *)

(* Random 64-pattern words simulated before the first SAT call; every SAT
   counterexample then adds one more word. *)
let sim_rounds = 4

(* Measured on this repository's workloads (see DESIGN.md §11): up to 12
   inputs the exhaustive words beat the sweep's SAT merges on every pair
   measured, while at 15 inputs (s1196's H-vs-J check) they took 2.7 ms
   where SAT took 0.27 ms. *)
let exhaustive_inputs = 12

(* Lane masks of the first six inputs: lane [j] of the word holds bit [i]
   of [j] for input [i]. *)
let lane_masks =
  [|
    0xAAAA_AAAA_AAAA_AAAAL;
    0xCCCC_CCCC_CCCC_CCCCL;
    0xF0F0_F0F0_F0F0_F0F0L;
    0xFF00_FF00_FF00_FF00L;
    0xFFFF_0000_FFFF_0000L;
    0xFFFF_FFFF_0000_0000L;
  |]

(* Words of the exhaustive enumeration of [n_in] inputs, 64 patterns each. *)
let exhaustive_words n_in = if n_in <= 6 then 1 else 1 lsl (n_in - 6)

(* Word [w] of the exhaustive enumeration of [n_in] inputs: lane [j] is
   input pattern [64w + j], so input [i >= 6] is bit [i - 6] of [w] in
   every lane, and pattern 0 (every input false) is bit 0 of word 0. *)
let exhaustive_word n_in w =
  Array.init n_in (fun i ->
      if i < 6 then lane_masks.(i)
      else if (w lsr (i - 6)) land 1 = 1 then -1L
      else 0L)

type proof = Proved | Disproved | Gave_up

(* FRAIG sweep (Mishchenko et al., "FRAIGs", 2005).  Nodes that no
   simulated pattern tells apart share a candidate class: an ascending
   member array whose first member is the class head.  Values compare
   phase-canonically, so a node and its complement share a class.  The
   AIG is rebuilt into [g2] in topological order; each node is proven
   against its class head, and a disproof's SAT model becomes one more
   simulation word that splits the classes, after which the node retries
   against its new head.

   A problem with at most [exhaustive_inputs] inputs is simulated
   on all of its input patterns instead of on random words.  Its classes
   are then the exact equivalence classes, so every member merges into
   its head without a SAT call, and only a final miter that still differs
   (an inequivalence) calls the solver, for its counterexample.
   Cancellation and the deadline are polled before each word; a deadline
   that passes mid-enumeration leaves the miter to a SAT call that gives
   up at once. *)
let check_sweep st b (p : Seqprob.t) =
  let g = p.graph in
  let rng = Random.State.make [| 0xC0FFEE |] in
  let n_in = Aig.num_inputs g in
  let n_nodes = Aig.node_count g in
  let exhaustive = n_in <= exhaustive_inputs in
  if exhaustive then Obs.count "cec.exhaustive" 1;
  Obs.attr (fun () -> [ ("exhaustive", Obs.Bool exhaustive) ]);
  (* all-ones where bit 0 of the node's first word is set *)
  let phase = Array.make n_nodes 0L in
  (* Exact classes also hold the constant node 0, so a constant function
     merges into it; random classes leave it out.  [head] is the node's
     class head; -1 once no other node shares its values. *)
  let lowest = if exhaustive then 0 else 1 in
  let head = Array.make n_nodes lowest in
  if lowest > 0 then head.(0) <- -1;
  let classes =
    ref
      (if n_nodes - lowest > 1 then [ Array.init (n_nodes - lowest) (( + ) lowest) ]
       else [])
  in
  (* split every class by the phase-canonical value of one simulated word;
     each part stays ascending, and a lone member leaves the classes *)
  let refine vals =
    let canon n = Int64.logxor vals.(n) phase.(n) in
    let same a b = Int64.equal (canon a) (canon b) in
    let split members =
      if Array.for_all (same members.(0)) members then [ members ]
      else begin
        let sorted = Array.copy members in
        Array.stable_sort (fun a b -> Int64.compare (canon a) (canon b)) sorted;
        let parts = ref [] and first = ref 0 in
        for i = 1 to Array.length sorted do
          if i = Array.length sorted || not (same sorted.(!first) sorted.(i))
          then begin
            let part = Array.sub sorted !first (i - !first) in
            if Array.length part = 1 then head.(part.(0)) <- -1
            else begin
              Array.iter (fun n -> head.(n) <- part.(0)) part;
              parts := part :: !parts
            end;
            first := i
          end
        done;
        !parts
      end
    in
    classes := List.concat_map split !classes
  in
  let simulate words =
    st.sim_rounds <- st.sim_rounds + 1;
    Aig.simulate g words
  in
  let first_word vals =
    Array.iteri (fun n w -> if Int64.logand w 1L = 1L then phase.(n) <- -1L) vals;
    refine vals
  in
  let interrupted () = cancelled b || expired b in
  (* whether the classes are exact: every input pattern was simulated.
     An interrupted enumeration leaves candidate classes, whose merges
     take the proof path (and so stop at the interruption, too). *)
  let exact =
    if exhaustive then begin
      let words = exhaustive_words n_in in
      let w = ref 0 in
      while !w < words && not (interrupted ()) do
        let vals = simulate (exhaustive_word n_in !w) in
        if !w = 0 then first_word vals else refine vals;
        incr w
      done;
      !w = words
    end
    else begin
      for round = 1 to sim_rounds do
        (* bits64 gives full-width words; int64 below max_int never sets bit
           63, which would make pattern lane 63 simulate the all-zeros input *)
        let vals = simulate (Array.init n_in (fun _ -> Random.State.bits64 rng)) in
        if round = 1 then first_word vals else refine vals
      done;
      false
    end
  in
  (* rebuild into g2 merging proven-equivalent nodes *)
  let g2 = Aig.create () in
  let enc = Encoder.create g2 in
  let map = Array.make n_nodes (-1) in
  map.(0) <- Aig.lit_false;
  let lit_map l =
    let m = map.(Aig.node_of l) in
    assert (m >= 0);
    if Aig.is_complement l then Aig.neg m else m
  in
  (* Model value of input [i]; inputs later in [g] than the node being
     merged have no [g2] counterpart yet ([map] is -1) *)
  let input_value i =
    let m = map.(Aig.node_of (Aig.input_lit g i)) in
    if m < 0 then None else model_value enc (Aig.node_of m)
  in
  (* equal iff both (la & ~lb) and (~la & lb) are unsatisfiable; an
     Unknown (blown per-call budget) counts as not proven, which is sound:
     the nodes stay unmerged and the final miter decides *)
  let prove_equal la lb =
    let a = Encoder.encode_lit enc la and sb = Encoder.encode_lit enc lb in
    let query assumptions k =
      match sat_solve_counted st b enc.Encoder.solver ~assumptions () with
      | Sat.Sat -> Disproved
      | Sat.Unknown -> Gave_up
      | Sat.Unsat -> k ()
    in
    query [ a; -sb ] (fun () -> query [ -a; sb ] (fun () -> Proved))
  in
  (* one word whose pattern 0 is the model's input assignment and whose
     other patterns are random; it tells the disproved pair apart *)
  let refine_with_model () =
    let word i =
      let r = Random.State.bits64 rng in
      match input_value i with
      | None -> r
      | Some v -> Int64.logor (Int64.logand r (-2L)) (if v then 1L else 0L)
    in
    refine (simulate (Array.init n_in word))
  in
  (* exact classes merge without a proof; otherwise, once the deadline
     passes or a sibling cancels, stop attempting merges — the rebuild
     itself must finish so the final miter (which will then give up
     quickly too) stays well-defined *)
  let rec merge n l =
    let h = head.(n) in
    if h >= 0 && h <> n then begin
      let rlit = if Int64.equal phase.(n) phase.(h) then map.(h) else Aig.neg map.(h) in
      if exact then map.(n) <- rlit
      else if (not (interrupted ())) && Aig.node_of rlit <> Aig.node_of l then
        match prove_equal l rlit with
        | Proved -> map.(n) <- rlit
        | Gave_up -> ()
        | Disproved ->
            refine_with_model ();
            (* the model separates n from h, so n has a new head or none *)
            if head.(n) <> h then merge n l
    end
  in
  for n = 1 to n_nodes - 1 do
    (* inputs are never merged, but they stay in the classes so that
       internal nodes equivalent to an input can merge into it *)
    if Aig.is_input_node g n then map.(n) <- Aig.input g2
    else begin
      let f0, f1 = Aig.fanins g n in
      let l = Aig.and_ g2 (lit_map f0) (lit_map f1) in
      map.(n) <- l;
      if Aig.node_of l <> 0 then merge n l
    end
  done;
  (* final miter on g2 *)
  solve_miter st b enc (List.map lit_map p.outs1) (List.map lit_map p.outs2)
    ~cex:(fun () -> model_cex p.vars input_value)

(* ---------- engine dispatch, cache, partitioning ---------- *)

(* The engine's name in its [cec.engine.*] span and in span attributes. *)
let engine_name = function
  | Sweep_engine -> "sweep"
  | Sat_engine -> "sat"
  | Bdd_engine -> "bdd"

let verdict_attr = function
  | Equivalent -> Obs.String "equivalent"
  | Inequivalent _ -> Obs.String "inequivalent"
  | Undecided r -> Obs.String ("undecided: " ^ r)

(* Cone-cost attribution: one live histogram per decade of estimated
   cone cost (node-frames, {!Layout.estimate}: a cluster's own, or a
   monolithic check's {!Layout.single_cone_cost}), so a metrics scrape
   answers "which cone class burns the time" without a trace.  Names are
   preallocated — the disabled path must not sprintf. *)
let cost_decade_names =
  Array.init 8 (fun d -> Printf.sprintf "cec.cone_seconds.cost_1e%d" d)

let observe_cone_cost ~cost dt =
  if Obs.counters_enabled () then begin
    let d = if cost < 10. then 0 else int_of_float (Float.log10 cost) in
    let d = max 0 (min (Array.length cost_decade_names - 1) d) in
    Obs.observe cost_decade_names.(d) dt
  end

(* Runs one engine on one (sub)problem, charging wall-clock to the engine's
   stats bucket.  The clock is the span instrumentation itself
   (Obs.timed_span measures even with tracing disabled), so the stats
   seconds and the trace always agree.  Every engine consumes the
   problem's AIG directly — no per-engine netlist or AIG rebuild.

   SAT solve time is charged to the SAT bucket at the call site
   ([sat_solve_counted]), so here each engine is charged the engine span
   {e minus} what its inner SAT calls already took: the three buckets are
   disjoint and sum to the engine wall-clock.  For the SAT engine the
   remainder is its encoding time, so its bucket still totals the span. *)
let run_one st b ~engine ~factor p =
  let sat0 = st.sat_seconds in
  let v, dt =
    Obs.timed_span
      ~name:("cec.engine." ^ engine_name engine)
      (fun () ->
        let v =
          match engine with
          | Bdd_engine -> check_bdd st b p
          | Sat_engine -> check_sat st b ~factor p
          | Sweep_engine -> check_sweep st b p
        in
        Obs.attr (fun () -> [ ("verdict", verdict_attr v) ]);
        v)
  in
  let sat_dt = st.sat_seconds -. sat0 in
  (match engine with
  | Bdd_engine -> st.bdd_seconds <- st.bdd_seconds +. dt
  | Sat_engine -> st.sat_seconds <- st.sat_seconds +. Float.max 0. (dt -. sat_dt)
  | Sweep_engine -> st.sweep_seconds <- st.sweep_seconds +. Float.max 0. (dt -. sat_dt));
  (* per-engine attribution histogram (whole engine run incl. inner SAT) *)
  (match engine with
  | Bdd_engine -> Obs.observe "cec.engine_seconds.bdd" dt
  | Sat_engine -> Obs.observe "cec.engine_seconds.sat" dt
  | Sweep_engine -> Obs.observe "cec.engine_seconds.sweep" dt);
  v

(* Staged escalation: a blown budget retries harder instead of failing.
   Rung 0 is the requested engine at its base budget; rung 1 is the SAT
   engine with a [escalation_factor]-times conflict budget; rung 2 is the
   BDD engine under its node ceiling.  Cancellation and an expired deadline
   are final — the partition is being abandoned, not retried. *)
let escalation_factor = 4

let run_engine st b ~engine p =
  if cancelled b then Undecided "cancelled"
  else
    match run_one st b ~engine ~factor:1 p with
    | (Equivalent | Inequivalent _) as v -> v
    | Undecided _ as v when not b.lim.escalate -> v
    | Undecided _ as v ->
        let rungs =
          (* skip a rung that would repeat the base run unchanged *)
          (if engine = Sat_engine && b.lim.sat_conflicts = None then []
           else [ (Sat_engine, escalation_factor) ])
          @ (if engine = Bdd_engine then [] else [ (Bdd_engine, 1) ])
        in
        let rec climb v = function
          | [] -> v
          | (e, factor) :: rest ->
              if cancelled b || expired b then v
              else begin
                st.escalations <- st.escalations + 1;
                Obs.instant "cec.escalate"
                  ~attrs:
                    [
                      ("engine", Obs.String (engine_name e));
                      ("factor", Obs.Int factor);
                    ];
                match run_one st b ~engine:e ~factor p with
                | (Equivalent | Inequivalent _) as v -> v
                | Undecided _ as v -> climb v rest
              end
        in
        climb v rungs

(* Cache key: purely structural canonical signature of the two output-lit
   groups.  Key equality means the two cone pairs are structurally
   identical under the first-visit input correspondence, so verdicts (and
   counterexamples stored by canonical input position) transfer even when
   the variables differ — the same cone at another depth, or over renamed
   inputs. *)
let pair_signature (p : Seqprob.t) =
  Aig.cone_signature p.graph ~input_label:(fun _ -> "") [ p.outs1; p.outs2 ]

(* variable of the k-th canonical cone input, per canonical position *)
let canonical_vars (p : Seqprob.t) =
  let input_index = Hashtbl.create 64 in
  for i = 0 to Aig.num_inputs p.graph - 1 do
    Hashtbl.replace input_index (Aig.node_of (Aig.input_lit p.graph i)) i
  done;
  Aig.cone_inputs p.graph [ p.outs1; p.outs2 ]
  |> List.map (fun n -> p.vars.(Hashtbl.find input_index n))
  |> Array.of_list

let check_pair st b ~engine ~cache p =
  match cache with
  | None -> run_engine st b ~engine p
  | Some cache -> (
      let key = pair_signature p in
      let note_cache_hit () =
        st.cache_hits <- st.cache_hits + 1;
        Obs.instant "cec.cache_hit";
        Obs.count "cec.cache_hits" 1
      in
      let note_store_hit () =
        (* disjoint from cache_hits: served by the persistent store, not
           the in-memory index (Store.find already emits store.hit) *)
        st.store_hits <- st.store_hits + 1;
        Obs.instant "cec.store_hit"
      in
      let replay pos =
        (* cex stored by canonical position → this problem's variables *)
        let cvars = canonical_vars p in
        Inequivalent
          (List.filter_map
             (fun (k, b) ->
               if k < Array.length cvars then Some (cvars.(k), b) else None)
             pos)
      in
      let hit, evicted = Cache.find_hit cache key in
      st.cache_evictions <- st.cache_evictions + evicted;
      match hit with
      | Some (Cache.Memory e | Cache.Disk e as h) -> (
          (match h with
          | Cache.Memory _ -> note_cache_hit ()
          | Cache.Disk _ -> note_store_hit ());
          match e with
          | Store.Equivalent -> Equivalent
          | Store.Inequivalent pos -> replay pos)
      | None -> (
          let v = run_engine st b ~engine p in
          let remember entry =
            let wrote, evicted = Cache.add_entry cache key entry in
            st.store_writes <- st.store_writes + wrote;
            st.cache_evictions <- st.cache_evictions + evicted
          in
          match v with
          | Undecided _ ->
              (* never cached (and never persisted): a bigger budget or no
                 sibling cex might decide the same cone pair next time *)
              v
          | Equivalent ->
              remember Store.Equivalent;
              v
          | Inequivalent cex ->
              let cvars = canonical_vars p in
              let pos_of_var = Hashtbl.create 16 in
              Array.iteri (fun k v -> Hashtbl.replace pos_of_var v k) cvars;
              remember
                (Store.Inequivalent
                   (List.filter_map
                      (fun (v, b) ->
                        Option.map
                          (fun k -> (k, b))
                          (Hashtbl.find_opt pos_of_var v))
                      cex));
              v))

(* Partition layout — overlap clustering and the cone cost model — lives
   in {!Layout} (re-exported from this module's interface).  Clusters are
   the verdict, cache-key and pool-task units. *)
module Layout = Layout
module Lru = Lru

(* One sub-AIG per cluster, carved out of the shared problem graph with
   Aig.extract; the sub-problem's variables come through the extraction's
   input map, so nothing is re-translated from netlists.  Every cluster
   shares one [walk], so extraction costs time in the clusters' cones,
   not clusters times the graph. *)
let extract_part walk (p : Seqprob.t) members o1 o2 =
  let roots1 = List.map (fun i -> o1.(i)) members in
  let roots2 = List.map (fun i -> o2.(i)) members in
  let ex = Aig.extract walk (roots1 @ roots2) in
  let k = List.length members in
  {
    Seqprob.graph = ex.Aig.sub;
    vars = Array.map (fun pi -> p.vars.(pi)) ex.Aig.sub_inputs;
    outs1 = List.filteri (fun i _ -> i < k) ex.Aig.roots;
    outs2 = List.filteri (fun i _ -> i >= k) ex.Aig.roots;
  }

(* Observed in the cone-cost histogram at the problem's single-cone
   estimate: it is checked as one cone, whatever a layout would cost it. *)
let check_monolithic ~engine ~limits ~cache p =
  let st = { (fresh_stats ()) with partitions = 1 } in
  let b = bctx_of_limits limits in
  let t0 = now () in
  let v = check_pair st b ~engine ~cache p in
  if Obs.counters_enabled () then
    observe_cone_cost ~cost:(Layout.single_cone_cost p) (now () -. t0);
  (match v with
  | Undecided _ -> st.undecided <- st.undecided + 1
  | Equivalent | Inequivalent _ -> ());
  (v, st)

let check_partitioned ~engine ~jobs ~pool ~limits ~cache ~forced (p : Seqprob.t)
    =
  if p.outs1 = [] then (Equivalent, fresh_stats ())
  else begin
    let o1 = Array.of_list p.outs1 and o2 = Array.of_list p.outs2 in
    (* Layout and sub-AIG extraction are cheap and sequential; afterwards
       every pool task owns its sub-problems outright, so nothing mutable
       crosses domains. *)
    let (layout, subs), layout_seconds =
      Obs.timed_span ~name:"cec.layout" (fun () ->
          let l = Layout.compute ~forced p in
          Obs.attr (fun () ->
              [
                ("clusters", Obs.Int (List.length l.Layout.clusters));
                ("monolithic", Obs.Bool l.Layout.monolithic);
                ("cost", Obs.Float l.Layout.total_cost);
              ]);
          let subs =
            if l.Layout.monolithic then [||]
            else
              Obs.span ~name:"cec.layout.extract" (fun () ->
                  let walk = Aig.walk p.graph in
                  Array.of_list l.Layout.clusters
                  |> Array.map (fun cl ->
                         extract_part walk p cl.Layout.members o1 o2))
          in
          (l, subs))
    in
    if layout.Layout.monolithic then begin
      (* Below the cost threshold the whole check is cheaper than the
         partitioning machinery: run it in one piece, spin up no pool. *)
      let v, st = check_monolithic ~engine ~limits ~cache p in
      st.partition_seconds <- layout_seconds;
      (v, st)
    end
    else begin
      let cache = match cache with Some c -> c | None -> Cache.create () in
      let n = Array.length subs in
      let cluster_stats =
        Array.init n (fun _ -> { (fresh_stats ()) with partitions = 1 })
      in
      (* Set by find_first the moment any cluster reports a counterexample;
         every in-flight sibling's SAT loop / BDD build polls it and stops
         mid-solve, and a cluster not yet started is skipped. *)
      let cancel = Atomic.make false in
      let undecided = Array.make n None in
      let clusters = Array.of_list layout.Layout.clusters in
      let check_cluster_span k sub =
        Obs.span ~name:"cec.partition"
          ~attrs:
            [
              ("cluster", Obs.Int k);
              ("outputs", Obs.Int (List.length sub.Seqprob.outs1));
              ("aig_nodes", Obs.Int (Aig.node_count sub.Seqprob.graph));
            ]
          (fun () ->
            let b =
              {
                lim = limits;
                (* per-cluster deadline starts when the cluster does *)
                deadline = Option.map (fun s -> now () +. s) limits.seconds;
                cancel = Some cancel;
              }
            in
            let st = cluster_stats.(k) in
            match check_pair st b ~engine ~cache:(Some cache) sub with
            | Equivalent -> None
            | Undecided "cancelled" ->
                (* a sibling's counterexample set [cancel] and decided the
                   check: this cluster was abandoned, not left undecided
                   (an interrupted engine run counts in [cancelled]) *)
                None
            | Undecided reason ->
                st.undecided <- st.undecided + 1;
                undecided.(k) <- Some reason;
                None
            | Inequivalent cex ->
                (* siblings observe the shared flag the moment find_first
                   records this answer *)
                Obs.instant "cec.first_cex" ~attrs:[ ("cluster", Obs.Int k) ];
                Some cex)
      in
      let check_cluster k =
        let sub = subs.(k) in
        let t0 = now () in
        let res = check_cluster_span k sub in
        observe_cone_cost ~cost:clusters.(k).Layout.cost (now () -. t0);
        res
      in
      let found =
        (* one pool task per cluster, heaviest first (ties by index), so
           the critical work starts early.  At jobs 1 they run in that
           order on the calling domain, even when the caller passes a
           shared pool.  With a caller-supplied pool (the shared server
           pool) the batch runs on it as-is, and the pool is left running
           for the next batch. *)
        let order =
          List.init n Fun.id
          |> List.stable_sort (fun a b ->
                 Float.compare clusters.(b).Layout.cost clusters.(a).Layout.cost)
        in
        let search pool =
          Par.Pool.find_first ~found:cancel pool
            (fun k -> if Atomic.get cancel then None else check_cluster k)
            order
        in
        match pool with
        | Some pool when jobs > 1 -> search pool
        | _ -> Par.Pool.with_pool ~jobs:(min jobs n) search
      in
      let stats = Array.fold_left add (fresh_stats ()) cluster_stats in
      stats.partition_seconds <- layout_seconds;
      match found with
      | Some cex -> (Inequivalent cex, stats)
      | None -> (
          (* no counterexample anywhere, so the cancel flag was never set
             and every Undecided is a genuine budget exhaustion *)
          let rec first k =
            if k >= n then None
            else
              match undecided.(k) with
              | Some reason -> Some (k, reason)
              | None -> first (k + 1)
          in
          match first 0 with
          | Some (k, reason) ->
              (Undecided (Printf.sprintf "partition %d: %s" k reason), stats)
          | None -> (Equivalent, stats))
    end
  end

(* The sweep decides a problem with at most [exhaustive_inputs] inputs by
   simulating every input pattern, with no SAT call.  Up to
   [whole_exhaustive_work] simulated word-nodes (words x graph nodes) that
   costs less than laying the problem out and checking its clusters on
   the pool, so such a problem is checked in one piece at every jobs
   level; past it, the layout decides, as for any problem, and the
   clusters (enumerated too) win on two domains.  Measured at jobs 2 on
   lane ALUs past the layout threshold (DESIGN.md §11): one piece won up
   to 0.9M word-nodes and tied or lost from 1.4M.  On one domain the
   clusters past the bound cost 0.9-1.4x the one piece; the bound stays
   the same at every jobs level, since jobs never enters the partition
   decision.  The SAT and BDD engines still gain from partitioning. *)
let whole_exhaustive_work = 1 lsl 20

let whole_exhaustive engine (p : Seqprob.t) =
  let n_in = Aig.num_inputs p.graph in
  engine = Sweep_engine
  && n_in <= exhaustive_inputs
  && exhaustive_words n_in * Aig.node_count p.graph <= whole_exhaustive_work

let check_problem_with_stats ?(engine = Sweep_engine) ?jobs ?pool ?partition
    ?(limits = no_limits) ?cache (p : Seqprob.t) =
  if List.length p.outs1 <> List.length p.outs2 then
    invalid_arg "Cec: output counts differ";
  (* a shared pool implies its own parallelism level unless the caller
     passes [jobs] ([~jobs:1] keeps the check on the calling domain) *)
  let jobs =
    match (jobs, pool) with
    | Some j, _ -> max 1 j
    | None, Some pl -> Par.Pool.jobs pl
    | None, None -> 1
  in
  (* elapsed_seconds is the true wall clock of the whole check, derived
     from the enclosing span — in parallel runs the per-engine CPU-second
     sums can legitimately exceed it *)
  let (v, stats), elapsed =
    Obs.timed_span ~name:"cec.check"
      ~attrs:
        [
          ("engine", Obs.String (engine_name engine));
          ("jobs", Obs.Int jobs);
          ("outputs", Obs.Int (List.length p.outs1));
        ]
      (fun () ->
        match partition with
        | Some true ->
            (* forced: always lay out and run per-cluster, the historical
               [~partition:true] contract tests rely on *)
            check_partitioned ~engine ~jobs ~pool ~limits ~cache ~forced:true p
        | Some false -> check_monolithic ~engine ~limits ~cache p
        | None when not (whole_exhaustive engine p) ->
            (* adaptive, at every jobs level: the layout's cost model
               decides — monolithic below the threshold, clusters above *)
            check_partitioned ~engine ~jobs ~pool ~limits ~cache ~forced:false p
        | None -> check_monolithic ~engine ~limits ~cache p)
  in
  stats.elapsed_seconds <- elapsed;
  (v, stats)

(* ---------- Circuit.t pairs ---------- *)

let require_comb c =
  if Circuit.latch_count c > 0 then
    invalid_arg
      (Printf.sprintf "Cec: circuit %s is not combinational" (Circuit.name c))

let of_circuits c1 c2 =
  require_comb c1;
  require_comb c2;
  match Seqprob.of_circuits c1 c2 with
  | Ok p -> p
  | Error (Seqprob.Output_arity_mismatch _) ->
      invalid_arg "Cec: output counts differ"
  | Error d -> invalid_arg (Seqprob.diagnosis_to_string d)

let counterexample_is_valid c1 c2 cex =
  (* The environment is keyed by the full variable, not just its base —
     two time frames of the same input ("x@0" and "x@1" after unrolling)
     are distinct assignment points and must not collide. *)
  let env = Hashtbl.create 16 in
  List.iter (fun (v, b) -> Hashtbl.replace env v b) cex;
  let outs c =
    let source s =
      let name = Circuit.signal_name c s in
      (* an input literally named "x@1" interns as {base = "x@1"; Time 0},
         so try the exact name first and only then parse a frame suffix *)
      match Hashtbl.find_opt env (Seqprob.Var.time name 0) with
      | Some b -> b
      | None -> (
          match Hashtbl.find_opt env (Seqprob.Var.of_string name) with
          | Some b -> b
          | None -> false)
    in
    let values = Eval.comb_eval c ~source in
    List.map (fun o -> values.(o)) (Circuit.outputs c)
  in
  let o1 = outs c1 and o2 = outs c2 in
  List.exists2 (fun a b -> a <> b) o1 o2
