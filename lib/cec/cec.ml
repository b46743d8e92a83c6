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
  sat_calls : int;
  sim_rounds : int;
  partitions : int;
  cache_hits : int;
  store_hits : int;
  store_writes : int;
  cache_evictions : int;
  conflicts : int;
  budget_hits : int;
  deadline_hits : int;
  escalations : int;
  undecided : int;
  elapsed_seconds : float;
  partition_seconds : float;
  bdd_seconds : float;
  sat_seconds : float;
  sweep_seconds : float;
}

let empty_stats =
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
    escalations = 0;
    undecided = 0;
    elapsed_seconds = 0.;
    partition_seconds = 0.;
    bdd_seconds = 0.;
    sat_seconds = 0.;
    sweep_seconds = 0.;
  }

let stats_pp ppf s =
  Format.fprintf ppf
    "%d partitions, %d SAT calls, %d sim rounds, %d cache hits, %d store hits, %d store writes, %d cache evictions, %d conflicts, %d budget hits, %d deadline hits, %d escalations, %d undecided, elapsed %.3fs (partitioning %.3fs), engine CPU-seconds bdd %.3f sat %.3f sweep %.3f"
    s.partitions s.sat_calls s.sim_rounds s.cache_hits s.store_hits
    s.store_writes s.cache_evictions s.conflicts s.budget_hits s.deadline_hits
    s.escalations s.undecided s.elapsed_seconds s.partition_seconds
    s.bdd_seconds s.sat_seconds s.sweep_seconds

(* Per-partition mutable counters.  Each partition task owns exactly one of
   these, so no synchronization is needed; they are merged after the pool
   joins (the join provides the happens-before edge). *)
type counters = {
  mutable k_sat_calls : int;
  mutable k_sim_rounds : int;
  mutable k_cache_hits : int;
  mutable k_store_hits : int;
  mutable k_store_writes : int;
  mutable k_cache_evictions : int;
  mutable k_conflicts : int;
  mutable k_budget_hits : int;
  mutable k_deadline_hits : int;
  mutable k_escalations : int;
  mutable k_undecided : int;
  mutable k_bdd_s : float;
  mutable k_sat_s : float;
  mutable k_sweep_s : float;
}

let fresh_counters () =
  {
    k_sat_calls = 0;
    k_sim_rounds = 0;
    k_cache_hits = 0;
    k_store_hits = 0;
    k_store_writes = 0;
    k_cache_evictions = 0;
    k_conflicts = 0;
    k_budget_hits = 0;
    k_deadline_hits = 0;
    k_escalations = 0;
    k_undecided = 0;
    k_bdd_s = 0.;
    k_sat_s = 0.;
    k_sweep_s = 0.;
  }

let stats_of_counters ~partitions cts =
  Array.fold_left
    (fun acc k ->
      {
        acc with
        sat_calls = acc.sat_calls + k.k_sat_calls;
        sim_rounds = acc.sim_rounds + k.k_sim_rounds;
        cache_hits = acc.cache_hits + k.k_cache_hits;
        store_hits = acc.store_hits + k.k_store_hits;
        store_writes = acc.store_writes + k.k_store_writes;
        cache_evictions = acc.cache_evictions + k.k_cache_evictions;
        conflicts = acc.conflicts + k.k_conflicts;
        budget_hits = acc.budget_hits + k.k_budget_hits;
        deadline_hits = acc.deadline_hits + k.k_deadline_hits;
        escalations = acc.escalations + k.k_escalations;
        undecided = acc.undecided + k.k_undecided;
        bdd_seconds = acc.bdd_seconds +. k.k_bdd_s;
        sat_seconds = acc.sat_seconds +. k.k_sat_s;
        sweep_seconds = acc.sweep_seconds +. k.k_sweep_s;
      })
    { empty_stats with partitions }
    cts

(* Monotonic: NTP steps must neither fire per-partition deadlines early
   nor skew the reported engine seconds. *)
let now () = Obs.Clock.now ()

(* Budget/deadline exhaustion counters double as trace instants, so a blown
   budget is attributed to the partition span it happened in. *)
let note_budget_hit ct reason =
  ct.k_budget_hits <- ct.k_budget_hits + 1;
  Obs.instant "cec.budget_hit" ~attrs:[ ("reason", Obs.String reason) ]

let note_deadline_hit ct reason =
  ct.k_deadline_hits <- ct.k_deadline_hits + 1;
  Obs.instant "cec.deadline_hit" ~attrs:[ ("reason", Obs.String reason) ]

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
     variables.  Entries are {!Store.verdict}s, in memory and on disk. *)
  type slot = { entry : Store.verdict; mutable stamp : int }

  (* Bounded in-memory index, optionally backed by a persistent Store.
     When over capacity a batch eviction drops the least-recently-hit
     quarter-plus of entries (down to 3/4 capacity), so long Flow runs pay
     an amortized O(1) per insertion instead of growing without limit.
     Evicted verdicts that were store-backed are not lost: the store keeps
     them (under its own, larger bound) and a later miss re-promotes. *)
  type t = {
    tbl : (string, slot) Hashtbl.t;
    m : Mutex.t;
    capacity : int;
    store : Store.t option;
    mutable gen : int; (* LRU logical clock *)
  }

  let default_capacity = 65_536

  let create ?(capacity = default_capacity) ?store () =
    {
      tbl = Hashtbl.create 256;
      m = Mutex.create ();
      capacity = max 1 capacity;
      store;
      gen = 0;
    }

  let clear t =
    Mutex.lock t.m;
    Hashtbl.reset t.tbl;
    Mutex.unlock t.m

  let size t =
    Mutex.lock t.m;
    let n = Hashtbl.length t.tbl in
    Mutex.unlock t.m;
    n

  (* m held.  Batch-evict oldest-stamp entries down to 3/4 capacity;
     returns the number dropped. *)
  let evict_locked t =
    let n = Hashtbl.length t.tbl in
    if n <= t.capacity then 0
    else begin
      let arr = Array.make n ("", 0) in
      let i = ref 0 in
      Hashtbl.iter
        (fun k s ->
          arr.(!i) <- (k, s.stamp);
          incr i)
        t.tbl;
      Array.sort (fun (_, a) (_, b) -> compare (a : int) b) arr;
      let drop = n - max 1 (t.capacity * 3 / 4) in
      for j = 0 to drop - 1 do
        Hashtbl.remove t.tbl (fst arr.(j))
      done;
      drop
    end

  (* where a hit was served from — callers account the two differently *)
  type hit = Memory of Store.verdict | Disk of Store.verdict

  (* Lookup, memory first, then the backing store; a disk hit is promoted
     into memory so repeats stay off the store's mutex.  Also returns how
     many entries the promotion evicted. *)
  let find_hit t key =
    Mutex.lock t.m;
    match Hashtbl.find_opt t.tbl key with
    | Some s ->
        s.stamp <- t.gen;
        t.gen <- t.gen + 1;
        let e = s.entry in
        Mutex.unlock t.m;
        (Some (Memory e), 0)
    | None -> (
        Mutex.unlock t.m;
        match t.store with
        | None -> (None, 0)
        | Some st -> (
            match Store.find st key with
            | None -> (None, 0)
            | Some e ->
                Mutex.lock t.m;
                let evicted =
                  if Hashtbl.mem t.tbl key then 0
                  else begin
                    Hashtbl.add t.tbl key { entry = e; stamp = t.gen };
                    t.gen <- t.gen + 1;
                    evict_locked t
                  end
                in
                Mutex.unlock t.m;
                (Some (Disk e), evicted)))

  (* Insert if absent, write-through to the store (outside the cache
     mutex: Store.add dedupes on its own).  Returns (records appended to
     the store, entries evicted). *)
  let add_entry t key entry =
    Mutex.lock t.m;
    let fresh = not (Hashtbl.mem t.tbl key) in
    let evicted =
      if fresh then begin
        Hashtbl.add t.tbl key { entry; stamp = t.gen };
        t.gen <- t.gen + 1;
        evict_locked t
      end
      else 0
    in
    Mutex.unlock t.m;
    let wrote =
      fresh
      &&
      match t.store with
      | Some st -> Store.add st key entry
      | None -> false
    in
    ((if wrote then 1 else 0), evicted)
end

let input_index_tbl g =
  let t = Hashtbl.create 64 in
  for i = 0 to Aig.num_inputs g - 1 do
    Hashtbl.replace t (Aig.node_of (Aig.input_lit g i)) i
  done;
  t

(* ---------- BDD engine ---------- *)

exception Bdd_give_up of string

let check_bdd ct b (p : Seqprob.t) =
  let g = p.graph in
  let man = Bdd.man () in
  (* BDD variable = AIG input index; the problem's vars array names it *)
  let input_index = input_index_tbl g in
  let node_bdd = Hashtbl.create 256 in
  let steps = ref 0 in
  (* The ceiling is approximate: it is polled between AIG-node builds, so a
     single wide conjunction may overshoot before being caught. *)
  let check_budget () =
    (match b.lim.bdd_nodes with
    | Some ceiling when Bdd.node_count man > ceiling ->
        note_budget_hit ct "BDD node ceiling";
        raise (Bdd_give_up "BDD node ceiling")
    | _ -> ());
    if cancelled b then begin
      note_deadline_hit ct "cancelled";
      raise (Bdd_give_up "cancelled")
    end;
    incr steps;
    if !steps land 255 = 0 && expired b then begin
      note_deadline_hit ct "partition deadline";
      raise (Bdd_give_up "partition deadline")
    end
  in
  let rec go n =
    if n = 0 then Bdd.zero man
    else
      match Hashtbl.find_opt node_bdd n with
      | Some f -> f
      | None ->
          check_budget ();
          let f =
            if Aig.is_input_node g n then
              Bdd.var man (Hashtbl.find input_index n)
            else
              let f0, f1 = Aig.fanins g n in
              Bdd.and_ man (lit_bdd f0) (lit_bdd f1)
          in
          Hashtbl.replace node_bdd n f;
          f
  and lit_bdd l =
    let f = go (Aig.node_of l) in
    if Aig.is_complement l then Bdd.not_ man f else f
  in
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
  try cmp p.outs1 p.outs2 with Bdd_give_up reason -> Undecided reason

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
let sat_solve_counted ct b ?(factor = 1) solver ?assumptions () =
  ct.k_sat_calls <- ct.k_sat_calls + 1;
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
  ct.k_sat_s <- ct.k_sat_s +. (now () -. t0);
  let c1, _, _ = Sat.stats solver in
  ct.k_conflicts <- ct.k_conflicts + (c1 - c0);
  (match r with
  | Sat.Unknown ->
      if cancelled b || expired b then
        note_deadline_hit ct
          (if cancelled b then "cancelled" else "partition deadline")
      else note_budget_hit ct "SAT conflict budget"
  | Sat.Sat | Sat.Unsat -> ());
  r

let give_up_reason b =
  if cancelled b then "cancelled"
  else if expired b then "partition deadline"
  else "SAT conflict budget"

(* extract input assignment from a SAT model *)
let model_cex enc g vars =
  let n_in = Aig.num_inputs g in
  let cex = ref [] in
  for i = 0 to n_in - 1 do
    let l = Aig.input_lit g i in
    let node = Aig.node_of l in
    let v = Encoder.var_of enc node in
    if v <> 0 then cex := (vars.(i), Sat.value enc.Encoder.solver v) :: !cex
  done;
  List.rev !cex

let check_sat ct b ?factor (p : Seqprob.t) =
  let g = p.graph in
  let enc = Encoder.create g in
  (* miter: OR of XORs *)
  let diffs = List.map2 (fun a b -> Aig.xor_ g a b) p.outs1 p.outs2 in
  let miter = Aig.or_list g diffs in
  if miter = Aig.lit_false then Equivalent
  else begin
    let ml = Encoder.encode_lit enc miter in
    match
      sat_solve_counted ct b ?factor enc.Encoder.solver ~assumptions:[ ml ] ()
    with
    | Sat.Unsat -> Equivalent
    | Sat.Sat -> Inequivalent (model_cex enc g p.vars)
    | Sat.Unknown -> Undecided (give_up_reason b)
  end

(* ---------- sweep engine ---------- *)

let sim_rounds = 4 (* 4 * 64 = 256 random patterns *)

let check_sweep ct b ?(seed = 0xC0FFEE) (p : Seqprob.t) =
  let g = p.graph in
  let st = Random.State.make [| seed |] in
  let n_in = Aig.num_inputs g in
  let n_nodes = Aig.node_count g in
  (* signatures *)
  let sigs = Array.make n_nodes [] in
  for _round = 1 to sim_rounds do
    (* bits64 gives full-width words; int64 below max_int never sets bit 63,
       which would make pattern lane 63 simulate the all-zeros input *)
    let words = Array.init n_in (fun _ -> Random.State.bits64 st) in
    let vals = Aig.simulate g words in
    for n = 0 to n_nodes - 1 do
      sigs.(n) <- vals.(n) :: sigs.(n)
    done
  done;
  ct.k_sim_rounds <- ct.k_sim_rounds + sim_rounds;
  (* canonical signature: complement so that bit0 of first word is 0 *)
  let canon n =
    match sigs.(n) with
    | [] -> ([], false)
    | w :: _ as ws ->
        if Int64.logand w 1L = 1L then (List.map Int64.lognot ws, true) else (ws, false)
  in
  (* rebuild into g2 merging proven-equivalent nodes *)
  let g2 = Aig.create () in
  let enc = Encoder.create g2 in
  let map = Array.make n_nodes (-1) in
  map.(0) <- Aig.lit_false;
  let classes : (int64 list, int) Hashtbl.t = Hashtbl.create 1024 in
  (* class table: canonical signature -> representative node (original id) *)
  let lit_map l =
    let m = map.(Aig.node_of l) in
    assert (m >= 0);
    if Aig.is_complement l then Aig.neg m else m
  in
  let prove_equal la lb =
    (* equal iff both (la & ~lb) and (~la & lb) unsatisfiable; an Unknown
       (blown per-call budget) counts as not-proven, which is sound — the
       nodes simply stay unmerged and the final miter decides *)
    let a = Encoder.encode_lit enc la and sb = Encoder.encode_lit enc lb in
    match
      sat_solve_counted ct b enc.Encoder.solver ~assumptions:[ a; -sb ] ()
    with
    | Sat.Sat | Sat.Unknown -> false
    | Sat.Unsat -> (
        match
          sat_solve_counted ct b enc.Encoder.solver ~assumptions:[ -a; sb ] ()
        with
        | Sat.Sat | Sat.Unknown -> false
        | Sat.Unsat -> true)
  in
  for n = 1 to n_nodes - 1 do
    if Aig.is_input_node g n then begin
      map.(n) <- Aig.input g2;
      (* inputs are never merged, but register their class so that internal
         nodes equivalent to an input can merge into it *)
      let key, phase = canon n in
      if not (Hashtbl.mem classes key) then Hashtbl.replace classes key n
      else ignore phase
    end
    else begin
      let f0, f1 = Aig.fanins g n in
      let l = Aig.and_ g2 (lit_map f0) (lit_map f1) in
      map.(n) <- l;
      (* once the deadline passes or a sibling cancels, stop attempting
         merges — the rebuild itself must finish so the final miter (which
         will then give up quickly too) stays well-defined *)
      if Aig.node_of l <> 0 && not (cancelled b || expired b) then begin
        let key, phase = canon n in
        match Hashtbl.find_opt classes key with
        | None -> Hashtbl.replace classes key n
        | Some repr when repr = n -> ()
        | Some repr ->
            let _, rphase = canon repr in
            let rlit = map.(repr) in
            let rlit = if phase <> rphase then Aig.neg rlit else rlit in
            if Aig.node_of rlit <> Aig.node_of l && prove_equal l rlit then
              map.(n) <- rlit
      end
    end
  done;
  (* final miter on g2 *)
  let m1 = List.map lit_map p.outs1 and m2 = List.map lit_map p.outs2 in
  let diffs = List.map2 (fun a b -> Aig.xor_ g2 a b) m1 m2 in
  let miter = Aig.or_list g2 diffs in
  if miter = Aig.lit_false then Equivalent
  else begin
    let ml = Encoder.encode_lit enc miter in
    match sat_solve_counted ct b enc.Encoder.solver ~assumptions:[ ml ] () with
    | Sat.Unsat -> Equivalent
    | Sat.Unknown -> Undecided (give_up_reason b)
    | Sat.Sat ->
        (* map model back through original input order: input i of g maps to
           input i of g2 (inputs created in the same order) *)
        let cex = ref [] in
        for i = 0 to n_in - 1 do
          let l2 = map.(Aig.node_of (Aig.input_lit g i)) in
          let v = Encoder.var_of enc (Aig.node_of l2) in
          if v <> 0 then
            cex := (p.vars.(i), Sat.value enc.Encoder.solver v) :: !cex
        done;
        Inequivalent (List.rev !cex)
  end

(* ---------- engine dispatch, cache, partitioning ---------- *)

let engine_name = function
  | Bdd_engine -> "bdd"
  | Sat_engine -> "sat"
  | Sweep_engine -> "sweep"

let verdict_attr = function
  | Equivalent -> Obs.String "equivalent"
  | Inequivalent _ -> Obs.String "inequivalent"
  | Undecided r -> Obs.String ("undecided: " ^ r)

(* Cone-cost attribution: one live histogram per decade of estimated
   cluster cost (node-frames, {!Layout.estimate}), so a metrics scrape
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
let run_one ct b ~engine ~factor p =
  let sat0 = ct.k_sat_s in
  let v, dt =
    Obs.timed_span
      ~name:("cec.engine." ^ engine_name engine)
      (fun () ->
        let v =
          match engine with
          | Bdd_engine -> check_bdd ct b p
          | Sat_engine -> check_sat ct b ~factor p
          | Sweep_engine -> check_sweep ct b p
        in
        Obs.attr (fun () -> [ ("verdict", verdict_attr v) ]);
        v)
  in
  let sat_dt = ct.k_sat_s -. sat0 in
  (match engine with
  | Bdd_engine -> ct.k_bdd_s <- ct.k_bdd_s +. dt
  | Sat_engine -> ct.k_sat_s <- ct.k_sat_s +. Float.max 0. (dt -. sat_dt)
  | Sweep_engine -> ct.k_sweep_s <- ct.k_sweep_s +. Float.max 0. (dt -. sat_dt));
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

let run_engine ct b ~engine p =
  if cancelled b then Undecided "cancelled"
  else
    match run_one ct b ~engine ~factor:1 p with
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
                ct.k_escalations <- ct.k_escalations + 1;
                Obs.instant "cec.escalate"
                  ~attrs:
                    [
                      ("engine", Obs.String (engine_name e));
                      ("factor", Obs.Int factor);
                    ];
                match run_one ct b ~engine:e ~factor p with
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
  let input_index = input_index_tbl p.graph in
  Aig.cone_inputs p.graph [ p.outs1; p.outs2 ]
  |> List.map (fun n -> p.vars.(Hashtbl.find input_index n))
  |> Array.of_list

let check_pair ct b ~engine ~cache p =
  match cache with
  | None -> run_engine ct b ~engine p
  | Some cache -> (
      let key = pair_signature p in
      let note_cache_hit () =
        ct.k_cache_hits <- ct.k_cache_hits + 1;
        Obs.instant "cec.cache_hit";
        Obs.count "cec.cache_hits" 1
      in
      let note_store_hit () =
        (* disjoint from cache_hits: served by the persistent store, not
           the in-memory index (Store.find already emits store.hit) *)
        ct.k_store_hits <- ct.k_store_hits + 1;
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
      ct.k_cache_evictions <- ct.k_cache_evictions + evicted;
      match hit with
      | Some (Cache.Memory e | Cache.Disk e as h) -> (
          (match h with
          | Cache.Memory _ -> note_cache_hit ()
          | Cache.Disk _ -> note_store_hit ());
          match e with
          | Store.Equivalent -> Equivalent
          | Store.Inequivalent pos -> replay pos)
      | None -> (
          let v = run_engine ct b ~engine p in
          let remember entry =
            let wrote, evicted = Cache.add_entry cache key entry in
            ct.k_store_writes <- ct.k_store_writes + wrote;
            ct.k_cache_evictions <- ct.k_cache_evictions + evicted
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

(* Partition layout — overlap clustering, the cone cost model and cost-
   driven bin packing — lives in {!Layout} (re-exported from this module's
   interface).  Clusters are the verdict and cache-key units; bins only
   group clusters into pool tasks. *)
module Layout = Layout

(* One sub-AIG per cluster, carved out of the shared problem graph with
   Aig.extract; the sub-problem's variables come through the extraction's
   input map, so nothing is re-translated from netlists. *)
let extract_part (p : Seqprob.t) members o1 o2 =
  let roots1 = List.map (fun i -> o1.(i)) members in
  let roots2 = List.map (fun i -> o2.(i)) members in
  let ex = Aig.extract p.graph ~roots:(roots1 @ roots2) in
  let tr l =
    let m = ex.Aig.map.(Aig.node_of l) in
    if Aig.is_complement l then Aig.neg m else m
  in
  {
    Seqprob.graph = ex.Aig.sub;
    vars = Array.map (fun pi -> p.vars.(pi)) ex.Aig.sub_inputs;
    outs1 = List.map tr roots1;
    outs2 = List.map tr roots2;
  }

let check_monolithic ~engine ~limits ~cache p =
  let ct = fresh_counters () in
  let b = bctx_of_limits limits in
  let v = check_pair ct b ~engine ~cache p in
  (match v with
  | Undecided _ -> ct.k_undecided <- ct.k_undecided + 1
  | Equivalent | Inequivalent _ -> ());
  (v, stats_of_counters ~partitions:1 [| ct |])

let check_partitioned ~engine ~jobs ~pool ~limits ~cache ~forced (p : Seqprob.t)
    =
  if p.outs1 = [] then (Equivalent, empty_stats)
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
                ("bins", Obs.Int (List.length l.Layout.bins));
                ("monolithic", Obs.Bool l.Layout.monolithic);
                ("cost", Obs.Float l.Layout.total_cost);
              ]);
          let subs =
            if l.Layout.monolithic then [||]
            else
              Array.of_list l.Layout.clusters
              |> Array.map (fun cl -> extract_part p cl.Layout.members o1 o2)
          in
          (l, subs))
    in
    if layout.Layout.monolithic then begin
      (* Below the cost threshold the whole check is cheaper than the
         partitioning machinery: run it in one piece, spin up no pool. *)
      let t0 = now () in
      let v, st = check_monolithic ~engine ~limits ~cache p in
      observe_cone_cost ~cost:layout.Layout.total_cost (now () -. t0);
      (v, { st with partition_seconds = layout_seconds })
    end
    else begin
      let cache = match cache with Some c -> c | None -> Cache.create () in
      let n = Array.length subs in
      let counters = Array.init n (fun _ -> fresh_counters ()) in
      (* Set by find_first the moment any cluster reports a counterexample;
         every in-flight sibling's SAT loop / BDD build polls it and stops
         mid-solve, and bins abandon their not-yet-started clusters. *)
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
            match check_pair counters.(k) b ~engine ~cache:(Some cache) sub with
            | Equivalent -> None
            | Undecided reason ->
                counters.(k).k_undecided <- counters.(k).k_undecided + 1;
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
        (* one pool task per scheduling bin; a task checks its clusters in
           ascending index order.  Never spawn more workers than bins.
           With a caller-supplied pool (the shared server pool) the batch
           runs on it as-is — the pool's lazy demand-driven worker sizing
           already never spawns more domains than there are outstanding
           tasks — and the pool is left running for the next batch. *)
        let bins = layout.Layout.bins in
        let search pool =
          Par.Pool.find_first ~found:cancel pool
            (fun bin ->
              let rec go = function
                | [] -> None
                | k :: rest ->
                    if Atomic.get cancel then None
                    else (
                      match check_cluster k with
                      | None -> go rest
                      | Some cex -> Some cex)
              in
              go bin)
            bins
        in
        match pool with
        | Some pool -> search pool
        | None -> Par.Pool.with_pool ~jobs:(min jobs (List.length bins)) search
      in
      let stats =
        {
          (stats_of_counters ~partitions:n counters) with
          partition_seconds = layout_seconds;
        }
      in
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

let check_problem_with_stats ?(engine = Sweep_engine) ?jobs ?pool ?partition
    ?(limits = no_limits) ?cache (p : Seqprob.t) =
  if List.length p.outs1 <> List.length p.outs2 then
    invalid_arg "Cec: output counts differ";
  (* a shared pool implies its own parallelism level unless the caller
     narrows it (e.g. a per-request jobs cap below the server's pool) *)
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
        | None when jobs > 1 ->
            (* adaptive: the layout's cost model decides — monolithic
               below the threshold, cost-packed bins above *)
            check_partitioned ~engine ~jobs ~pool ~limits ~cache ~forced:false p
        | None -> check_monolithic ~engine ~limits ~cache p)
  in
  (v, { stats with elapsed_seconds = elapsed })

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
