(* Combinational equivalence checking: all three engines against
   structure-perturbing rewrites, seeded bugs and brute-force reference. *)

let st = Random.State.make [| 0xCEC |]

let engines = [ ("bdd", Cec.Bdd_engine); ("sat", Cec.Sat_engine); ("sweep", Cec.Sweep_engine) ]

(* The randomized tests end with a few pairs wider than the sweep's
   exhaustive cutoff, where it takes its random-simulation path (SAT
   merges, refinement by each counterexample), so both of its paths meet
   the other engines.  Their bugs flip one output on a single pattern,
   which random simulation misses.  Those pairs come from their own
   state: the narrower pairs before them stay as they were. *)
let wide_st = Random.State.make [| 0xCEC; 0x5EED |]

let wide_inputs () = Cec.exhaustive_inputs + 1 + Random.State.int wide_st 4

(* [c] with every output XORed with the parity of all of its inputs.
   Each output cone then spans every input, so the clusters of a wide
   pair are wider than the cutoff too; the cones of the random circuits
   here reach 12 inputs at most. *)
let widen c =
  Gen.map_outputs ~suffix:"_wide" c (fun nc _ o ->
      List.fold_left (fun a i -> Circuit.add_gate nc Xor [ a; i ]) o (Circuit.inputs nc))

(* [c] with its first output flipped on the one input assignment [bits]
   (by input position): the pair differs on that pattern alone, so a
   sweep that skips it proves a false merge *)
let flip_on_pattern c bits =
  Gen.map_outputs ~suffix:"_flip" c (fun nc out o ->
      if out > 0 then o
      else begin
        let lits =
          List.mapi
            (fun i s -> if bits.(i) then s else Circuit.add_gate nc Not [ s ])
            (Circuit.inputs nc)
        in
        let minterm =
          List.fold_left (fun a l -> Circuit.add_gate nc And [ a; l ]) (List.hd lits) (List.tl lits)
        in
        Circuit.add_gate nc Xor [ o; minterm ]
      end)

(* [c] flipped on one random pattern of a wide pair's inputs: the 256
   random patterns the sweep simulates first most likely miss it, so its
   SAT merges must disprove candidates and refine the classes *)
let flip_somewhere c =
  flip_on_pattern c
    (Array.init (List.length (Circuit.inputs c)) (fun _ -> Random.State.bool wide_st))

(* the checker's one entry point, on a pair of combinational circuits *)
let check ?engine ?jobs ?partition ?limits ?cache c1 c2 =
  Cec.check_problem_with_stats ?engine ?jobs ?partition ?limits ?cache
    (Cec.of_circuits c1 c2)

let test_equivalent_rewrites () =
  for i = 1 to 50 do
    let wide = i > 40 in
    let st = if wide then wide_st else st in
    let c1 =
      Gen.comb st ~name:(Printf.sprintf "eq%d" i)
        ~inputs:(if wide then wide_inputs () else 2 + Random.State.int st 5)
        ~gates:(5 + Random.State.int st 50)
        ~outputs:(1 + Random.State.int st 3)
    in
    let c1 = if wide then flip_somewhere c1 else c1 in
    let c2 = Gen.demorganize c1 in
    List.iter
      (fun (nm, e) ->
        match fst (check ~engine:e c1 c2) with
        | Cec.Equivalent -> ()
        | Cec.Inequivalent _ -> Alcotest.fail (nm ^ ": false inequivalence")
        | Cec.Undecided r -> Alcotest.failf "%s: undecided: %s" nm r)
      engines
  done

let test_seeded_bugs_found () =
  for i = 1 to 50 do
    let wide = i > 40 in
    let st = if wide then wide_st else st in
    let c1 =
      Gen.comb st ~name:(Printf.sprintf "bug%d" i)
        ~inputs:(if wide then wide_inputs () else 2 + Random.State.int st 4)
        ~gates:(5 + Random.State.int st 40)
        ~outputs:(1 + Random.State.int st 3)
    in
    let c2 =
      if wide then flip_somewhere (Gen.demorganize c1)
      else Gen.negate_one_output (Gen.demorganize c1)
    in
    List.iter
      (fun (nm, e) ->
        match fst (check ~engine:e c1 c2) with
        | Cec.Equivalent -> Alcotest.fail (nm ^ ": missed seeded bug")
        | Cec.Undecided r -> Alcotest.failf "%s: undecided: %s" nm r
        | Cec.Inequivalent cex ->
            Alcotest.(check bool) (nm ^ ": cex replays") true
              (Cec.counterexample_is_valid c1 c2 cex))
      engines
  done

let test_engines_agree () =
  (* random pairs (often inequivalent): all engines agree on the verdict *)
  for i = 1 to 38 do
    let wide = i > 30 in
    let st = if wide then wide_st else st in
    let n_in = if wide then wide_inputs () else 2 + Random.State.int st 3 in
    let c1 = Gen.comb st ~name:(Printf.sprintf "p%da" i) ~inputs:n_in ~gates:15 ~outputs:2 in
    let c2 = Gen.comb st ~name:(Printf.sprintf "p%db" i) ~inputs:n_in ~gates:15 ~outputs:2 in
    let verdicts =
      List.map
        (fun (_, e) ->
          match fst (check ~engine:e c1 c2) with
          | Cec.Equivalent -> true
          | Cec.Inequivalent _ -> false
          | Cec.Undecided r -> Alcotest.failf "undecided: %s" r)
        engines
    in
    Alcotest.(check bool) "engines agree" true
      (List.for_all (fun v -> v = List.hd verdicts) verdicts)
  done

let test_vs_brute_force () =
  for i = 1 to 36 do
    (* wide pairs stay at K+1 inputs: 2^(K+1) patterns each *)
    let wide = i > 30 in
    let st = if wide then wide_st else st in
    let n_in = if wide then Cec.exhaustive_inputs + 1 else 2 + Random.State.int st 3 in
    let c1 = Gen.comb st ~name:(Printf.sprintf "b%da" i) ~inputs:n_in ~gates:12 ~outputs:1 in
    let c2 = Gen.comb st ~name:(Printf.sprintf "b%db" i) ~inputs:n_in ~gates:12 ~outputs:1 in
    (* brute force over the union input space; inputs matched by name *)
    let names =
      List.sort_uniq compare
        (List.map (Circuit.signal_name c1) (Circuit.inputs c1)
        @ List.map (Circuit.signal_name c2) (Circuit.inputs c2))
    in
    let nv = List.length names in
    let equal = ref true in
    for m = 0 to (1 lsl nv) - 1 do
      let env name =
        let rec idx i = function
          | [] -> false
          | n :: _ when n = name -> m land (1 lsl i) <> 0
          | _ :: tl -> idx (i + 1) tl
        in
        idx 0 names
      in
      let outs c =
        let source s = env (Circuit.signal_name c s) in
        let v = Eval.comb_eval c ~source in
        List.map (fun o -> v.(o)) (Circuit.outputs c)
      in
      if outs c1 <> outs c2 then equal := false
    done;
    List.iter
      (fun (nm, e) ->
        let got =
          match fst (check ~engine:e c1 c2) with
          | Cec.Equivalent -> true
          | Cec.Inequivalent _ -> false
          | Cec.Undecided r -> Alcotest.failf "undecided: %s" r
        in
        Alcotest.(check bool) (nm ^ " matches brute force") !equal got)
      engines
  done

let test_constants () =
  let c1 = Circuit.create "k1" in
  ignore (Circuit.add_input c1 "x");
  Circuit.mark_output c1 (Circuit.const_true c1);
  Circuit.check c1;
  let c2 = Circuit.create "k2" in
  let x = Circuit.add_input c2 "x" in
  Circuit.mark_output c2 (Circuit.add_gate c2 Or [ x; Circuit.add_gate c2 Not [ x ] ]);
  Circuit.check c2;
  List.iter
    (fun (nm, e) ->
      match fst (check ~engine:e c1 c2) with
      | Cec.Equivalent -> ()
      | Cec.Inequivalent _ -> Alcotest.fail (nm ^ ": tautology not proven")
      | Cec.Undecided r -> Alcotest.failf "%s: undecided: %s" nm r)
    engines

let test_rejects_latches () =
  let c = Circuit.create "seq" in
  let d = Circuit.add_input c "d" in
  Circuit.mark_output c (Circuit.add_latch c ~data:d ());
  Circuit.check c;
  try
    ignore (check c c);
    Alcotest.fail "latch accepted"
  with Invalid_argument _ -> ()

let test_output_count_mismatch () =
  let c1 = Gen.comb st ~name:"o1" ~inputs:2 ~gates:5 ~outputs:1 in
  let c2 = Gen.comb st ~name:"o2" ~inputs:2 ~gates:5 ~outputs:2 in
  try
    ignore (check c1 c2);
    Alcotest.fail "output mismatch accepted"
  with Invalid_argument _ -> ()

let test_disjoint_inputs_free () =
  (* an input present in only one circuit is a free variable: f(x) vs
     g(x,y) must compare over x AND y *)
  let c1 = Circuit.create "d1" in
  let x = Circuit.add_input c1 "x" in
  Circuit.mark_output c1 (Circuit.add_gate c1 Buf [ x ]);
  Circuit.check c1;
  let c2 = Circuit.create "d2" in
  let x2 = Circuit.add_input c2 "x" in
  let y2 = Circuit.add_input c2 "y" in
  Circuit.mark_output c2 (Circuit.add_gate c2 And [ x2; y2 ]);
  Circuit.check c2;
  List.iter
    (fun (nm, e) ->
      match fst (check ~engine:e c1 c2) with
      | Cec.Equivalent -> Alcotest.fail (nm ^ ": y dependence missed")
      | Cec.Undecided r -> Alcotest.failf "%s: undecided: %s" nm r
      | Cec.Inequivalent cex ->
          Alcotest.(check bool) (nm ^ " valid cex") true
            (Cec.counterexample_is_valid c1 c2 cex))
    engines

let test_sweep_on_identical_structures () =
  (* sweeping a miter of two copies should need few/no SAT calls on the
     final miter (internal equivalences collapse it) *)
  let c1 = Gen.comb st ~name:"same" ~inputs:4 ~gates:60 ~outputs:2 in
  let c2 = Gen.demorganize c1 in
  let v, stats = check ~engine:Cec.Sweep_engine c1 c2 in
  (match v with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ | Cec.Undecided _ -> Alcotest.fail "sweep failed");
  Alcotest.(check bool) "sat calls recorded" true (stats.Cec.sat_calls >= 0);
  Alcotest.(check int) "monolithic = 1 partition" 1 stats.Cec.partitions;
  Alcotest.(check bool) "sim rounds recorded" true (stats.Cec.sim_rounds > 0)

(* ---- partitioned / parallel mode ---- *)

let job_counts = [ 1; 2; 4 ]

let test_parallel_agrees_on_equivalent () =
  for i = 1 to 16 do
    let wide = i > 12 in
    let st = if wide then wide_st else st in
    let c1 =
      Gen.comb st ~name:(Printf.sprintf "peq%d" i)
        ~inputs:(if wide then wide_inputs () else 2 + Random.State.int st 5)
        ~gates:(10 + Random.State.int st 50)
        ~outputs:(2 + Random.State.int st 4)
    in
    let c1 = if wide then widen c1 else c1 in
    let c2 = Gen.demorganize c1 in
    let parts_seen =
      List.map
        (fun jobs ->
          let v, stats = check ~jobs ~partition:true c1 c2 in
          (match v with
          | Cec.Equivalent -> ()
          | Cec.Inequivalent _ | Cec.Undecided _ ->
              Alcotest.fail (Printf.sprintf "jobs=%d: false inequivalence" jobs));
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: partition count within bounds" jobs)
            true
            (stats.Cec.partitions >= 1
            && stats.Cec.partitions <= List.length (Circuit.outputs c1));
          stats.Cec.partitions)
        job_counts
    in
    (* cone clustering depends only on the circuits, never on jobs *)
    Alcotest.(check bool) "partition layout independent of jobs" true
      (List.for_all (fun p -> p = List.hd parts_seen) parts_seen)
  done

let test_parallel_agrees_on_bugs () =
  for i = 1 to 16 do
    let wide = i > 12 in
    let st = if wide then wide_st else st in
    let c1 =
      Gen.comb st ~name:(Printf.sprintf "pbug%d" i)
        ~inputs:(if wide then wide_inputs () else 2 + Random.State.int st 4)
        ~gates:(10 + Random.State.int st 40)
        ~outputs:(2 + Random.State.int st 3)
    in
    let c1 = if wide then widen c1 else c1 in
    let c2 =
      if wide then flip_somewhere (Gen.demorganize c1)
      else Gen.negate_one_output (Gen.demorganize c1)
    in
    List.iter
      (fun jobs ->
        match fst (check ~jobs ~partition:true c1 c2) with
        | Cec.Equivalent ->
            Alcotest.fail (Printf.sprintf "jobs=%d: missed seeded bug" jobs)
        | Cec.Undecided r -> Alcotest.failf "jobs=%d: undecided: %s" jobs r
        | Cec.Inequivalent cex ->
            Alcotest.(check bool)
              (Printf.sprintf "jobs=%d: cex replays" jobs)
              true
              (Cec.counterexample_is_valid c1 c2 cex))
      job_counts
  done

let test_parallel_matches_sequential_verdict () =
  (* random (usually inequivalent) pairs: partitioned/parallel and
     monolithic verdicts coincide for every engine *)
  for i = 1 to 19 do
    let wide = i > 15 in
    let st = if wide then wide_st else st in
    let n_in = if wide then wide_inputs () else 2 + Random.State.int st 3 in
    let c1 = Gen.comb st ~name:(Printf.sprintf "pm%da" i) ~inputs:n_in ~gates:15 ~outputs:3 in
    let c2 = Gen.comb st ~name:(Printf.sprintf "pm%db" i) ~inputs:n_in ~gates:15 ~outputs:3 in
    let c1, c2 = if wide then (widen c1, widen c2) else (c1, c2) in
    List.iter
      (fun (nm, e) ->
        let mono =
          match fst (check ~engine:e c1 c2) with
          | Cec.Equivalent -> true
          | Cec.Inequivalent _ -> false
          | Cec.Undecided r -> Alcotest.failf "undecided: %s" r
        in
        List.iter
          (fun jobs ->
            match fst (check ~engine:e ~jobs ~partition:true c1 c2) with
            | Cec.Equivalent ->
                Alcotest.(check bool) (Printf.sprintf "%s jobs=%d" nm jobs) mono true
            | Cec.Undecided r -> Alcotest.failf "%s jobs=%d undecided: %s" nm jobs r
            | Cec.Inequivalent cex ->
                Alcotest.(check bool) (Printf.sprintf "%s jobs=%d" nm jobs) mono false;
                Alcotest.(check bool)
                  (Printf.sprintf "%s jobs=%d cex valid" nm jobs)
                  true
                  (Cec.counterexample_is_valid c1 c2 cex))
          job_counts)
      engines
  done

let test_cache_hits_identical_verdicts () =
  let cache = Cec.Cache.create () in
  let c1 = Gen.comb st ~name:"cachea" ~inputs:5 ~gates:40 ~outputs:3 in
  let c2 = Gen.demorganize c1 in
  let v1, s1 = check ~partition:true ~cache c1 c2 in
  Alcotest.(check int) "cold run misses" 0 s1.Cec.cache_hits;
  let v2, s2 = check ~partition:true ~cache c1 c2 in
  Alcotest.(check bool) "verdicts equal" true (v1 = v2);
  Alcotest.(check int) "warm run all hits" s2.Cec.partitions s2.Cec.cache_hits;
  Alcotest.(check int) "no new SAT work" 0 s2.Cec.sat_calls;
  (* inequivalent pairs replay identically through the cache too *)
  let b1 = Gen.comb st ~name:"cacheb" ~inputs:4 ~gates:30 ~outputs:2 in
  let b2 = Gen.negate_one_output (Gen.demorganize b1) in
  let w1, _ = check ~partition:true ~cache b1 b2 in
  let w2, _ = check ~partition:true ~cache b1 b2 in
  (match (w1, w2) with
  | Cec.Inequivalent cex1, Cec.Inequivalent cex2 ->
      Alcotest.(check bool) "cached cex identical" true (cex1 = cex2);
      Alcotest.(check bool) "cached cex valid" true
        (Cec.counterexample_is_valid b1 b2 cex2)
  | _ -> Alcotest.fail "seeded bug not found through cache");
  Alcotest.(check bool) "cache populated" true (Cec.Cache.size cache > 0);
  Cec.Cache.clear cache;
  Alcotest.(check int) "cache cleared" 0 (Cec.Cache.size cache)

let test_cache_shares_isomorphic_cones () =
  (* two copies of the same function under different input names: the
     index-encoded cache entry must transfer and the renamed cex must
     replay *)
  let mk prefix =
    let c = Circuit.create (prefix ^ "c") in
    let a = Circuit.add_input c (prefix ^ "a") in
    let b = Circuit.add_input c (prefix ^ "b") in
    Circuit.mark_output c (Circuit.add_gate c And [ a; b ]);
    Circuit.check c;
    c
  in
  let mk_neg prefix =
    let c = Circuit.create (prefix ^ "n") in
    let a = Circuit.add_input c (prefix ^ "a") in
    let b = Circuit.add_input c (prefix ^ "b") in
    Circuit.mark_output c (Circuit.add_gate c Not [ Circuit.add_gate c And [ a; b ] ]);
    Circuit.check c;
    c
  in
  let cache = Cec.Cache.create () in
  let _, s1 = check ~partition:true ~cache (mk "x") (mk_neg "x") in
  Alcotest.(check int) "first pair computes" 0 s1.Cec.cache_hits;
  let v2, s2 = check ~partition:true ~cache (mk "y") (mk_neg "y") in
  Alcotest.(check int) "renamed pair hits" 1 s2.Cec.cache_hits;
  match v2 with
  | Cec.Inequivalent cex ->
      Alcotest.(check bool) "renamed cex valid" true
        (Cec.counterexample_is_valid (mk "y") (mk_neg "y") cex);
      List.iter
        (fun (v, _) ->
          let n = v.Seqprob.Var.base in
          Alcotest.(check bool) "cex uses the hitting pair's names" true
            (String.length n > 0 && n.[0] = 'y'))
        cex
  | Cec.Equivalent | Cec.Undecided _ -> Alcotest.fail "AND vs NAND accepted"

let test_cache_eviction_bound () =
  (* a capacity-bounded cache drops least-recently-used entries instead of
     growing without bound, and eviction never affects verdicts *)
  let chain n =
    let c = Circuit.create (Printf.sprintf "ch%d" n) in
    let ins = List.init n (fun i -> Circuit.add_input c (Printf.sprintf "a%d" i)) in
    let out =
      List.fold_left (fun acc i -> Circuit.add_gate c And [ acc; i ]) (List.hd ins)
        (List.tl ins)
    in
    Circuit.mark_output c out;
    Circuit.check c;
    c
  in
  let cache = Cec.Cache.create ~capacity:4 () in
  let evictions = ref 0 in
  for n = 2 to 7 do
    let c = chain n in
    let v, s = check ~cache c (Gen.demorganize c) in
    Alcotest.(check bool) (Printf.sprintf "chain %d equivalent" n) true (v = Cec.Equivalent);
    evictions := !evictions + s.Cec.cache_evictions
  done;
  (* the 5th insert overflows capacity 4 and compacts down to 3 entries *)
  Alcotest.(check int) "evictions counted in stats" 2 !evictions;
  Alcotest.(check bool) "cache stays within capacity" true (Cec.Cache.size cache <= 4);
  (* an evicted entry just recomputes *)
  let c = chain 2 in
  let v, s = check ~cache c (Gen.demorganize c) in
  Alcotest.(check bool) "evicted pair recomputes" true
    (v = Cec.Equivalent && s.Cec.cache_hits = 0)

let test_parallel_stress () =
  (* repeated parallel checks: no shared mutable state, stable verdicts *)
  let cache = Cec.Cache.create () in
  for round = 1 to 10 do
    let c1 =
      Gen.comb st ~name:(Printf.sprintf "st%d" round) ~inputs:4 ~gates:30 ~outputs:4
    in
    let c2 = Gen.demorganize c1 in
    let bug = Gen.negate_one_output c2 in
    for _rep = 1 to 3 do
      (match fst (check ~jobs:4 ~cache c1 c2) with
      | Cec.Equivalent -> ()
      | Cec.Inequivalent _ | Cec.Undecided _ ->
          Alcotest.fail "stress: false inequivalence");
      match fst (check ~jobs:4 ~cache c1 bug) with
      | Cec.Equivalent | Cec.Undecided _ -> Alcotest.fail "stress: missed bug"
      | Cec.Inequivalent cex ->
          Alcotest.(check bool) "stress cex valid" true
            (Cec.counterexample_is_valid c1 bug cex)
    done
  done

(* ---- resource budgets / escalation / cancellation ---- *)

(* n-input parity, once as a right-leaning chain and once as a balanced
   tree: same function, no shared structure, and the SAT miter needs real
   search — the workhorse for budget semantics *)
let xor_inputs c n = List.init n (fun i -> Circuit.add_input c (Printf.sprintf "x%d" i))

let xor_chain ~name n =
  let c = Circuit.create name in
  let ins = xor_inputs c n in
  let out =
    List.fold_left (fun acc x -> Circuit.add_gate c Xor [ acc; x ]) (List.hd ins)
      (List.tl ins)
  in
  Circuit.mark_output c out;
  Circuit.check c;
  c

let xor_tree ~name n =
  let c = Circuit.create name in
  let ins = xor_inputs c n in
  let rec pair = function
    | a :: b :: tl -> Circuit.add_gate c Xor [ a; b ] :: pair tl
    | rest -> rest
  in
  let rec build = function [ x ] -> x | xs -> build (pair xs) in
  Circuit.mark_output c (build ins);
  Circuit.check c;
  c

let test_budget_gives_undecided () =
  (* a 1-conflict budget cannot decide the parity miter; without escalation
     the answer must be Undecided — never a wrong Equivalent, never a hang *)
  let c1 = xor_chain ~name:"bxa" 14 and c2 = xor_tree ~name:"bxb" 14 in
  let limits = { Cec.no_limits with Cec.sat_conflicts = Some 1; escalate = false } in
  let v, s = check ~engine:Cec.Sat_engine ~limits c1 c2 in
  (match v with
  | Cec.Undecided _ -> ()
  | Cec.Equivalent -> Alcotest.fail "1-conflict budget claimed a proof"
  | Cec.Inequivalent _ -> Alcotest.fail "1-conflict budget invented a bug");
  Alcotest.(check bool) "budget hit recorded" true (s.Cec.budget_hits > 0);
  Alcotest.(check bool) "undecided recorded" true (s.Cec.undecided > 0)

let test_bdd_ceiling_gives_undecided () =
  (* a 20-node ceiling stops the BDD engine on the parity miter: the
     answer is Undecided with the ceiling as its reason and one budget
     hit; without the ceiling the same engine proves the pair *)
  let c1 = xor_chain ~name:"nxa" 14 and c2 = xor_tree ~name:"nxb" 14 in
  let limits = { Cec.no_limits with Cec.bdd_nodes = Some 20; escalate = false } in
  let v, s = check ~engine:Cec.Bdd_engine ~limits c1 c2 in
  (match v with
  | Cec.Undecided r -> Alcotest.(check string) "reason" "BDD node ceiling" r
  | Cec.Equivalent | Cec.Inequivalent _ -> Alcotest.fail "the ceiling still answered");
  Alcotest.(check int) "budget hit recorded" 1 s.Cec.budget_hits;
  Alcotest.(check int) "undecided recorded" 1 s.Cec.undecided;
  match check ~engine:Cec.Bdd_engine c1 c2 with
  | Cec.Equivalent, _ -> ()
  | (Cec.Inequivalent _ | Cec.Undecided _), _ -> Alcotest.fail "unlimited BDDs failed"

let test_escalation_ladder_proves () =
  (* same miter, same 1-conflict base budget, but with the ladder on: the
     BDD rung proves it (parity BDDs are linear) and records the climb *)
  let c1 = xor_chain ~name:"exa" 14 and c2 = xor_tree ~name:"exb" 14 in
  let limits = { Cec.default_limits with Cec.sat_conflicts = Some 1 } in
  let v, s = check ~engine:Cec.Sweep_engine ~limits c1 c2 in
  (match v with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.fail "ladder invented a bug"
  | Cec.Undecided r -> Alcotest.failf "ladder failed to prove parity: %s" r);
  Alcotest.(check bool) "escalation recorded" true (s.Cec.escalations > 0);
  Alcotest.(check bool) "budget hit recorded" true (s.Cec.budget_hits > 0)

let test_deadline_gives_undecided () =
  (* an already-expired deadline stops the engines before any work; expired
     checks are final (no escalation) *)
  let c1 = xor_chain ~name:"dxa" 14 and c2 = xor_tree ~name:"dxb" 14 in
  let limits = { Cec.no_limits with Cec.seconds = Some 0.0 } in
  let v, s = check ~engine:Cec.Sat_engine ~limits c1 c2 in
  (match v with
  | Cec.Undecided _ -> ()
  | Cec.Equivalent | Cec.Inequivalent _ ->
      Alcotest.fail "expired deadline still answered");
  Alcotest.(check bool) "deadline hit recorded" true (s.Cec.deadline_hits > 0)

let test_budgets_leave_easy_checks_alone () =
  let c1 = Gen.comb st ~name:"easyb" ~inputs:5 ~gates:40 ~outputs:2 in
  let c2 = Gen.demorganize c1 in
  let v, s = check ~limits:Cec.default_limits c1 c2 in
  (match v with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ | Cec.Undecided _ ->
      Alcotest.fail "default limits changed an easy verdict");
  Alcotest.(check int) "no budget hits" 0 s.Cec.budget_hits;
  Alcotest.(check int) "no escalations" 0 s.Cec.escalations;
  Alcotest.(check int) "nothing undecided" 0 s.Cec.undecided

(* two disjoint cones: an instantly-failing AND-vs-NAND pair and the hard
   parity pair — exercises verdict precedence across partitions *)
let two_cone_pair () =
  let mk neg name =
    let c = xor_chain ~name 14 in
    let a = Circuit.add_input c "a" and b = Circuit.add_input c "b" in
    let g = Circuit.add_gate c And [ a; b ] in
    Circuit.mark_output c (if neg then Circuit.add_gate c Not [ g ] else g);
    Circuit.check c;
    c
  in
  (mk false "tc1", mk true "tc2")

let test_cex_wins_over_undecided () =
  (* the parity cone is Undecided under a tiny budget, but the AND-vs-NAND
     cone has a counterexample — which must win at every job count (and,
     in parallel, cancel the sibling solver) *)
  let c1, c2 = two_cone_pair () in
  let limits = { Cec.no_limits with Cec.sat_conflicts = Some 1; escalate = false } in
  List.iter
    (fun jobs ->
      match fst (check ~engine:Cec.Sat_engine ~jobs ~partition:true ~limits c1 c2) with
      | Cec.Inequivalent cex ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: winning cex replays" jobs)
            true
            (Cec.counterexample_is_valid c1 c2 cex)
      | Cec.Equivalent -> Alcotest.failf "jobs=%d: budget flipped to Equivalent" jobs
      | Cec.Undecided r ->
          Alcotest.failf "jobs=%d: cex lost to Undecided (%s)" jobs r)
    job_counts

let test_jobs_agree_on_undecided () =
  (* out0 identical on both sides (decided within any budget), out1 the
     parity pair (Undecided under 1 conflict): the overall verdict —
     including the lowest-index-partition reason — is jobs-independent *)
  let add_buf c =
    let y = Circuit.add_input c "y" in
    Circuit.mark_output c (Circuit.add_gate c Buf [ y ]);
    Circuit.check c;
    c
  in
  let c1 = add_buf (xor_chain ~name:"ju1" 14)
  and c2 = add_buf (xor_tree ~name:"ju2" 14) in
  let limits = { Cec.no_limits with Cec.sat_conflicts = Some 1; escalate = false } in
  let v1, _ = check ~engine:Cec.Sat_engine ~jobs:1 ~partition:true ~limits c1 c2 in
  let v4, _ = check ~engine:Cec.Sat_engine ~jobs:4 ~partition:true ~limits c1 c2 in
  (match v1 with
  | Cec.Undecided _ -> ()
  | Cec.Equivalent -> Alcotest.fail "budget flipped to Equivalent"
  | Cec.Inequivalent _ -> Alcotest.fail "budget invented a bug");
  Alcotest.(check bool) "jobs=1 and jobs=4 verdicts identical" true (v1 = v4)

let test_cex_replays_across_time_frames () =
  (* x XOR latch(x) vs constant false: the certified counterexample must
     set x@0 and x@1 differently, and replay on the unrolled netlists must
     key its environment by the full (base, frame) variable — a base-keyed
     environment collapses the two frames and rejects the witness *)
  let c1 = Circuit.create "fr1" in
  let x = Circuit.add_input c1 "x" in
  let l = Circuit.add_latch c1 ~data:x () in
  Circuit.mark_output c1 (Circuit.add_gate c1 Xor [ x; l ]);
  Circuit.check c1;
  let c2 = Circuit.create "fr2" in
  ignore (Circuit.add_input c2 "x");
  Circuit.mark_output c2 (Circuit.const_false c2);
  Circuit.check c2;
  match Result.get_ok (Verify.check c1 c2) with
  | { Verify.verdict = Verify.Inequivalent (Some cex); _ } ->
      let v d =
        match List.assoc_opt (Seqprob.Var.time "x" d) cex with
        | Some b -> b
        | None -> false
      in
      Alcotest.(check bool) "frames disagree" true (v 0 <> v 1);
      let u1, _ = Cbf_oracle.unroll_netlist c1 in
      let u2, _ = Cbf_oracle.unroll_netlist c2 in
      Alcotest.(check bool) "replays on netlist unrollings" true
        (Cec.counterexample_is_valid u1 u2 cex)
  | { Verify.verdict = _; _ } -> Alcotest.fail "expected a certified counterexample"

(* Guard: stats_pp must print every field.  The record below is a FULL
   literal (no [with]), so adding a stats field breaks this test at compile
   time until the sentinel for it is added — and the assertions catch a
   field dropped from the format string. *)
let test_stats_pp_prints_every_field () =
  let s =
    {
      Cec.sat_calls = 101;
      sim_rounds = 102;
      partitions = 103;
      cache_hits = 104;
      store_hits = 115;
      store_writes = 116;
      cache_evictions = 117;
      conflicts = 105;
      budget_hits = 106;
      deadline_hits = 107;
      cancelled = 118;
      escalations = 108;
      undecided = 109;
      elapsed_seconds = 110.5;
      partition_seconds = 111.5;
      bdd_seconds = 112.5;
      sat_seconds = 113.5;
      sweep_seconds = 114.5;
    }
  in
  let text = Format.asprintf "%a" Cec.stats_pp s in
  let contains needle =
    let nh = String.length text and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub text i nn = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun sentinel ->
      Alcotest.(check bool) (sentinel ^ " printed") true (contains sentinel))
    [
      "101"; "102"; "103"; "104"; "105"; "106"; "107"; "108"; "109";
      "110.5"; "111.5"; "112.5"; "113.5"; "114.5"; "115"; "116"; "117";
      "118 cancelled";
    ]

(* elapsed_seconds is the true wall clock: sequentially the per-engine
   CPU-second sums are bounded by it (they are disjoint slices of the same
   wall time); in parallel they may exceed it, but the wall clock itself is
   always recorded. *)
let test_elapsed_seconds () =
  let c1 =
    Gen.comb st ~name:"elapsed_a" ~inputs:6 ~gates:120 ~outputs:6
  in
  let c2 = Gen.demorganize c1 in
  let v, s = check ~engine:Cec.Sweep_engine c1 c2 in
  (match v with
  | Cec.Equivalent -> ()
  | _ -> Alcotest.fail "expected equivalent");
  Alcotest.(check bool) "elapsed recorded" true (s.Cec.elapsed_seconds > 0.);
  let engine_sum =
    s.Cec.bdd_seconds +. s.Cec.sat_seconds +. s.Cec.sweep_seconds
  in
  Alcotest.(check bool) "some engine time charged" true (engine_sum > 0.);
  Alcotest.(check bool) "sequential: engine CPU-seconds <= elapsed" true
    (engine_sum <= s.Cec.elapsed_seconds +. 0.05);
  (* parallel: partitions overlap, so only the wall clock is bounded *)
  let v2, s2 = check ~jobs:2 ~engine:Cec.Sweep_engine c1 c2 in
  (match v2 with
  | Cec.Equivalent -> ()
  | _ -> Alcotest.fail "parallel: expected equivalent");
  Alcotest.(check bool) "parallel: elapsed recorded" true
    (s2.Cec.elapsed_seconds > 0.);
  Alcotest.(check bool) "parallel: layout time within elapsed" true
    (s2.Cec.partition_seconds <= s2.Cec.elapsed_seconds)

(* ---- adaptive layout / cost model ---- *)

(* Unroll a sequential pair into the shared Seqprob the layout operates
   on, exposing the named latches (default: the left side's structural
   feedback plan, the recipe of Verify.check's callers). *)
let problem_of ?exposed c1 c2 =
  let names =
    match exposed with
    | Some names -> names
    | None ->
        List.map (Circuit.signal_name c1)
          (Feedback.plan_structural c1).Feedback.exposed
  in
  let ex c s = List.mem (Circuit.signal_name c s) names in
  let bld = Seqprob.builder () in
  let o1, _ = Result.get_ok (Cbf.unroll ~exposed:(ex c1) bld c1) in
  let o2, _ = Result.get_ok (Cbf.unroll ~exposed:(ex c2) bld c2) in
  Result.get_ok (Seqprob.problem bld ~outs1:o1 ~outs2:o2)

let test_estimate_monotone () =
  let pts = [ 0; 1; 2; 5; 17; 100; 4096 ] in
  List.iter
    (fun nodes ->
      List.iter
        (fun depth ->
          let e = Cec.Layout.estimate ~nodes ~depth in
          Alcotest.(check bool) "estimate grows with nodes" true
            (Cec.Layout.estimate ~nodes:(nodes + 1) ~depth >= e);
          Alcotest.(check bool) "estimate grows with depth" true
            (Cec.Layout.estimate ~nodes ~depth:(depth + 1) >= e))
        pts)
    pts;
  (* depth is clamped to >= 1 so a purely combinational cone still costs
     its node count *)
  Alcotest.(check (float 0.)) "depth 0 = depth 1"
    (Cec.Layout.estimate ~nodes:42 ~depth:1)
    (Cec.Layout.estimate ~nodes:42 ~depth:0)

let test_small_problem_goes_monolithic () =
  (* every problem under the threshold collapses to a monolithic layout —
     unless the caller forces partitioning *)
  let c1 = Gen.comb st ~name:"lay_small" ~inputs:5 ~gates:40 ~outputs:4 in
  let p = problem_of c1 (Gen.demorganize c1) in
  let l = Cec.Layout.compute p in
  Alcotest.(check bool) "monolithic" true l.Cec.Layout.monolithic;
  Alcotest.(check bool) "under threshold" true
    (l.Cec.Layout.total_cost < Cec.Layout.default_threshold);
  let f = Cec.Layout.compute ~forced:true p in
  Alcotest.(check bool) "forced layout partitions" false f.Cec.Layout.monolithic;
  Alcotest.(check bool) "forced layout has clusters" true (f.Cec.Layout.clusters <> [])

let test_below_threshold_no_pool () =
  (* an adaptive jobs=4 check of a small problem must spin up no worker
     domain at all: the monolithic fast path never creates a pool (spans
     are the observable — every spawned worker opens a pool.worker span).
     The problem is wider than the exhaustive cutoff, so the cost
     threshold, not the input count, keeps it whole. *)
  let c1 =
    Gen.comb st ~name:"lay_nopool" ~inputs:(Cec.exhaustive_inputs + 1) ~gates:60 ~outputs:5
  in
  let c2 = Gen.demorganize c1 in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
      let v, s = check ~jobs:4 c1 c2 in
      (match v with
      | Cec.Equivalent -> ()
      | _ -> Alcotest.fail "expected equivalent");
      Alcotest.(check int) "one partition" 1 s.Cec.partitions;
      let workers =
        List.filter
          (function Obs.Begin { name = "pool.worker"; _ } -> true | _ -> false)
          (Obs.collect ())
      in
      Alcotest.(check int) "no worker domain spawned" 0 (List.length workers))

(* A monolithic check lands in the cone-cost histogram at its own
   single-cone estimate, nodes x (1 + deepest frame), when the quick
   bound rejects the layout, at jobs 1 and 2 alike.  s1196 against a
   resynthesis of itself sits where the quick bound, twice that
   estimate, is one decade higher. *)
let test_monolithic_cone_cost_decade () =
  let a = Workloads.by_name "s1196" in
  let p = problem_of a (Hier.resynthesize ~seed:1 a) in
  let maxd =
    Array.fold_left (fun m v -> max m (Seqprob.Var.delay v)) 0 p.Seqprob.vars
  in
  let own = Aig.node_count p.Seqprob.graph * (1 + maxd) in
  Alcotest.(check bool)
    (Printf.sprintf "own estimate %d in 1e2, twice it in 1e3" own)
    true
    (own >= 100 && own < 1000 && 2 * own >= 1000);
  let was_on = Obs.counters_enabled () in
  Obs.enable_counters ();
  Fun.protect ~finally:(fun () -> if not was_on then Obs.disable_counters ())
  @@ fun () ->
  let count d =
    match Obs.Histogram.find (Printf.sprintf "cec.cone_seconds.cost_1e%d" d) with
    | Some h -> h.Obs.Histogram.count
    | None -> 0
  in
  let e2 = count 2 and e3 = count 3 in
  List.iter
    (fun jobs ->
      let v, s = Cec.check_problem_with_stats ~jobs p in
      Alcotest.(check bool) "equivalent" true (v = Cec.Equivalent);
      Alcotest.(check int) "monolithic" 1 s.Cec.partitions)
    [ 1; 2 ];
  Alcotest.(check (pair int int))
    "observed in 1e2, not 1e3" (e2 + 2, e3) (count 2, count 3)

let test_layout_deterministic_and_partitioning () =
  (* the layout is a pure function of the problem: recomputing gives
     identical clusters, and clusters partition the output pairs *)
  let c1 = Workloads.fifo ~entries:16 ~width:4 ~style:`Sop () in
  let c2 = Workloads.fifo ~entries:16 ~width:4 ~style:`Mux () in
  let p = problem_of c1 c2 in
  let la = Cec.Layout.compute ~forced:true p in
  let lb = Cec.Layout.compute ~forced:true p in
  Alcotest.(check bool) "clusters identical" true
    (la.Cec.Layout.clusters = lb.Cec.Layout.clusters);
  let n = List.length p.Seqprob.outs1 in
  let members =
    List.concat_map (fun c -> c.Cec.Layout.members) la.Cec.Layout.clusters
  in
  Alcotest.(check (list int)) "clusters partition the output pairs"
    (List.init n Fun.id)
    (List.sort compare members)

let test_warm_recheck_hits_every_cluster () =
  (* a cluster's cache key is the structural signature of its extracted
     sub-problem, so a warm partitioned re-check of the same pair through
     one shared cache answers every cluster from memory *)
  let c1 = Workloads.fifo ~entries:8 ~width:4 ~style:`Sop () in
  let c2 = Workloads.fifo ~entries:8 ~width:4 ~style:`Mux () in
  let p = problem_of c1 c2 in
  let cache = Cec.Cache.create () in
  let run () = Cec.check_problem_with_stats ~partition:true ~jobs:2 ~cache p in
  let cold, s1 = run () in
  Alcotest.(check bool) "fifo splits into >1 cluster" true (s1.Cec.partitions > 1);
  let warm, s2 = run () in
  Alcotest.(check bool) "same verdict" true (cold = warm && warm = Cec.Equivalent);
  Alcotest.(check int) "every cluster a cache hit" s2.Cec.partitions
    s2.Cec.cache_hits;
  Alcotest.(check int) "no SAT work" 0 s2.Cec.sat_calls

let test_large_generators_jobs_agree () =
  (* style pairs of the large-tier generators, partitioned: jobs=1 and
     jobs=4 produce the same verdict as the monolithic path, and the
     intentionally inequivalent mutant is caught at all three
     (first-cex cancellation must not lose it) *)
  let check ~jobs p = Cec.check_problem_with_stats ~jobs ~partition:true p in
  let eq_pairs =
    [
      ( "fifo16x4",
        Workloads.fifo ~entries:16 ~width:4 ~style:`Sop (),
        Workloads.fifo ~entries:16 ~width:4 ~style:`Mux () );
      ( "alu2x4x2",
        Workloads.lane_alu ~lanes:2 ~width:4 ~stages:2 ~style:`Ripple (),
        Workloads.lane_alu ~lanes:2 ~width:4 ~stages:2 ~style:`Select () );
    ]
  in
  List.iter
    (fun (name, a, b) ->
      let p = problem_of a b in
      let v1, s1 = check ~jobs:1 p in
      let v4, s4 = check ~jobs:4 p in
      (match (fst (Cec.check_problem_with_stats p), v1, v4) with
      | Cec.Equivalent, Cec.Equivalent, Cec.Equivalent -> ()
      | _ -> Alcotest.fail (name ^ ": style pair not proven on every path"));
      Alcotest.(check int) (name ^ ": layout independent of jobs")
        s1.Cec.partitions s4.Cec.partitions)
    eq_pairs;
  let p =
    problem_of
      (Workloads.fifo ~entries:16 ~width:4 ~style:`Sop ())
      (Workloads.fifo ~entries:16 ~width:4 ~style:`Mux ~bug:true ())
  in
  List.iter
    (fun (path, v) ->
      match v with
      | Cec.Inequivalent _ -> ()
      | Cec.Equivalent -> Alcotest.failf "%s: mutant accepted as equivalent" path
      | Cec.Undecided r -> Alcotest.failf "%s: mutant undecided: %s" path r)
    [
      ("monolithic", fst (Cec.check_problem_with_stats p));
      ("jobs=1", fst (check ~jobs:1 p));
      ("jobs=4", fst (check ~jobs:4 p));
    ]

(* Under [no_limits] only a sibling's counterexample can stop a
   partition, and a partition stopped that way is abandoned, not
   undecided.  The fifo64x16 pair is big enough that siblings are still
   in flight when the first counterexample lands. *)
let test_cancelled_siblings_not_undecided () =
  let p =
    problem_of
      (Workloads.fifo ~entries:64 ~width:16 ~style:`Sop ())
      (Workloads.fifo ~entries:64 ~width:16 ~style:`Mux ~bug:true ())
  in
  List.iter
    (fun jobs ->
      let v, s =
        Cec.check_problem_with_stats ~jobs ~partition:true ~limits:Cec.no_limits p
      in
      (match v with
      | Cec.Inequivalent _ -> ()
      | _ -> Alcotest.failf "jobs=%d: mutant not refuted" jobs);
      Alcotest.(check int) (Printf.sprintf "jobs=%d: undecided" jobs) 0
        s.Cec.undecided;
      (* no deadline was set, so an abandoned sibling is only cancelled *)
      Alcotest.(check int) (Printf.sprintf "jobs=%d: deadline hits" jobs) 0
        s.Cec.deadline_hits)
    [ 2; 4 ]

let fifo4 ?bug entries style = Workloads.fifo ?bug ~entries ~width:4 ~style ()

(* [cold] and then [warm] check on caches backed by one fresh store
   directory, reopened for each, so the warm check reads what the cold
   one wrote from the log; the cold stats and the warm result *)
let cold_then_warm ~cold ~warm =
  let dir = Test_store.fresh_dir () in
  let run check =
    let store = Store.open_ dir in
    Fun.protect
      ~finally:(fun () -> Store.close store)
      (fun () -> check (Cec.Cache.create ~store ()))
  in
  let _, cold = run cold in
  let warm = run warm in
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Unix.rmdir dir;
  (cold, warm)

(* The FIFO pairs have more inputs than 256 random patterns can cover, so
   the sweep's candidate classes only come apart through SAT
   counterexamples.  Every engine must give the known verdict, every
   counterexample must make the output groups differ, and the sweep on an
   equivalent FIFO pair must simulate counterexample words beyond its
   random rounds ([`Eq_refined]; the ALU pair has few enough inputs for
   the random rounds alone).  Two more paths per pair must agree: a forced
   partitioned check, and a re-check that answers every cluster from a
   reopened persistent store. *)
let test_engines_agree_on_undersampled_pairs () =
  let alu style = Workloads.lane_alu ~lanes:2 ~width:4 ~stages:2 ~style () in
  let pairs =
    [
      ("fifo16x4", fifo4 16 `Sop, fifo4 16 `Mux, `Eq_refined);
      ("fifo32x4", fifo4 32 `Sop, fifo4 32 `Mux, `Eq_refined);
      ( "fifo16x4 resynthesized",
        fifo4 16 `Sop,
        Hier.resynthesize ~seed:3 (fifo4 16 `Mux),
        `Eq_refined );
      ("alu2x4x2", alu `Ripple, alu `Select, `Eq);
      ("fifo16x4 bug", fifo4 16 `Sop, fifo4 ~bug:true 16 `Mux, `Neq);
      ( "fifo16x4 broken output",
        fifo4 16 `Sop,
        Hier.break_output (fifo4 16 `Mux),
        `Neq );
    ]
  in
  List.iter
    (fun (name, c1, c2, expect) ->
      let p = problem_of c1 c2 in
      let judge what v =
        match (v, expect) with
        | Cec.Equivalent, (`Eq | `Eq_refined) -> ()
        | Cec.Inequivalent cex, `Neq ->
            Alcotest.(check bool)
              (what ^ ": counterexample separates the outputs")
              true
              (Seqprob.cex_is_valid p cex)
        | Cec.Undecided r, _ -> Alcotest.failf "%s: undecided: %s" what r
        | _ -> Alcotest.failf "%s: wrong verdict" what
      in
      List.iter
        (fun (ename, engine) ->
          let what = name ^ ", " ^ ename in
          let v, s = Cec.check_problem_with_stats ~engine p in
          judge what v;
          if v = Cec.Equivalent && engine = Cec.Sweep_engine && expect = `Eq_refined
          then
            Alcotest.(check bool)
              (what ^ ": counterexamples refined the classes")
              true (s.Cec.sim_rounds > 4))
        engines;
      judge (name ^ ", partitioned")
        (fst (Cec.check_problem_with_stats ~partition:true ~jobs:2 p));
      (* at jobs 1 clusters run in order, so the warm re-check reaches
         exactly the clusters the cold one decided (up to the first
         counterexample) *)
      let check cache = Cec.check_problem_with_stats ~partition:true ~jobs:1 ~cache p in
      let cold, (v, warm) = cold_then_warm ~cold:check ~warm:check in
      let what = name ^ ", store-warm" in
      judge what v;
      Alcotest.(check int)
        (what ^ ": every decided cluster answered from the log")
        cold.Cec.store_writes warm.Cec.store_hits;
      if expect <> `Neq then
        Alcotest.(check int)
          (what ^ ": every cluster answered")
          warm.Cec.partitions
          (warm.Cec.store_hits + warm.Cec.cache_hits);
      Alcotest.(check int) (what ^ ": SAT calls") 0 warm.Cec.sat_calls)
    pairs

let fifo64x16 =
  lazy
    (problem_of
       (Workloads.fifo ~entries:64 ~width:16 ~style:`Sop ())
       (Workloads.fifo ~entries:64 ~width:16 ~style:`Mux ()))

let test_sweep_sat_calls_on_colliding_classes () =
  (* monolithic fifo32x4, and the large-tier fifo64x16 pair checked in one
     piece: the random rounds leave many false candidates in shared
     classes; refining with each counterexample keeps the SAT calls near
     the number of true merges (the sweep is seeded, so the count repeats
     exactly: 266 on fifo64x16) *)
  List.iter
    (fun (name, p, bound) ->
      let v, s = Cec.check_problem_with_stats ~partition:false (Lazy.force p) in
      Alcotest.(check bool) (name ^ ": equivalent") true (v = Cec.Equivalent);
      Alcotest.(check bool)
        (Printf.sprintf "%s: at most %d SAT calls (made %d)" name bound s.Cec.sat_calls)
        true (s.Cec.sat_calls <= bound))
    [
      ("fifo32x4", lazy (problem_of (fifo4 32 `Sop) (fifo4 32 `Mux)), 150);
      ("fifo64x16", fifo64x16, 1000);
    ]

(* The layout does not depend on jobs, so neither do the store keys: a
   store written by an unforced check of fifo64x16 at one jobs level
   answers every cluster of an unforced re-check at the other. *)
let test_store_keys_independent_of_jobs () =
  let p = Lazy.force fifo64x16 in
  List.iter
    (fun (cold_jobs, warm_jobs) ->
      let check jobs cache = Cec.check_problem_with_stats ~jobs ~cache p in
      let _, (v, warm) = cold_then_warm ~cold:(check cold_jobs) ~warm:(check warm_jobs) in
      let what = Printf.sprintf "jobs %d, then jobs %d" cold_jobs warm_jobs in
      Alcotest.(check bool) (what ^ ": equivalent") true (v = Cec.Equivalent);
      Alcotest.(check bool) (what ^ ": partitioned") true (warm.Cec.partitions > 1);
      Alcotest.(check int)
        (what ^ ": every cluster answered")
        warm.Cec.partitions
        (warm.Cec.store_hits + warm.Cec.cache_hits);
      Alcotest.(check int) (what ^ ": SAT calls") 0 warm.Cec.sat_calls)
    [ (1, 2); (2, 1) ]

let test_checks_leave_problem_graph_alone () =
  (* engines build their miters outside the caller's AIG, so one problem
     can be checked again, or from another domain, unchanged *)
  let p = problem_of (fifo4 16 `Sop) (fifo4 16 `Mux) in
  let nodes = Aig.node_count p.Seqprob.graph in
  List.iter
    (fun (name, engine) ->
      let v, _ = Cec.check_problem_with_stats ~engine p in
      Alcotest.(check bool) (name ^ ": equivalent") true (v = Cec.Equivalent);
      Alcotest.(check int)
        (name ^ ": problem graph unchanged")
        nodes
        (Aig.node_count p.Seqprob.graph))
    engines

let test_sat_time_charged_to_sat () =
  (* regression: every SAT call's time lands in sat_seconds — the sweep
     engine's merge queries used to be charged to sweep_seconds, leaving
     sat_calls > 0 with phase_sat_cpu_seconds = 0 in the bench output.
     The sweep's pair is wider than the exhaustive cutoff, below which
     the sweep decides an equivalent pair without SAT. *)
  List.iter
    (fun (nm, e, n) ->
      let c1 = xor_chain ~name:"sta" n and c2 = xor_tree ~name:"stb" n in
      let v, s = check ~engine:e c1 c2 in
      (match v with
      | Cec.Equivalent -> ()
      | _ -> Alcotest.fail (nm ^ ": parity pair not proven"));
      Alcotest.(check bool) (nm ^ ": makes SAT calls") true (s.Cec.sat_calls > 0);
      Alcotest.(check bool)
        (nm ^ ": SAT time charged to the sat bucket")
        true (s.Cec.sat_seconds > 0.))
    [
      ("sat", Cec.Sat_engine, 12);
      ("sweep", Cec.Sweep_engine, Cec.exhaustive_inputs + 2);
    ]

(* ---- exhaustive simulation (at most Cec.exhaustive_inputs inputs) ---- *)

(* Whether the sweep of a check on the calling domain simulated every
   input pattern: the [exhaustive] attribute of its cec.engine.sweep
   span. *)
let sweep_exhaustive events =
  match
    List.find_map
      (function
        | Obs.End { name = "cec.engine.sweep"; attrs; _ } ->
            List.assoc_opt "exhaustive" attrs
        | _ -> None)
      events
  with
  | Some (Obs.Bool b) -> b
  | _ -> Alcotest.fail "no cec.engine.sweep span with an exhaustive attribute"

let k = Cec.exhaustive_inputs

(* On random pairs of 1..K inputs, equivalent and not, the exhaustive
   sweep gives the SAT and BDD engines' verdict; it proves every
   equivalent pair without a SAT call, and every counterexample replays
   on the problem.  Three of the pairs differ on one pattern only: the
   first (every input false), the last (every input true) and a random
   one. *)
let test_exhaustive_sweep_agrees () =
  let st = Random.State.make [| 0xE4A5 |] in
  for n = 1 to k do
    let c1 =
      Gen.comb st ~name:(Printf.sprintf "ex%d" n) ~inputs:n ~gates:(10 + (4 * n))
        ~outputs:3
    in
    let rewritten = Gen.demorganize c1 in
    let flipped bits = flip_on_pattern rewritten bits in
    List.iter
      (fun (what, c2) ->
        let what = Printf.sprintf "%d inputs, %s" n what in
        let p = Cec.of_circuits c1 c2 in
        Alcotest.(check int) (what ^ ": problem inputs") n (Aig.num_inputs p.graph);
        let (v, s), events = Obs.capture (fun () -> Cec.check_problem_with_stats p) in
        Alcotest.(check bool) (what ^ ": exhaustive") true (sweep_exhaustive events);
        let others =
          List.map
            (fun engine -> fst (Cec.check_problem_with_stats ~engine p))
            [ Cec.Sat_engine; Cec.Bdd_engine ]
        in
        match v with
        | Cec.Equivalent ->
            Alcotest.(check int) (what ^ ": SAT calls") 0 s.Cec.sat_calls;
            if List.exists (fun o -> o <> Cec.Equivalent) others then
              Alcotest.failf "%s: sweep says equivalent, SAT or BDD does not" what
        | Cec.Inequivalent cex ->
            Alcotest.(check bool) (what ^ ": cex replays") true (Seqprob.cex_is_valid p cex);
            if List.exists (function Cec.Inequivalent _ -> false | _ -> true) others
            then Alcotest.failf "%s: sweep says inequivalent, SAT or BDD does not" what
        | Cec.Undecided r -> Alcotest.failf "%s: undecided: %s" what r)
      [
        ("rewritten", rewritten);
        ("one output negated", Gen.negate_one_output rewritten);
        ("flipped on the first pattern", flipped (Array.make n false));
        ("flipped on the last pattern", flipped (Array.make n true));
        ("flipped on a random pattern", flipped (Array.init n (fun _ -> Random.State.bool st)));
        ( "unrelated",
          Gen.comb st ~name:(Printf.sprintf "ex%db" n) ~inputs:n ~gates:(10 + (4 * n))
            ~outputs:3 );
      ]
  done

(* A parity pair at K inputs is simulated on its 2^K patterns (2^(K-6)
   words) and proven without SAT; at K+1 inputs the sweep takes the
   random path, whose merges need SAT. *)
let test_exhaustive_boundary () =
  List.iter
    (fun (n, exhaustive) ->
      let (v, s), events =
        Obs.capture (fun () -> check (xor_chain ~name:"bda" n) (xor_tree ~name:"bdb" n))
      in
      let what = Printf.sprintf "%d inputs" n in
      Alcotest.(check bool) (what ^ ": equivalent") true (v = Cec.Equivalent);
      Alcotest.(check bool) (what ^ ": exhaustive") exhaustive (sweep_exhaustive events);
      let counted =
        List.exists (function Obs.Count { name = "cec.exhaustive"; _ } -> true | _ -> false) events
      in
      Alcotest.(check bool) (what ^ ": cec.exhaustive counted") exhaustive counted;
      if exhaustive then begin
        Alcotest.(check int) (what ^ ": SAT calls") 0 s.Cec.sat_calls;
        Alcotest.(check int) (what ^ ": one word per 64 patterns") (1 lsl (n - 6))
          s.Cec.sim_rounds
      end
      else Alcotest.(check bool) (what ^ ": SAT calls") true (s.Cec.sat_calls > 0))
    [ (k, true); (k + 1, false) ]

(* lane_alu 8x8x4 has 8 inputs, but its clusters clear the cost model's
   threshold and floor: the sweep checks it in one piece at every jobs
   level all the same (4 words of 4.7k nodes), and only a forced layout
   partitions it.  The SAT engine, which does not enumerate, still
   partitions it.  lane_alu 32x12x4 would enumerate 64 words of 27k
   nodes, past the 2^20 word-nodes that one piece is worth: the cost
   model partitions it, and each cluster is enumerated without SAT. *)
let test_small_support_stays_monolithic () =
  let alu ~lanes ~width style = Workloads.lane_alu ~lanes ~width ~stages:4 ~style () in
  let p = problem_of (alu ~lanes:8 ~width:8 `Ripple) (alu ~lanes:8 ~width:8 `Select) in
  Alcotest.(check bool) "at most K inputs" true (Aig.num_inputs p.graph <= k);
  let layout = Cec.Layout.compute p in
  Alcotest.(check bool) "the cost model partitions" false layout.monolithic;
  let clusters = layout.clusters in
  List.iter
    (fun jobs ->
      let v, s = Cec.check_problem_with_stats ~jobs p in
      let what = Printf.sprintf "jobs=%d" jobs in
      Alcotest.(check bool) (what ^ ": equivalent") true (v = Cec.Equivalent);
      Alcotest.(check int) (what ^ ": partitions") 1 s.Cec.partitions;
      Alcotest.(check int) (what ^ ": SAT calls") 0 s.Cec.sat_calls)
    job_counts;
  let v, s = Cec.check_problem_with_stats ~jobs:2 ~partition:true p in
  Alcotest.(check bool) "forced: equivalent" true (v = Cec.Equivalent);
  Alcotest.(check bool) "forced: partitions" true (s.Cec.partitions > 1);
  let v, s = Cec.check_problem_with_stats ~engine:Cec.Sat_engine ~jobs:2 p in
  Alcotest.(check bool) "SAT engine: equivalent" true (v = Cec.Equivalent);
  Alcotest.(check int) "SAT engine: the cost model's partitions"
    (List.length clusters) s.Cec.partitions;
  let big = problem_of (alu ~lanes:32 ~width:12 `Ripple) (alu ~lanes:32 ~width:12 `Select) in
  Alcotest.(check int) "32x12x4: K inputs" k (Aig.num_inputs big.graph);
  Alcotest.(check bool) "32x12x4: past 2^20 word-nodes" true
    ((1 lsl (k - 6)) * Aig.node_count big.graph > 1 lsl 20);
  let v, s = Cec.check_problem_with_stats ~jobs:2 big in
  Alcotest.(check bool) "32x12x4: equivalent" true (v = Cec.Equivalent);
  Alcotest.(check int) "32x12x4: the cost model's partitions"
    (List.length (Cec.Layout.compute big).clusters) s.Cec.partitions;
  Alcotest.(check int) "32x12x4: SAT calls" 0 s.Cec.sat_calls

(* an expired deadline stops the enumeration before its first word: the
   classes are not exact, nothing merges, and the final miter's SAT call
   gives up, so the sweep answers Undecided *)
let test_exhaustive_deadline () =
  let limits = { Cec.no_limits with Cec.seconds = Some 0.0 } in
  let (v, s), events =
    Obs.capture (fun () ->
        check ~limits (xor_chain ~name:"dea" k) (xor_tree ~name:"deb" k))
  in
  Alcotest.(check bool) "exhaustive" true (sweep_exhaustive events);
  (match v with
  | Cec.Undecided _ -> ()
  | Cec.Equivalent | Cec.Inequivalent _ -> Alcotest.fail "expired deadline still answered");
  Alcotest.(check bool) "deadline hit recorded" true (s.Cec.deadline_hits > 0);
  Alcotest.(check int) "no word simulated" 0 s.Cec.sim_rounds

let suite =
  [
    Alcotest.test_case "equivalent rewrites proven" `Quick test_equivalent_rewrites;
    Alcotest.test_case "seeded bugs found + cex valid" `Quick test_seeded_bugs_found;
    Alcotest.test_case "engines agree" `Quick test_engines_agree;
    Alcotest.test_case "matches brute force" `Quick test_vs_brute_force;
    Alcotest.test_case "constants / tautologies" `Quick test_constants;
    Alcotest.test_case "rejects latches" `Quick test_rejects_latches;
    Alcotest.test_case "output count mismatch" `Quick test_output_count_mismatch;
    Alcotest.test_case "union input space" `Quick test_disjoint_inputs_free;
    Alcotest.test_case "sweep collapses identical logic" `Quick test_sweep_on_identical_structures;
    Alcotest.test_case "parallel agrees: equivalent pairs" `Quick test_parallel_agrees_on_equivalent;
    Alcotest.test_case "parallel agrees: seeded bugs" `Quick test_parallel_agrees_on_bugs;
    Alcotest.test_case "parallel matches sequential verdict" `Quick
      test_parallel_matches_sequential_verdict;
    Alcotest.test_case "cache: hits return identical verdicts" `Quick
      test_cache_hits_identical_verdicts;
    Alcotest.test_case "cache: isomorphic cones transfer" `Quick
      test_cache_shares_isomorphic_cones;
    Alcotest.test_case "cache: capacity bound evicts LRU" `Quick
      test_cache_eviction_bound;
    Alcotest.test_case "parallel stress" `Quick test_parallel_stress;
    Alcotest.test_case "budget gives Undecided" `Quick test_budget_gives_undecided;
    Alcotest.test_case "BDD node ceiling gives Undecided" `Quick
      test_bdd_ceiling_gives_undecided;
    Alcotest.test_case "escalation ladder proves" `Quick test_escalation_ladder_proves;
    Alcotest.test_case "deadline gives Undecided" `Quick test_deadline_gives_undecided;
    Alcotest.test_case "budgets leave easy checks alone" `Quick
      test_budgets_leave_easy_checks_alone;
    Alcotest.test_case "cex wins over Undecided" `Quick test_cex_wins_over_undecided;
    Alcotest.test_case "jobs agree on Undecided" `Quick test_jobs_agree_on_undecided;
    Alcotest.test_case "cex replays across time frames" `Quick
      test_cex_replays_across_time_frames;
    Alcotest.test_case "stats_pp prints every field" `Quick
      test_stats_pp_prints_every_field;
    Alcotest.test_case "elapsed_seconds wall clock" `Quick test_elapsed_seconds;
    Alcotest.test_case "layout: estimate monotone" `Quick test_estimate_monotone;
    Alcotest.test_case "layout: small problems go monolithic" `Quick
      test_small_problem_goes_monolithic;
    Alcotest.test_case "layout: below threshold spawns no pool" `Quick
      test_below_threshold_no_pool;
    Alcotest.test_case "layout: monolithic checks in their own cost decade"
      `Quick test_monolithic_cone_cost_decade;
    Alcotest.test_case "layout: deterministic, partitions outputs" `Quick
      test_layout_deterministic_and_partitioning;
    Alcotest.test_case "layout: signature survives extraction" `Quick
      test_warm_recheck_hits_every_cluster;
    Alcotest.test_case "large generators: jobs agree, mutant caught" `Quick
      test_large_generators_jobs_agree;
    Alcotest.test_case "sat time charged to sat bucket" `Quick
      test_sat_time_charged_to_sat;
    Alcotest.test_case "cancelled siblings are not undecided" `Quick
      test_cancelled_siblings_not_undecided;
    Alcotest.test_case "engines agree on under-sampled pairs" `Quick
      test_engines_agree_on_undersampled_pairs;
    Alcotest.test_case "sweep: SAT calls on colliding classes" `Quick
      test_sweep_sat_calls_on_colliding_classes;
    Alcotest.test_case "checks leave the problem graph unchanged" `Quick
      test_checks_leave_problem_graph_alone;
    Alcotest.test_case "exhaustive sweep agrees with SAT and BDD" `Quick
      test_exhaustive_sweep_agrees;
    Alcotest.test_case "exhaustive sweep: K inputs, not K+1" `Quick
      test_exhaustive_boundary;
    Alcotest.test_case "small support stays monolithic" `Quick
      test_small_support_stays_monolithic;
    Alcotest.test_case "exhaustive sweep: deadline gives Undecided" `Quick
      test_exhaustive_deadline;
    Alcotest.test_case "store keys independent of jobs" `Quick
      test_store_keys_independent_of_jobs;
  ]
