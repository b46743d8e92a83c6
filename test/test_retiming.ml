(* Retiming: graph extraction, FEAS min-period, min-area LP vs brute force,
   application legality, sequential equivalence of the result. *)

(* Each test draws from a state of its own, seeded by a constant of its
   own, so its inputs do not depend on which tests ran before it. *)
let rng seed = Random.State.make [| 0x4E7; seed |]

let flush_compare st c1 c2 ~cycles ~skip =
  let ni = List.length (Circuit.inputs c1) in
  let seq = List.init cycles (fun _ -> Array.init ni (fun _ -> Random.State.bool st)) in
  let t1 = Sim.run c1 ~init:(Array.make (Circuit.latch_count c1) false) ~inputs:seq in
  let t2 = Sim.run c2 ~init:(Array.make (Circuit.latch_count c2) false) ~inputs:seq in
  List.iteri
    (fun t o1 ->
      if t >= skip && o1 <> List.nth t2 t then Alcotest.fail "retimed behaviour differs")
    t1

let random_acyclic st i =
  Gen.acyclic st
    ~name:(Printf.sprintf "r%d" i)
    ~inputs:(2 + Random.State.int st 4)
    ~gates:(15 + Random.State.int st 60)
    ~latches:(2 + Random.State.int st 8)
    ~outputs:(1 + Random.State.int st 3)
    ~enables:false

let random_feedback st i =
  Gen.feedback st
    ~name:(Printf.sprintf "rf%d" i)
    ~inputs:(2 + Random.State.int st 3)
    ~gates:(20 + Random.State.int st 50)
    ~latches:(2 + Random.State.int st 6)
    ~outputs:(1 + Random.State.int st 3)

let test_rgraph_weights () =
  (* two latches in series between gates = edge weight 2 *)
  let c = Circuit.create "w2" in
  let a = Circuit.add_input c "a" in
  let g1 = Circuit.add_gate c Not [ a ] in
  let l1 = Circuit.add_latch c ~data:g1 () in
  let l2 = Circuit.add_latch c ~data:l1 () in
  let g2 = Circuit.add_gate c Not [ l2 ] in
  Circuit.mark_output c g2;
  Circuit.check c;
  let g = Rgraph.build c in
  let found = ref false in
  Vgraph.Digraph.iter_edges
    (fun _ e -> if e.weight = 2 then found := true)
    g.Rgraph.graph;
  Alcotest.(check bool) "weight-2 edge" true !found

let test_rgraph_rejects_enabled () =
  let c = Circuit.create "en" in
  let a = Circuit.add_input c "a" in
  let e = Circuit.add_input c "e" in
  let q = Circuit.add_latch c ~enable:e ~data:a () in
  Circuit.mark_output c (Circuit.add_gate c Not [ q ]);
  Circuit.check c;
  try
    ignore (Rgraph.build c);
    Alcotest.fail "enabled latch accepted"
  with Invalid_argument _ -> ()

let test_latch_ring_auto_exposed () =
  let st = rng 1 in
  (* a gate-free latch ring must survive via auto-exposure *)
  let c = Circuit.create "ring" in
  let q0 = Circuit.declare c ~name:"q0" () in
  let q1 = Circuit.add_latch c ~data:q0 () in
  Circuit.set_latch c q0 ~data:q1 ();
  let a = Circuit.add_input c "a" in
  Circuit.mark_output c (Circuit.add_gate c And [ a; q0 ]);
  Circuit.check c;
  let rt, _ = Retime.min_period c in
  Circuit.check rt;
  flush_compare st c rt ~cycles:20 ~skip:10

let test_min_period_legal_and_better () =
  let st = rng 2 in
  for i = 1 to 40 do
    let c = random_acyclic st i in
    let rt, rep = Retime.min_period c in
    Alcotest.(check bool) "period not worse" true
      (rep.Retime.period_after <= rep.Retime.period_before);
    Alcotest.(check int) "delay agrees with report" rep.Retime.period_after
      (Circuit.delay rt);
    flush_compare st c rt ~cycles:40 ~skip:20
  done

let test_min_period_feedback () =
  let st = rng 3 in
  (* Feedback state need not flush, so behaviour is compared under the
     paper's exact 3-valued semantics (all power-up states), past the
     initialization transient that retiming may lengthen. *)
  for i = 1 to 12 do
    let c =
      Gen.feedback st
        ~name:(Printf.sprintf "rf%d" i)
        ~inputs:2 ~gates:(15 + Random.State.int st 25) ~latches:(2 + Random.State.int st 3)
        ~outputs:2
    in
    let rt, rep = Retime.min_period c in
    Alcotest.(check bool) "period not worse" true
      (rep.Retime.period_after <= rep.Retime.period_before);
    if Circuit.latch_count rt <= 10 then begin
      let cycles = 12 in
      let skip = Circuit.latch_count c + Circuit.latch_count rt + 2 in
      let seq = Gen.random_inputs st c ~cycles in
      let t1 = Sim.run_exact ~max_latches:10 c ~inputs:seq in
      let t2 = Sim.run_exact ~max_latches:10 rt ~inputs:seq in
      List.iteri
        (fun t o1 ->
          let o2 = List.nth t2 t in
          if t >= skip then
            Array.iteri
              (fun j v1 ->
                (* a defined original output must stay defined and equal *)
                if not (Sim.tv_equal v1 Sim.X) && not (Sim.tv_equal v1 o2.(j)) then
                  Alcotest.fail "retimed exact-3v behaviour differs")
              o1)
        t1
    end
  done

(* The latches a retiming keeps in the circuit. *)
let kept g ~r = Circuit.latch_count (Rgraph.apply g ~r)

let test_min_area_vs_bruteforce () =
  let st = rng 4 in
  (* exhaustive check of the LP on graphs of 5-8 vertices: the least kept
     count over the legal labelings in [-3..3]^V with both hosts at 0, with
     no period, at the unretimed period and at the minimum period *)
  for i = 1 to 300 do
    let c =
      Gen.acyclic st
        ~name:(Printf.sprintf "ma%d" i)
        ~inputs:2 ~gates:(6 + Random.State.int st 10) ~latches:(2 + Random.State.int st 3)
        ~outputs:2 ~enables:false
    in
    let g = Rgraph.build c in
    let n = Rgraph.vertex_count g in
    if n >= 5 && n <= 8 then begin
      let periods =
        [ None; Some (Feas.period_of g ~r:(Array.make n 0)); Some (fst (Feas.min_period g)) ]
      in
      let within period p = Option.fold ~none:true ~some:(( <= ) p) period in
      let best = Array.make (List.length periods) max_int in
      let labels = Array.make n 0 in
      let rec go v =
        if v = n then begin
          if Rgraph.is_legal g ~r:labels then begin
            let k = kept g ~r:labels and p = Feas.period_of g ~r:labels in
            List.iteri
              (fun j period -> if within period p then best.(j) <- min best.(j) k)
              periods
          end
        end
        else if v <= 1 then go (v + 1) (* both hosts pinned *)
        else
          for x = -3 to 3 do
            labels.(v) <- x;
            go (v + 1)
          done
      in
      go 0;
      List.iteri
        (fun j period ->
          match Minarea.solve ?period g with
          | Some r ->
              Alcotest.(check bool) "legal" true (Rgraph.is_legal g ~r);
              Alcotest.(check bool) "meets the period" true
                (within period (Feas.period_of g ~r));
              Alcotest.(check int) "LP optimum = brute force" best.(j) (kept g ~r)
          | None -> Alcotest.fail "min-area LP rejects a feasible period")
        periods
    end
  done

let test_constrained_min_area () =
  let st = rng 5 in
  for i = 1 to 25 do
    let c = random_acyclic st (100 + i) in
    let period0 = Circuit.delay c in
    let rt, rep = Result.get_ok (Retime.constrained_min_area ~period:period0 c) in
    Alcotest.(check bool) "period respected" true (rep.Retime.period_after <= period0);
    flush_compare st c rt ~cycles:40 ~skip:20;
    (* unconstrained can only be <= constrained in latches *)
    let _, rep_u = Retime.min_area c in
    Alcotest.(check bool) "unconstrained <= constrained" true
      (rep_u.Retime.latches_after <= rep.Retime.latches_after)
  done

let test_infeasible_period () =
  let c = Circuit.create "inf" in
  let a = Circuit.add_input c "a" in
  (* combinational path of depth 4 with no latch: period < 4 impossible *)
  let g = ref a in
  for _ = 1 to 4 do
    g := Circuit.add_gate c Not [ !g ]
  done;
  Circuit.mark_output c !g;
  Circuit.check c;
  match Retime.constrained_min_area ~period:2 c with
  | Error Retime.Infeasible_period -> ()
  | Ok _ -> Alcotest.fail "infeasible period accepted"

let test_exposed_latches_stay () =
  let st = rng 6 in
  for i = 1 to 15 do
    let c = random_feedback st (200 + i) in
    let plan = Feedback.plan_structural c in
    let exposed_names = List.map (Circuit.signal_name c) plan.Feedback.exposed in
    let exposed s = List.mem (Circuit.signal_name c s) exposed_names in
    let rt, _ = Retime.min_period ~exposed c in
    (* every exposed latch survives with its name and stays a latch *)
    List.iter
      (fun n ->
        match Circuit.find_signal rt n with
        | None -> Alcotest.fail (Printf.sprintf "exposed latch %s vanished" n)
        | Some s -> (
            match Circuit.driver rt s with
            | Latch _ -> ()
            | Undriven | Input | Gate _ ->
                Alcotest.fail (Printf.sprintf "exposed %s no longer a latch" n)))
      exposed_names;
    flush_compare st c rt ~cycles:40 ~skip:20
  done

let test_pipeline_balances () =
  let st = rng 7 in
  let c = Workloads.pipeline ~name:"pb" ~width:6 ~stages:4 ~imbalance:5 ~seed:3 in
  let rt, rep = Retime.min_period c in
  Alcotest.(check bool) "pipeline delay improves" true
    (rep.Retime.period_after < rep.Retime.period_before);
  flush_compare st c rt ~cycles:40 ~skip:20

(* ---- shipped engines vs the test oracles ---- *)

module Naive = Retiming_oracle.Naive_feas

let random_rgraph st i =
  let c = if i mod 2 = 0 then random_acyclic st i else random_feedback st i in
  Rgraph.build c

let labels = Alcotest.(list int)

(* [Feas.min_period]'s answer [(p, r)] against the exact period of the
   full constraint system and, on the vertices the host reaches (the
   others have no least label), the least labels at it. *)
let check_min_period ?wd name g (p, r) =
  Alcotest.(check int) (name ^ ": exact period") (Retiming_oracle.min_period ?wd g) p;
  let lb, _ = Option.get (Retiming_oracle.bounds ?wd g ~period:p) in
  let reached a = List.filteri (fun v _ -> lb.(v) <> min_int) (Array.to_list a) in
  Alcotest.check labels (name ^ ": least labels") (reached lb) (reached r);
  Alcotest.(check bool) (name ^ ": legal") true (Rgraph.is_legal g ~r);
  Alcotest.(check bool) (name ^ ": meets period") true (Feas.period_of g ~r <= p)

let test_feas_fast_vs_naive () =
  let st = rng 8 in
  (* the warm-started search must reach the exact period and the least
     labeling at it, which the cold all-zero start of the naive engine
     can miss *)
  for i = 1 to 30 do
    let g = random_rgraph st (300 + i) in
    check_min_period "random" g (Feas.min_period g)
  done

let test_feas_arrival_differential () =
  let st = rng 10 in
  for i = 1 to 20 do
    let g = random_rgraph st (600 + i) in
    let _, r = Naive.min_period g in
    Alcotest.check labels "arrival agrees"
      (Array.to_list (Naive.arrival g ~r))
      (Array.to_list (Feas.arrival g ~r));
    Alcotest.(check int) "period_of agrees" (Naive.period_of g ~r)
      (Feas.period_of g ~r)
  done

(* The retiming graphs the flow builds for each Table-1 circuit: B's
   synthesis with its exposed latches pinned (the C and E solves) and A's
   (F and G), each with D's delay, the period target of E and G.  The
   oracle comparisons take the small suite's graphs up to 1,000
   vertices. *)
let flow_graphs suite =
  List.concat_map
    (fun (name, a) ->
      let exposed =
        List.map (Circuit.signal_name a) (Feedback.plan_structural a).Feedback.exposed
      in
      let b = Circuit.copy ~name:(name ^ "_B") a in
      List.iter
        (fun n ->
          let s = Option.get (Circuit.find_signal b n) in
          if not (Circuit.is_output b s) then Circuit.mark_output b s)
        exposed;
      let graph c exposed =
        let sy = Synth_script.delay_script c in
        Rgraph.build ~exposed:(Result.get_ok (Verify.exposed_pred sy exposed)) sy
      in
      let target = Circuit.delay (Synth_script.delay_script a) in
      [
        (name ^ " B", graph b exposed, target);
        (name ^ " A", graph (Circuit.copy ~name:(name ^ "_F") a) [], target);
      ])
    suite

let table1_graphs = lazy (flow_graphs (Workloads.table1_suite_small ()))

let up_to_1000 (_, g, _) = Rgraph.vertex_count g <= 1000

let check_minarea ?wd name g ~period =
  match (Minarea.solve ~period g, Retiming_oracle.minarea ?wd g ~period) with
  | Some rf, Some rr ->
      Alcotest.(check bool) (name ^ ": fast legal") true (Rgraph.is_legal g ~r:rf);
      Alcotest.(check bool) (name ^ ": fast meets period") true
        (Feas.period_of g ~r:rf <= period);
      Alcotest.(check bool) (name ^ ": reference meets period") true
        (Feas.period_of g ~r:rr <= period);
      Alcotest.(check int) (name ^ ": same kept latches") (kept g ~r:rr) (kept g ~r:rf);
      true
  | None, None -> false
  | _ -> Alcotest.fail (name ^ ": min-area feasibility verdicts differ")

let test_minarea_fast_vs_reference () =
  let st = rng 11 in
  (* both engines must keep the same optimal number of latches (labelings
     may differ between equal-cost optima) and agree on infeasibility: on
     random graphs around the minimum period, and on Table 1's C/F solves
     (the minimum period) and E/G solves (D's delay, when feasible) *)
  for i = 1 to 15 do
    let g = random_rgraph st (700 + i) in
    let p_min, _ = Naive.min_period g in
    List.iter
      (fun period ->
        if not (check_minarea "random" g ~period) then
          Alcotest.(check bool) "below minimum period" true (period < p_min))
      [ p_min - 1; p_min; p_min + 2 ]
  done;
  List.iter
    (fun (name, g, target) ->
      let wd = Retiming_oracle.wd g in
      let p_min, _ = Feas.min_period g in
      Alcotest.(check bool) (name ^ ": minimum period feasible") true
        (check_minarea ~wd name g ~period:p_min);
      ignore (check_minarea ~wd name g ~period:target))
    (List.filter up_to_1000 (Lazy.force table1_graphs))

(* Feas.bounds against Bellman–Ford over the full system (every violating
   W/D pair plus the edge constraints): the same verdict, and on feasible
   periods the same least and greatest label for every vertex.  Returns
   how many vertices have no lower bound and how many a negative one. *)
let check_bounds ?wd name g ~period =
  match (Feas.bounds g ~period, Retiming_oracle.bounds ?wd g ~period) with
  | None, None -> (0, 0)
  | Some { Feas.lb; ub }, Some (olb, oub) ->
      let lift x =
        if x = min_int then -Feas.unbounded else if x = max_int then Feas.unbounded else x
      in
      let list a = Array.to_list (Array.map lift a) in
      Alcotest.check labels (name ^ ": least labels") (list olb) (Array.to_list lb);
      Alcotest.check labels (name ^ ": greatest labels") (list oub) (Array.to_list ub);
      let count p = Array.fold_left (fun k x -> if p x then k + 1 else k) 0 lb in
      (count (fun x -> x = -Feas.unbounded), count (fun x -> x < 0 && x > -Feas.unbounded))
  | Some _, None | None, Some _ -> Alcotest.fail (name ^ ": feasibility verdicts differ")

let test_feas_bounds_vs_oracle () =
  let st = rng 12 in
  (* how many vertices of [g] have no lower bound, summed over the periods *)
  let sweep name g =
    let wd = Retiming_oracle.wd g in
    let p_min, _ = Feas.min_period g in
    List.fold_left
      (fun k period ->
        k + fst (check_bounds ~wd (Printf.sprintf "%s @%d" name period) g ~period))
      0
      [ p_min - 1; p_min; p_min + 2 ]
  in
  for i = 1 to 20 do
    ignore (sweep "random" (random_rgraph st (800 + i)))
  done;
  (* the F graphs of s1196, s641 and (at 1,008 vertices) prolog have 2-3
     vertices the host cannot reach, which must come out unbounded below *)
  let unreachable = [ "s1196 A"; "s641 A"; "prolog A" ] in
  List.iter
    (fun (name, g, _) ->
      let k = sweep name g in
      if List.mem name unreachable then
        Alcotest.(check bool) (name ^ ": unbounded below") true (k > 0))
    (List.filter
       (fun ((name, _, _) as t) -> up_to_1000 t || List.mem name unreachable)
       (Lazy.force table1_graphs));
  (* on every Table-1 graph, Feas.min_period is the least period the
     bounds accept *)
  List.iter
    (fun (name, g, _) ->
      let p, _ = Feas.min_period g in
      Alcotest.(check bool) (name ^ ": bounds accept the min period") true
        (Option.is_some (Feas.bounds g ~period:p));
      Alcotest.(check bool) (name ^ ": bounds reject one less") true
        (Feas.bounds g ~period:(p - 1) = None))
    (Lazy.force table1_graphs);
  (* deep_w4x64 meets period 2 only with negative labels, which FEAS from
     the all-zero labeling cannot reach but the search from the least
     legal labeling does *)
  let deep = Rgraph.build (List.assoc "deep_w4x64" (Workloads.retime_suite ())) in
  Alcotest.(check int) "deep_w4x64: Feas.min_period" 2 (fst (Feas.min_period deep));
  let _, negative = check_bounds "deep_w4x64 @2" deep ~period:2 in
  Alcotest.(check bool) "deep_w4x64: negative lower bounds at period 2" true (negative > 0)

(* ---- latch classes (Fig. 16) ---- *)

(* The retiming tier's deep datapaths up to 800 latches: up to 1,000
   vertices the fast pipeline reaches the exact period, the least labels
   at it and the reference's latch count; above that only the fast one
   runs, and its retiming must be legal and meet the period. *)
let test_retime_suite_fast_vs_reference () =
  Par.Pool.with_pool ~jobs:2 @@ fun pool ->
  List.iter
    (fun (name, c) ->
      let g = Rgraph.build c in
      let ((period, _) as found) = Feas.min_period g in
      let r =
        match Minarea.solve ~period ~pool g with
        | Some r -> r
        | None -> Alcotest.fail (name ^ ": min period infeasible")
      in
      Alcotest.(check bool) (name ^ ": legal") true (Rgraph.is_legal g ~r);
      Alcotest.(check bool) (name ^ ": meets period") true
        (Feas.period_of g ~r <= period);
      if Rgraph.vertex_count g <= 1000 then begin
        let wd = Retiming_oracle.wd g in
        check_min_period ~wd name g found;
        match Retiming_oracle.minarea ~wd g ~period with
        | Some rr ->
            Alcotest.(check int) (name ^ ": same kept latches") (kept g ~r:rr) (kept g ~r)
        | None -> Alcotest.fail (name ^ ": reference infeasible")
      end)
    (List.filter
       (fun (_, c) -> Circuit.latch_count c <= 800)
       (Workloads.retime_suite ()))

(* On both graphs of all 23 Table-1 circuits, the heaviest retimed edge
   of every fanout group plus the exposed latches is the number of
   latches Rgraph.apply keeps: at the least min-period labels, at r = 0,
   and up to 3,000 vertices at the unconstrained min-area labels (on a
   2-vCPU host the unbounded flow takes 6 s on s15850's graphs and 42 s
   on s38417's). *)
let test_groups_count_kept_latches () =
  let small = Workloads.table1_suite_small () in
  let rest =
    List.filter (fun (name, _) -> not (List.mem_assoc name small)) (Workloads.table1_suite ())
  in
  List.iter
    (fun (name, g, _) ->
      let heaviest r =
        Array.fold_left
          (fun total es ->
            total
            + Array.fold_left
                (fun w e ->
                  let e = Vgraph.Digraph.edge g.Rgraph.graph e in
                  max w (e.weight + r.(e.dst) - r.(e.src)))
                0 es)
          (Array.length g.exposed_origin) g.groups
      in
      List.iter
        (fun (labels, r) ->
          Alcotest.(check int) (name ^ ": " ^ labels) (kept g ~r) (heaviest r))
        (("min-period labels", snd (Feas.min_period g))
        :: ("r = 0", Array.make (Rgraph.vertex_count g) 0)
        ::
        (if Rgraph.vertex_count g <= 3000 then
           [ ("unconstrained labels", Option.get (Minarea.solve g)) ]
         else [])))
    (Lazy.force table1_graphs @ flow_graphs rest)

let ran span events =
  List.exists (function Obs.Begin { name; _ } -> name = span | _ -> false) events

(* One exact mode at every size: on a 4,282-vertex deep datapath and on
   s15850's 8,555-vertex F graph the W/D constraints are built, the
   minimum period is met, and the period below it is rejected before the
   flow runs.  A graph whose packed W/D Dijkstra keys overflow an int
   (one edge weight just past the bound) is rejected outright. *)
let test_minarea_exact_every_size () =
  let deep =
    Rgraph.build (Workloads.deep_datapath ~name:"deep" ~width:8 ~stages:330 ~seed:1)
  in
  let s15850 = Rgraph.build (Synth_script.delay_script (Workloads.by_name "s15850")) in
  List.iter
    (fun (name, g, vertices, period) ->
      Alcotest.(check int) (name ^ ": vertices") vertices (Rgraph.vertex_count g);
      Alcotest.(check int) (name ^ ": minimum period") period (fst (Feas.min_period g));
      let r, events = Obs.capture (fun () -> Minarea.solve ~period g) in
      Alcotest.(check bool) (name ^ ": W/D constraints built") true
        (ran "minarea.period_constraints" events);
      (match r with
      | Some r ->
          Alcotest.(check bool) (name ^ ": legal") true (Rgraph.is_legal g ~r);
          Alcotest.(check bool) (name ^ ": meets the period") true
            (Feas.period_of g ~r <= period)
      | None -> Alcotest.fail (name ^ ": minimum period rejected"));
      let below, events = Obs.capture (fun () -> Minarea.solve ~period:(period - 1) g) in
      Alcotest.(check bool) (name ^ ": period below rejected") true (below = None);
      Alcotest.(check bool) (name ^ ": rejected before the flow") false
        (ran "flow.solve" events))
    [ ("deep_w8x330", deep, 4282, 2); ("s15850 F", s15850, 8555, 20) ];
  let heavy =
    let g =
      Rgraph.build
        (Workloads.pipeline ~name:"heavy" ~width:6 ~stages:4 ~imbalance:5 ~seed:3)
    in
    let n = Rgraph.vertex_count g in
    let bits = ref 1 in
    while 1 lsl !bits < n do incr bits done;
    let db = 1 + Array.fold_left ( + ) 0 g.delay in
    let graph = Vgraph.Digraph.create () in
    Vgraph.Digraph.add_nodes graph n;
    Vgraph.Digraph.iter_edges
      (fun i e ->
        let weight = if i = 0 then max_int asr (!bits + 2) / db else e.weight in
        ignore (Vgraph.Digraph.add_edge graph ~weight e.src e.dst))
      g.graph;
    { g with graph }
  in
  let period, _ = Feas.min_period heavy in
  Alcotest.check_raises "heavy edge: keys overflow"
    (Invalid_argument "Minarea.solve: the W/D path keys overflow an int") (fun () ->
      ignore (Minarea.solve ~period heavy))

let test_classes_grouping () =
  let c = Circuit.create "cls" in
  let d = Circuit.add_input c "d" in
  let e1 = Circuit.add_input c "e1" in
  let _q1 = Circuit.add_latch c ~enable:e1 ~data:d () in
  let _q2 = Circuit.add_latch c ~enable:e1 ~data:d () in
  let _q3 = Circuit.add_latch c ~data:d () in
  Alcotest.(check int) "two classes" 2 (List.length (Classes.classes c))

let test_forward_move_legality () =
  let c = Circuit.create "fwd" in
  let d1 = Circuit.add_input c "d1" in
  let d2 = Circuit.add_input c "d2" in
  let e = Circuit.add_input c "e" in
  let q1 = Circuit.add_latch c ~enable:e ~data:d1 () in
  let q2 = Circuit.add_latch c ~enable:e ~data:d2 () in
  let g = Circuit.add_gate c And [ q1; q2 ] in
  Circuit.mark_output c g;
  Circuit.check c;
  Alcotest.(check bool) "same class movable" true (Classes.can_forward_move c ~gate:g);
  (* different classes: not movable *)
  let c2 = Circuit.create "fwd2" in
  let d1 = Circuit.add_input c2 "d1" in
  let e1 = Circuit.add_input c2 "e1" in
  let e2 = Circuit.add_input c2 "e2" in
  let q1 = Circuit.add_latch c2 ~enable:e1 ~data:d1 () in
  let q2 = Circuit.add_latch c2 ~enable:e2 ~data:d1 () in
  let g2 = Circuit.add_gate c2 And [ q1; q2 ] in
  Circuit.mark_output c2 g2;
  Circuit.check c2;
  Alcotest.(check bool) "mixed classes blocked" false (Classes.can_forward_move c2 ~gate:g2)

let test_forward_move_preserves () =
  let st = rng 13 in
  (* Fig. 16: moving same-class enabled latches across a gate preserves the
     sequential function when power-up states are matched (we check the
     flushed behaviour: after the first enable pulse the outputs agree) *)
  let c = Circuit.create "fwd3" in
  let d1 = Circuit.add_input c "d1" in
  let d2 = Circuit.add_input c "d2" in
  let e = Circuit.add_input c "e" in
  let q1 = Circuit.add_latch c ~enable:e ~data:d1 () in
  let q2 = Circuit.add_latch c ~enable:e ~data:d2 () in
  let g = Circuit.add_gate c Or [ q1; q2 ] in
  Circuit.mark_output c g;
  Circuit.check c;
  let moved = Classes.forward_move c ~gate:g in
  Circuit.check moved;
  (* drive with enable always on after cycle 0 -> states flush *)
  let seq =
    List.init 20 (fun _ ->
        [| Random.State.bool st; Random.State.bool st; true |])
  in
  let t1 = Sim.run c ~init:(Array.make (Circuit.latch_count c) false) ~inputs:seq in
  let t2 = Sim.run moved ~init:(Array.make (Circuit.latch_count moved) false) ~inputs:seq in
  List.iteri
    (fun t o1 -> if t >= 2 && o1 <> List.nth t2 t then Alcotest.fail "move changed function")
    t1

let suite =
  [
    Alcotest.test_case "rgraph edge weights" `Quick test_rgraph_weights;
    Alcotest.test_case "rgraph rejects enabled latches" `Quick test_rgraph_rejects_enabled;
    Alcotest.test_case "latch ring auto-exposed" `Quick test_latch_ring_auto_exposed;
    Alcotest.test_case "min-period legal + better" `Quick test_min_period_legal_and_better;
    Alcotest.test_case "min-period with feedback" `Quick test_min_period_feedback;
    Alcotest.test_case "min-area LP = brute force" `Quick test_min_area_vs_bruteforce;
    Alcotest.test_case "constrained min-area" `Quick test_constrained_min_area;
    Alcotest.test_case "infeasible period rejected" `Quick test_infeasible_period;
    Alcotest.test_case "exposed latches pinned" `Quick test_exposed_latches_stay;
    Alcotest.test_case "pipeline balancing" `Quick test_pipeline_balances;
    Alcotest.test_case "FEAS fast = naive (min period)" `Quick test_feas_fast_vs_naive;
    Alcotest.test_case "FEAS arrival differential" `Quick test_feas_arrival_differential;
    Alcotest.test_case "min-area fast = reference" `Quick test_minarea_fast_vs_reference;
    Alcotest.test_case "FEAS bounds = oracle lattice" `Quick test_feas_bounds_vs_oracle;
    Alcotest.test_case "retime suite fast = reference" `Quick
      test_retime_suite_fast_vs_reference;
    Alcotest.test_case "fanout groups count kept latches" `Quick
      test_groups_count_kept_latches;
    Alcotest.test_case "min-area exact at every size" `Quick test_minarea_exact_every_size;
    Alcotest.test_case "latch class grouping" `Quick test_classes_grouping;
    Alcotest.test_case "forward move legality" `Quick test_forward_move_legality;
    Alcotest.test_case "forward move preserves" `Quick test_forward_move_preserves;
  ]

(* ---- single-class retiming (Legl reduction) ---- *)

let single_class_circuit st ~gates ~latches =
  let c = Circuit.create "sc" in
  let ins = List.init 3 (fun i -> Circuit.add_input c (Printf.sprintf "i%d" i)) in
  let en = Circuit.add_input c "en" in
  let pool = ref ins in
  let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
  let total = gates + latches in
  for k = 1 to total do
    if k mod (total / max 1 latches) = 0 && Circuit.latch_count c < latches then
      pool := Circuit.add_latch c ~enable:en ~data:(pick ()) () :: !pool
    else begin
      let fn : Circuit.gate_fn =
        match Random.State.int st 5 with
        | 0 -> And | 1 -> Or | 2 -> Nand | 3 -> Xor | _ -> Not
      in
      let arity = match fn with Not -> 1 | _ -> 2 in
      pool := Circuit.add_gate c fn (List.init arity (fun _ -> pick ())) :: !pool
    end
  done;
  Circuit.mark_output c (pick ());
  Circuit.mark_output c (pick ());
  Circuit.check c;
  c

let test_single_class_detection () =
  let st = rng 14 in
  let c = single_class_circuit st ~gates:20 ~latches:4 in
  Alcotest.(check bool) "detected" true (Classes.single_class_enable c <> None);
  (* mixed classes rejected *)
  let m = Circuit.create "mixed" in
  let d = Circuit.add_input m "d" in
  let e = Circuit.add_input m "e" in
  let _q1 = Circuit.add_latch m ~enable:e ~data:d () in
  let _q2 = Circuit.add_latch m ~data:d () in
  Circuit.mark_output m d;
  Circuit.check m;
  Alcotest.(check bool) "mixed rejected" true (Classes.single_class_enable m = None);
  (* gate-driven enable rejected *)
  let g = Circuit.create "gen" in
  let d = Circuit.add_input g "d" in
  let e = Circuit.add_gate g Not [ d ] in
  let _q = Circuit.add_latch g ~enable:e ~data:d () in
  Circuit.mark_output g d;
  Circuit.check g;
  Alcotest.(check bool) "derived enable rejected" true (Classes.single_class_enable g = None)

let test_single_class_retime_verified () =
  let st = rng 15 in
  (* the Legl reduction: retimed single-class circuits verify by EDBF *)
  for i = 1 to 10 do
    ignore i;
    let c = single_class_circuit st ~gates:(20 + Random.State.int st 40) ~latches:(3 + Random.State.int st 4) in
    let rt, rep = Classes.min_period_single_class c in
    Alcotest.(check bool) "period not worse" true
      (rep.Retime.period_after <= rep.Retime.period_before);
    (* all surviving latches still single-class (dangling latches may have
       been pruned away entirely) *)
    Alcotest.(check bool) "class preserved" true
      (Circuit.latch_count rt = 0 || Classes.single_class_enable rt <> None);
    match Result.get_ok (Verify.check c rt) with
    | { Verify.verdict = Verify.Equivalent; stats } ->
        Alcotest.(check bool) "edbf used" true (stats.Verify.method_ = Verify.Edbf_method)
    | { verdict = Verify.Inequivalent _; _ } ->
        Alcotest.fail "single-class retime not verified"
    | { verdict = Verify.Undecided r; _ } ->
        Alcotest.failf "unbudgeted check undecided: %s" r
  done

let test_single_class_retime_simulated () =
  let st = rng 16 in
  (* belt and braces: simulation with sparse enables, matched flush *)
  for i = 1 to 10 do
    ignore i;
    let c = single_class_circuit st ~gates:30 ~latches:4 in
    let rt, _ = Classes.min_period_single_class c in
    let cycles = 60 in
    let seq =
      List.init cycles (fun t ->
          (* inputs random; enable on ~half the cycles, always early *)
          [| Random.State.bool st; Random.State.bool st; Random.State.bool st;
             t < 20 || Random.State.bool st |])
    in
    let t1 = Sim.run c ~init:(Array.make (Circuit.latch_count c) false) ~inputs:seq in
    let t2 = Sim.run rt ~init:(Array.make (Circuit.latch_count rt) false) ~inputs:seq in
    List.iteri
      (fun t o1 ->
        if t >= 30 && o1 <> List.nth t2 t then
          Alcotest.fail "single-class retime behaviour differs")
      t1
  done

let test_single_class_min_area () =
  let st = rng 17 in
  let c = single_class_circuit st ~gates:40 ~latches:5 in
  let period = Circuit.delay c in
  let rt, rep = Result.get_ok (Classes.constrained_min_area_single_class ~period c) in
  Alcotest.(check bool) "period respected" true (rep.Retime.period_after <= period);
  match Result.get_ok (Verify.check c rt) with
  | { Verify.verdict = Verify.Equivalent; _ } -> ()
  | { verdict = Verify.Inequivalent _; _ } ->
      Alcotest.fail "single-class min-area not verified"
  | { verdict = Verify.Undecided r; _ } ->
      Alcotest.failf "unbudgeted check undecided: %s" r

let suite =
  suite
  @ [
      Alcotest.test_case "single-class detection" `Quick test_single_class_detection;
      Alcotest.test_case "single-class retime verified" `Quick test_single_class_retime_verified;
      Alcotest.test_case "single-class retime simulated" `Quick test_single_class_retime_simulated;
      Alcotest.test_case "single-class min-area" `Quick test_single_class_min_area;
    ]
