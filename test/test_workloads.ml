(* Benchmark generators: published latch counts, determinism, structure. *)

let table1_latches =
  [
    ("minmax10", 30); ("minmax12", 36); ("minmax20", 60); ("minmax32", 96);
    ("prolog", 65); ("s1196", 18); ("s1238", 18); ("s1269", 37); ("s1423", 74);
    ("s3271", 116); ("s3384", 183); ("s400", 21); ("s444", 21); ("s4863", 88);
    ("s641", 19); ("s6669", 231); ("s713", 19); ("s9234", 135); ("s953", 29);
    ("s967", 29); ("s3330", 65); ("s15850", 515); ("s38417", 1464);
  ]

let table2_shape =
  [
    ("ex1", 2157, 934); ("ex2", 160, 16); ("ex3", 146, 56); ("ex4", 1437, 835);
    ("ex5", 672, 305); ("ex6", 412, 250); ("ex7", 453, 81); ("ex8", 968, 470);
    ("ex9", 783, 15); ("ex10", 634, 174); ("ex11", 792, 369); ("ex12", 2206, 691);
  ]

let test_table1_latch_counts () =
  let suite = Workloads.table1_suite () in
  Alcotest.(check int) "23 circuits" 23 (List.length suite);
  List.iter
    (fun (name, expected) ->
      match List.assoc_opt name suite with
      | None -> Alcotest.fail (name ^ " missing")
      | Some c ->
          Alcotest.(check int) (name ^ " latch count") expected (Circuit.latch_count c))
    table1_latches

let test_table1_valid () =
  List.iter (fun (_, c) -> Circuit.check c) (Workloads.table1_suite ())

let test_table2_exposure_counts () =
  (* small members only, to keep the test quick; the bench covers all *)
  List.iter
    (fun (name, latches, exposed) ->
      if latches <= 700 then begin
        let c = Workloads.by_name name in
        Alcotest.(check int) (name ^ " latches") latches (Circuit.latch_count c);
        let plan = Feedback.plan_structural c in
        Alcotest.(check int)
          (name ^ " structural exposure")
          exposed
          (List.length plan.Feedback.exposed)
      end)
    table2_shape

let test_table2_has_enables () =
  let c = Workloads.by_name "ex3" in
  let enabled =
    List.length
      (List.filter (fun l -> snd (Circuit.latch_info c l) <> None) (Circuit.latches c))
  in
  Alcotest.(check bool) "load-enabled latches present" true (enabled > 0)

let test_determinism () =
  let c1 = Workloads.by_name "s400" in
  let c2 = Workloads.by_name "s400" in
  Alcotest.(check string) "generators deterministic" (Netlist_io.to_string c1)
    (Netlist_io.to_string c2)

let test_minmax_functionality () =
  (* The tracker min/max-es the *conditioned* input stream (the deep mixing
     chain feeds the input registers).  Reference-model it: evaluate the
     conditioning combinationally, then replay the register update rules. *)
  let w = 4 in
  let c = Workloads.minmax ~width:w in
  Circuit.check c;
  let latches = Circuit.latches c in
  let inreg = List.filteri (fun i _ -> i < w) latches in
  let cond_data = List.map (fun l -> fst (Circuit.latch_info c l)) inreg in
  let st = Random.State.make [| 77 |] in
  let inputs =
    List.init 12 (fun t ->
        Array.init (w + 1) (fun i ->
            if i < w then Random.State.bool st else t = 0 (* reset pulse *)))
  in
  (* conditioned value per cycle *)
  let conditioned =
    List.map
      (fun (vec : bool array) ->
        let input_order = Circuit.inputs c in
        let tbl = Hashtbl.create 8 in
        List.iteri (fun i s -> Hashtbl.replace tbl s vec.(i)) input_order;
        let source s =
          match Hashtbl.find_opt tbl s with Some b -> b | None -> false
        in
        let values = Eval.comb_eval c ~source in
        let bits = List.map (fun d -> values.(d)) cond_data in
        List.fold_left (fun acc b -> (2 * acc) + if b then 1 else 0) 0 (List.rev bits))
      inputs
  in
  (* reference tracker: inreg delays by 1; min/max update on compare or
     reset; all registers power up at 0 *)
  let minr = ref 0 and maxr = ref 0 and inr = ref 0 in
  let trace = Sim.run c ~init:(Array.make (Circuit.latch_count c) false) ~inputs in
  List.iteri
    (fun t (vec : bool array) ->
      let outs = List.nth trace t in
      let value lo =
        let bits = Array.to_list (Array.sub outs lo w) in
        List.fold_left (fun acc b -> (2 * acc) + if b then 1 else 0) 0 (List.rev bits)
      in
      Alcotest.(check int) (Printf.sprintf "min @%d" t) !minr (value 0);
      Alcotest.(check int) (Printf.sprintf "max @%d" t) !maxr (value w);
      (* state update *)
      let reset = vec.(w) in
      if !inr < !minr || reset then minr := !inr;
      if !inr > !maxr || reset then maxr := !inr;
      inr := List.nth conditioned t)
    inputs

let test_pipeline_acyclic () =
  let c = Workloads.pipeline ~name:"tp" ~width:6 ~stages:5 ~imbalance:3 ~seed:1 in
  let g, _ = Feedback.latch_graph c in
  Alcotest.(check bool) "no latch cycles" true (Vgraph.Topo.is_acyclic g)

let test_fsm_datapath_selfloops () =
  let c = Workloads.fsm_datapath ~name:"tf" ~latches:40 ~self_loops:12 ~gates:200 ~width:8 ~seed:2 in
  Alcotest.(check int) "latches" 40 (Circuit.latch_count c);
  let plan = Feedback.plan_structural c in
  Alcotest.(check int) "exposure = self loops" 12 (List.length plan.Feedback.exposed)

let test_deep_datapath_shape () =
  let c = Workloads.deep_datapath ~name:"td" ~width:5 ~stages:40 ~seed:7 in
  Alcotest.(check int) "latches = width*stages" 200 (Circuit.latch_count c);
  let g, _ = Feedback.latch_graph c in
  Alcotest.(check bool) "acyclic" true (Vgraph.Topo.is_acyclic g);
  (* the retime suite stays within the exact min-area vertex bound *)
  List.iter
    (fun (name, c) ->
      let n = Rgraph.vertex_count (Rgraph.build c) in
      Alcotest.(check bool) (name ^ " within exact bound") true (n <= 4000))
    (Workloads.retime_suite ())

let test_by_name_missing () =
  try
    ignore (Workloads.by_name "nonexistent");
    Alcotest.fail "missing name accepted"
  with Not_found -> ()

(* ---- the name registry ---- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_registry_resolves_everything () =
  let ns = Workloads.names () in
  Alcotest.(check bool) "registry is populated" true (List.length ns > 40);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "name %s listed" n)
        true (List.mem n ns))
    [ "minmax10"; "s1423"; "ex3"; "deep_w4x64"; "fifo64x16s"; "fifo64x16m_bug"; "hfifo_a"; "halu_mut_b" ];
  (* every cheap name builds a valid circuit under its own name *)
  List.iter
    (fun n ->
      match Workloads.lookup n with
      | Ok c ->
          Circuit.check c;
          Alcotest.(check string) "circuit carries its registry name" n (Circuit.name c)
      | Error e -> Alcotest.fail e)
    [ "minmax10"; "ex3"; "hfifo_a" ]

let test_lookup_suggests_near_misses () =
  match Workloads.lookup "mnmax10" with
  | Ok _ -> Alcotest.fail "typo accepted"
  | Error e ->
      Alcotest.(check bool) "suggests the close name" true
        (contains ~sub:"minmax10" e);
      Alcotest.(check bool) "names the unknown input" true
        (contains ~sub:"mnmax10" e)

let test_hier_suite_shape () =
  let suite = Workloads.hier_suite () in
  Alcotest.(check int) "four pairs" 4 (List.length suite);
  List.iter
    (fun (name, l, r, expected) ->
      Alcotest.(check bool)
        (name ^ ": same top") true
        (l.Hier.top = r.Hier.top);
      Alcotest.(check bool)
        (name ^ ": same module names") true
        (List.map (fun m -> m.Hier.mod_name) l.Hier.modules
        = List.map (fun m -> m.Hier.mod_name) r.Hier.modules);
      (* sides differ structurally at every module *)
      List.iter
        (fun lm ->
          let rm = Hier.find_module r lm.Hier.mod_name in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %s differs" name lm.Hier.mod_name)
            true
            (Hier.circuit_signature lm.Hier.glue
            <> Hier.circuit_signature rm.Hier.glue))
        l.Hier.modules;
      match expected with
      | `Eq -> ()
      | `Neq m -> ignore (Hier.find_module r m))
    suite

(* ---- large tier ---- *)

let test_fifo_shape () =
  List.iter
    (fun style ->
      let entries = 8 and width = 4 in
      let c = Workloads.fifo ~entries ~width ~style () in
      Circuit.check c;
      (* data latches plus the two log2(entries)-bit pointers *)
      Alcotest.(check int) "latch count"
        ((entries * width) + 6)
        (Circuit.latch_count c);
      (* every data latch is a hold-mux self-loop: the structural plan
         must expose all of them (pointers are a counter cycle too) *)
      let plan = Feedback.plan_structural c in
      Alcotest.(check int) "all latches exposed"
        (Circuit.latch_count c)
        (List.length plan.Feedback.exposed))
    [ `Sop; `Mux ];
  (* the two styles share latch names, so one exposure cut fits both *)
  let names style =
    let c = Workloads.fifo ~entries:8 ~width:4 ~style () in
    List.sort compare (List.map (Circuit.signal_name c) (Circuit.latches c))
  in
  Alcotest.(check (list string)) "styles share latch names" (names `Sop) (names `Mux);
  (* styles are structurally different but must stay functionally equal;
     the bug variant must not *)
  let v c1 c2 =
    (Result.get_ok
       (Verify.check
          ~exposed:
            (List.map
               (Circuit.signal_name c1)
               (Feedback.plan_structural c1).Feedback.exposed)
          c1 c2))
      .Verify.verdict
  in
  let sop = Workloads.fifo ~entries:4 ~width:2 ~style:`Sop () in
  let mux = Workloads.fifo ~entries:4 ~width:2 ~style:`Mux () in
  let bug = Workloads.fifo ~entries:4 ~width:2 ~style:`Mux ~bug:true () in
  Alcotest.(check bool) "styles equivalent" true (v sop mux = Verify.Equivalent);
  (match v sop bug with
  | Verify.Inequivalent _ -> ()
  | _ -> Alcotest.fail "bug variant accepted");
  (* entries must be a power of two (the pointer decode relies on it) *)
  try
    ignore (Workloads.fifo ~entries:6 ~width:2 ~style:`Sop ());
    Alcotest.fail "non-power-of-two entries accepted"
  with Invalid_argument _ -> ()

let test_lane_alu_shape () =
  let lanes = 2 and width = 4 and stages = 3 in
  List.iter
    (fun style ->
      let c = Workloads.lane_alu ~lanes ~width ~stages ~style () in
      Circuit.check c;
      Alcotest.(check int) "flip-flops = lanes*width*stages"
        (lanes * width * stages)
        (Circuit.latch_count c);
      (* acyclic: CBF needs no exposure at all *)
      let g, _ = Feedback.latch_graph c in
      Alcotest.(check bool) "acyclic" true (Vgraph.Topo.is_acyclic g))
    [ `Ripple; `Select ];
  let rip = Workloads.lane_alu ~lanes ~width ~stages:2 ~style:`Ripple () in
  let sel = Workloads.lane_alu ~lanes ~width ~stages:2 ~style:`Select () in
  let v c1 c2 = (Result.get_ok (Verify.check c1 c2)).Verify.verdict in
  Alcotest.(check bool) "adder styles equivalent" true
    (v rip sel = Verify.Equivalent);
  let bug = Workloads.lane_alu ~lanes ~width ~stages:2 ~style:`Select ~bug:true () in
  match v rip bug with
  | Verify.Inequivalent _ -> ()
  | _ -> Alcotest.fail "bug variant accepted"

(* The large tier lives in the registry as style pairs (CI checks them
   through the CLI by @name) plus one seeded-bug mutant side. *)
let test_large_suite_shape () =
  let large =
    List.filter
      (fun n ->
        String.starts_with ~prefix:"fifo" n || String.starts_with ~prefix:"alu" n)
      (Workloads.names ())
  in
  Alcotest.(check (list string))
    "large-tier names"
    [
      "fifo64x16s"; "fifo64x16m"; "fifo128x8s"; "fifo128x8m"; "alu8x8x4r";
      "alu8x8x4s"; "alu64x8x4r"; "alu64x8x4s"; "fifo64x16m_bug";
    ]
    large;
  List.iter
    (fun n ->
      let c = Workloads.by_name n in
      Circuit.check c;
      Alcotest.(check string) (n ^ ": named after its entry") n (Circuit.name c);
      (* generators are deterministic and reachable through by_name *)
      Alcotest.(check string) (n ^ ": by_name round-trips")
        (Netlist_io.to_string c)
        (Netlist_io.to_string (Workloads.by_name (Circuit.name c))))
    large

let suite =
  [
    Alcotest.test_case "table 1 latch counts" `Quick test_table1_latch_counts;
    Alcotest.test_case "table 1 circuits valid" `Quick test_table1_valid;
    Alcotest.test_case "table 2 exposure counts" `Quick test_table2_exposure_counts;
    Alcotest.test_case "table 2 enables present" `Quick test_table2_has_enables;
    Alcotest.test_case "determinism" `Quick test_determinism;
    Alcotest.test_case "minmax tracks min/max" `Quick test_minmax_functionality;
    Alcotest.test_case "pipeline acyclic" `Quick test_pipeline_acyclic;
    Alcotest.test_case "fsm_datapath self-loops" `Quick test_fsm_datapath_selfloops;
    Alcotest.test_case "deep datapath shape" `Quick test_deep_datapath_shape;
    Alcotest.test_case "by_name missing" `Quick test_by_name_missing;
    Alcotest.test_case "registry resolves everything" `Quick test_registry_resolves_everything;
    Alcotest.test_case "lookup suggests near misses" `Quick test_lookup_suggests_near_misses;
    Alcotest.test_case "hier suite shape" `Quick test_hier_suite_shape;
    Alcotest.test_case "fifo shape and styles" `Quick test_fifo_shape;
    Alcotest.test_case "lane ALU shape and styles" `Quick test_lane_alu_shape;
    Alcotest.test_case "large suite shape" `Quick test_large_suite_shape;
  ]
