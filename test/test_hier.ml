(* Hierarchical compositional SEC: glue building, flattening, signatures
   and invalidation, adversarial resynthesis, the leaf-first planner
   (verdict reuse, flat fallback, black-box soundness) and the hier
   workload suite. *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "seqver_hier_%d_%d"
         (Unix.getpid ())
         (incr n;
          !n))

let exposed_of c =
  List.map (Circuit.signal_name c) (Feedback.plan_structural c).Feedback.exposed

let flat_verdict l r =
  match Verify.check ~exposed:(exposed_of l) l r with
  | Ok o -> o.Verify.verdict
  | Error d -> Alcotest.fail (Seqprob.diagnosis_to_string d)

(* ---- tiny designs ---- *)

(* Leaf: one hold-mux register (self-loop, so exposure matters) plus a
   combinational function of the two ports; [impl] picks the gate
   structure ([`Xor] and [`Xor2] are equivalent, [`And] is not). *)
let tiny_leaf impl =
  let c = Circuit.create "leaf" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let l = Circuit.declare c ~name:"l" () in
  Circuit.set_latch c l ~data:(Circuit.add_gate c Mux [ a; b; l ]) ();
  let f =
    match impl with
    | `Xor -> Circuit.add_gate c Xor [ a; b ]
    | `Xor2 -> Circuit.add_gate c Not [ Circuit.add_gate c Xnor [ a; b ] ]
    | `And -> Circuit.add_gate c And [ a; b ]
  in
  Circuit.mark_output c l;
  Circuit.mark_output c f;
  Circuit.check c;
  c

let leaf impl =
  {
    Hier.mod_name = "leaf";
    glue = tiny_leaf impl;
    ports_in = [ "a"; "b" ];
    out_count = 2;
    instances = [];
  }

let build_mid lf =
  let b = Hier.Build.create "mid" in
  let g = Hier.Build.glue b in
  let p = Hier.Build.input b "p" in
  let q = Hier.Build.input b "q" in
  let u = Hier.Build.inst b ~name:"u" ~child:lf ~inputs:[ p; q ] in
  let ua = Array.of_list u in
  Hier.Build.output b (Circuit.add_gate g And [ ua.(0); ua.(1) ]);
  List.iter (Hier.Build.output b) u;
  Hier.Build.finish b

let build_top mid lf =
  let b = Hier.Build.create "top" in
  let g = Hier.Build.glue b in
  let x = Hier.Build.input b "x" in
  let y = Hier.Build.input b "y" in
  let m = Hier.Build.inst b ~name:"m" ~child:mid ~inputs:[ x; y ] in
  let w = Hier.Build.inst b ~name:"w" ~child:lf ~inputs:[ y; x ] in
  let ma = Array.of_list m and wa = Array.of_list w in
  Hier.Build.output b (Circuit.add_gate g Xor [ ma.(0); wa.(0) ]);
  List.iter (Hier.Build.output b) m;
  List.iter (Hier.Build.output b) w;
  Hier.Build.finish b

(* leaf <- mid <- top, with the leaf also instantiated directly by top *)
let chain_design ?(name = "chain") ?glue_seed impl =
  let lf = leaf impl in
  let mid = build_mid lf in
  let top = build_top mid lf in
  let d = Hier.make_design ~name ~top:"top" [ lf; mid; top ] in
  match glue_seed with
  | None -> d
  | Some seed ->
      List.fold_left
        (fun d n -> Hier.map_module d ~name:n ~f:(Hier.resynthesize ~seed))
        d [ "mid"; "top" ]

(* ---- structure ---- *)

let test_order_and_invalidation () =
  let d = chain_design `Xor in
  Alcotest.(check (list string))
    "leaf-first order"
    [ "leaf"; "mid"; "top" ]
    (Hier.module_order d);
  Alcotest.(check (list string))
    "leaf invalidates everything"
    [ "leaf"; "mid"; "top" ]
    (Hier.invalidation_set d "leaf");
  Alcotest.(check (list string))
    "mid invalidates its chain" [ "mid"; "top" ]
    (Hier.invalidation_set d "mid");
  Alcotest.(check (list string))
    "top invalidates only itself" [ "top" ]
    (Hier.invalidation_set d "top")

let test_flatten () =
  let d = chain_design `Xor in
  let c = Hier.flatten d in
  Alcotest.(check (list string))
    "flat inputs are the top ports" [ "x"; "y" ]
    (List.map (Circuit.signal_name c) (Circuit.inputs c));
  let latch_names =
    List.sort compare (List.map (Circuit.signal_name c) (Circuit.latches c))
  in
  Alcotest.(check (list string))
    "instance-path latch names"
    [ "m/u/l"; "w/l" ]
    latch_names;
  (* flattening is stable: the same design flattens to the same netlist *)
  Alcotest.(check string) "flatten deterministic"
    (Netlist_io.to_string c)
    (Netlist_io.to_string (Hier.flatten d));
  (* flatten_at the mid subtree only *)
  let m = Hier.flatten_at d "mid" in
  Alcotest.(check (list string))
    "subtree inputs" [ "p"; "q" ]
    (List.map (Circuit.signal_name m) (Circuit.inputs m))

let test_signatures () =
  let d = chain_design `Xor in
  let d' = Hier.map_module d ~name:"mid" ~f:(Hier.resynthesize ~seed:5) in
  Alcotest.(check bool) "leaf signature survives a mid edit" true
    (Hier.subtree_signature d "leaf" = Hier.subtree_signature d' "leaf");
  Alcotest.(check bool) "mid signature changes" true
    (Hier.subtree_signature d "mid" <> Hier.subtree_signature d' "mid");
  Alcotest.(check bool) "top signature changes (ancestor)" true
    (Hier.subtree_signature d "top" <> Hier.subtree_signature d' "top");
  Alcotest.(check bool) "boundary signature is structural only" true
    (Hier.boundary_signature d "mid" = Hier.boundary_signature d' "mid");
  Alcotest.(check bool) "module keys differ after the edit" true
    (Hier.module_key ~left:d ~right:d "mid"
    <> Hier.module_key ~left:d ~right:d' "mid")

(* ---- resynthesis ---- *)

let test_resynthesize_equivalent () =
  let c = Workloads.fifo ~entries:4 ~width:4 ~style:`Sop () in
  let r = Hier.resynthesize ~seed:3 c in
  Alcotest.(check bool) "structure actually changed" true
    (Netlist_io.to_string c <> Netlist_io.to_string r);
  (match flat_verdict c r with
  | Verify.Equivalent -> ()
  | _ -> Alcotest.fail "resynthesized circuit must stay equivalent");
  match flat_verdict c (Hier.break_output ~output:1 c) with
  | Verify.Inequivalent _ -> ()
  | _ -> Alcotest.fail "break_output must be caught"

(* ---- planner ---- *)

let test_planner_equivalent_pair () =
  let l = chain_design ~name:"chainL" `Xor in
  let r = chain_design ~name:"chainR" ~glue_seed:11 `Xor2 in
  let rep = Hier.check l r in
  (match rep.Hier.verdict with
  | Hier.Equivalent -> ()
  | _ -> Alcotest.fail "compositional check must prove the pair");
  Alcotest.(check int) "three module pairs checked" 3 rep.Hier.checked;
  Alcotest.(check int) "no fallbacks" 0 rep.Hier.flat_fallbacks;
  (* the compositional verdict agrees with flat verification *)
  match flat_verdict (Hier.flatten l) (Hier.flatten r) with
  | Verify.Equivalent -> ()
  | _ -> Alcotest.fail "flat reference disagrees"

(* Satellite: black-box soundness.  The two designs differ only in the
   leaf's internal function behind identical parent glue; black-boxing
   the leaf makes the parents indistinguishable, so a sound planner must
   refute at the leaf (never report Equivalent). *)
let test_blackbox_soundness () =
  let l = chain_design ~name:"soundL" `Xor in
  let r = chain_design ~name:"soundR" `And in
  let rep = Hier.check l r in
  (match rep.Hier.verdict with
  | Hier.Inequivalent { offending; _ } ->
      Alcotest.(check string) "attributed to the leaf" "leaf" offending
  | Hier.Equivalent -> Alcotest.fail "false Equivalent through a black box"
  | Hier.Undecided _ -> Alcotest.fail "pair is decidable");
  (* flat reference agrees *)
  match flat_verdict (Hier.flatten l) (Hier.flatten r) with
  | Verify.Inequivalent _ -> ()
  | _ -> Alcotest.fail "flat reference disagrees"

(* A blackbox refutation proves nothing: free cut-points can produce
   values the real child never does.  Here the child output is constant
   false, the left glue inverts it and the right glue hardwires true —
   the glue pair differs over a free cut-point but the composed designs
   are equivalent, so the planner must fall back to flat and prove it. *)
let test_blackbox_fallback () =
  let cleaf =
    let c = Circuit.create "cleaf" in
    let a = Circuit.add_input c "a" in
    Circuit.mark_output c
      (Circuit.add_gate c And [ a; Circuit.add_gate c Not [ a ] ]);
    Circuit.check c;
    {
      Hier.mod_name = "cleaf";
      glue = c;
      ports_in = [ "a" ];
      out_count = 1;
      instances = [];
    }
  in
  let top out_of =
    let b = Hier.Build.create "top" in
    let g = Hier.Build.glue b in
    let a = Hier.Build.input b "a" in
    let u = Hier.Build.inst b ~name:"u" ~child:cleaf ~inputs:[ a ] in
    Hier.Build.output b (out_of g (List.hd u));
    Hier.Build.finish b
  in
  let l =
    Hier.make_design ~name:"cpL" ~top:"top"
      [ cleaf; top (fun g u -> Circuit.add_gate g Not [ u ]) ]
  in
  let r =
    Hier.make_design ~name:"cpR" ~top:"top"
      [ cleaf; top (fun g _ -> Circuit.const_true g) ]
  in
  let rep = Hier.check l r in
  (match rep.Hier.verdict with
  | Hier.Equivalent -> ()
  | _ -> Alcotest.fail "flat fallback must prove the pair");
  Alcotest.(check int) "exactly one flat fallback" 1 rep.Hier.flat_fallbacks;
  let top_mode =
    List.find_map
      (fun m -> if m.Hier.rm_module = "top" then Some m.Hier.rm_mode else None)
      rep.Hier.modules
  in
  Alcotest.(check bool) "top decided flat" true (top_mode = Some Hier.Flat)

let test_verdict_reuse () =
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  let l = chain_design ~name:"warmL" `Xor in
  let r = chain_design ~name:"warmR" ~glue_seed:11 `Xor2 in
  let cold = Hier.check ~store:st l r in
  Alcotest.(check int) "cold: no hits" 0 cold.Hier.store_hits;
  Alcotest.(check int) "cold: all checked" 3 cold.Hier.checked;
  let warm = Hier.check ~store:st l r in
  (match warm.Hier.verdict with
  | Hier.Equivalent -> ()
  | _ -> Alcotest.fail "warm verdict differs");
  Alcotest.(check int) "warm: all hits" 3 warm.Hier.store_hits;
  Alcotest.(check int) "warm: nothing re-checked" 0 warm.Hier.checked;
  (* editing mid invalidates exactly its ancestor chain *)
  let r' = Hier.map_module r ~name:"mid" ~f:(Hier.resynthesize ~seed:23) in
  let third = Hier.check ~store:st l r' in
  (match third.Hier.verdict with
  | Hier.Equivalent -> ()
  | _ -> Alcotest.fail "edited pair must still prove");
  Alcotest.(check int) "untouched leaf is a store hit" 1 third.Hier.store_hits;
  Alcotest.(check int) "only the ancestor chain re-checked" 2 third.Hier.checked;
  (* hier records carry their kind in the store *)
  let kinds = (Store.info st).Store.kinds in
  Alcotest.(check bool) "store attributes hier records" true
    (match List.assoc_opt "hier" kinds with Some n -> n >= 3 | None -> false);
  Store.close st

let test_hierarchy_mismatch_falls_flat () =
  let l = chain_design ~name:"mmL" `Xor in
  (* same function, different hierarchy: a single-module design holding
     the whole flattened netlist *)
  let flat = Hier.flatten l in
  let r =
    Hier.make_design ~name:"mmR" ~top:"top"
      [
        {
          Hier.mod_name = "top";
          glue = Circuit.copy ~name:"top" flat;
          ports_in = [ "x"; "y" ];
          out_count = List.length (Circuit.outputs flat);
          instances = [];
        };
      ]
  in
  let rep = Hier.check l r in
  (match rep.Hier.verdict with
  | Hier.Equivalent -> ()
  | _ -> Alcotest.fail "mismatched hierarchies must still decide the pair");
  Alcotest.(check int) "decided by one flat check" 1 rep.Hier.flat_fallbacks

(* ---- the workload suite ---- *)

(* Every suite pair four ways: flat, cold compositional on a fresh store,
   warm on the reopened store (zero re-checks), and for the equivalent
   pairs a rerun with one leaf resynthesized, which must re-check exactly
   that leaf's invalidation set.  Each count is read from the report and
   from the hier.module_checked / hier.module_store_hits counter deltas. *)
let test_hier_suite_verdicts () =
  let was_on = Obs.counters_enabled () in
  Obs.enable_counters ();
  Fun.protect ~finally:(fun () -> if not was_on then Obs.disable_counters ())
  @@ fun () ->
  let counted f =
    let before = Obs.Counters.snapshot () in
    let rep = f () in
    let after = Obs.Counters.snapshot () in
    let delta name =
      let get snap = Option.value ~default:0 (List.assoc_opt name snap) in
      get after - get before
    in
    (rep, delta "hier.module_checked", delta "hier.module_store_hits")
  in
  let check_counts what (rep, checked, hits) ~want_checked ~want_hits =
    Alcotest.(check int) (what ^ ": checked") want_checked rep.Hier.checked;
    Alcotest.(check int) (what ^ ": checked counter") want_checked checked;
    Alcotest.(check int) (what ^ ": store hits") want_hits rep.Hier.store_hits;
    Alcotest.(check int) (what ^ ": store-hit counter") want_hits hits
  in
  let verdict_str = function
    | Hier.Equivalent -> "EQ"
    | Hier.Inequivalent _ -> "NEQ"
    | Hier.Undecided _ -> "UNDEC"
  in
  List.iter
    (fun (name, l, r, expected) ->
      let dir = fresh_dir () in
      let st = Store.open_ dir in
      let cold = Hier.check ~store:st l r in
      Store.close st;
      let want = match expected with `Eq -> "EQ" | `Neq _ -> "NEQ" in
      (match (expected, cold.Hier.verdict) with
      | `Eq, Hier.Equivalent -> ()
      | `Neq m, Hier.Inequivalent { offending; _ } ->
          Alcotest.(check string) (name ^ ": offending module") m offending
      | _, _ -> Alcotest.fail (name ^ ": wrong compositional verdict"));
      let flat =
        match flat_verdict (Hier.flatten l) (Hier.flatten r) with
        | Verify.Equivalent -> "EQ"
        | Verify.Inequivalent _ -> "NEQ"
        | Verify.Undecided _ -> "UNDEC"
      in
      Alcotest.(check string) (name ^ ": flat verdict") want flat;
      Alcotest.(check int) (name ^ ": no flat fallbacks") 0
        cold.Hier.flat_fallbacks;
      (* a fresh handle on the same log: hits come from disk *)
      let st = Store.open_ dir in
      let ((warm, _, _) as w) = counted (fun () -> Hier.check ~store:st l r) in
      Alcotest.(check string) (name ^ ": warm verdict") want
        (verdict_str warm.Hier.verdict);
      check_counts (name ^ " warm") w ~want_checked:0
        ~want_hits:(List.length cold.Hier.modules);
      (match expected with
      | `Neq _ -> ()
      | `Eq ->
          Alcotest.(check int) (name ^ ": warm run visits every module")
            (List.length (Hier.module_order l))
            (List.length warm.Hier.modules);
          (* the leaf with the shortest ancestor chain leaves the most
             modules untouched *)
          let leaf, chain =
            List.filter_map
              (fun (m : Hier.module_def) ->
                if m.Hier.instances <> [] then None
                else
                  Some (m.Hier.mod_name, Hier.invalidation_set r m.Hier.mod_name))
              r.Hier.modules
            |> List.sort (fun (_, a) (_, b) ->
                   compare (List.length a) (List.length b))
            |> List.hd
          in
          let r' = Hier.map_module r ~name:leaf ~f:(Hier.resynthesize ~seed:23) in
          let ((mut, _, _) as m) = counted (fun () -> Hier.check ~store:st l r') in
          let what = Printf.sprintf "%s with %s resynthesized" name leaf in
          Alcotest.(check string) (what ^ ": verdict") "EQ"
            (verdict_str mut.Hier.verdict);
          Alcotest.(check (list string)) (what ^ ": re-checked modules") chain
            (List.filter_map
               (fun rm ->
                 if rm.Hier.rm_source = Hier.Checked then Some rm.Hier.rm_module
                 else None)
               mut.Hier.modules);
          check_counts what m ~want_checked:(List.length chain)
            ~want_hits:(List.length (Hier.module_order l) - List.length chain));
      Store.close st)
    (Workloads.hier_suite ())

let test_hier_mutant_agrees_with_flat () =
  let _, l, r, _ =
    List.find (fun (n, _, _, _) -> n = "halu_mut") (Workloads.hier_suite ())
  in
  match flat_verdict (Hier.flatten l) (Hier.flatten r) with
  | Verify.Inequivalent _ -> ()
  | _ -> Alcotest.fail "flat check must refute the broken mutant too"

let suite =
  [
    Alcotest.test_case "order and invalidation" `Quick test_order_and_invalidation;
    Alcotest.test_case "flatten" `Quick test_flatten;
    Alcotest.test_case "signatures" `Quick test_signatures;
    Alcotest.test_case "resynthesize equivalence" `Quick test_resynthesize_equivalent;
    Alcotest.test_case "planner proves equivalent pair" `Quick test_planner_equivalent_pair;
    Alcotest.test_case "black-box soundness" `Quick test_blackbox_soundness;
    Alcotest.test_case "black-box refutation falls back flat" `Quick test_blackbox_fallback;
    Alcotest.test_case "verdict reuse and invalidation scope" `Quick test_verdict_reuse;
    Alcotest.test_case "hierarchy mismatch falls flat" `Quick test_hierarchy_mismatch_falls_flat;
    Alcotest.test_case "hier suite verdicts" `Quick test_hier_suite_verdicts;
    Alcotest.test_case "broken mutant agrees with flat" `Quick test_hier_mutant_agrees_with_flat;
  ]
