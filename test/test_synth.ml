(* Synthesis passes: function preservation (state-for-state, since latch
   positions are fixed), library discipline, fanout limiting. *)

let st = Random.State.make [| 0x517 |]

(* verdict of the combinational check of two circuits *)
let cec c1 c2 = fst (Cec.check_problem_with_stats (Cec.of_circuits c1 c2))

(* Latch-identity-preserving equivalence: same-named latches must carry the
   same state; compare behaviour from matched power-up states. *)
let compare_exact c1 c2 ~cycles ~trials =
  let l1 = List.map (Circuit.signal_name c1) (Circuit.latches c1) in
  let l2 = List.map (Circuit.signal_name c2) (Circuit.latches c2) in
  List.iter
    (fun n ->
      if not (List.mem n l1) then Alcotest.fail (Printf.sprintf "latch %s appeared" n))
    l2;
  let ni = List.length (Circuit.inputs c1) in
  for _ = 1 to trials do
    let seq = List.init cycles (fun _ -> Array.init ni (fun _ -> Random.State.bool st)) in
    let init1 = Array.init (List.length l1) (fun _ -> Random.State.bool st) in
    let value_of n =
      let rec idx i = function
        | [] -> Alcotest.fail "latch lookup"
        | m :: _ when m = n -> init1.(i)
        | _ :: tl -> idx (i + 1) tl
      in
      idx 0 l1
    in
    let init2 = Array.of_list (List.map value_of l2) in
    let t1 = Sim.run c1 ~init:init1 ~inputs:seq in
    let t2 = Sim.run c2 ~init:init2 ~inputs:seq in
    if t1 <> t2 then Alcotest.fail "behaviour changed"
  done

let random_cases ~n ~enables f =
  for i = 1 to n do
    let c =
      Gen.acyclic st
        ~name:(Printf.sprintf "s%d" i)
        ~inputs:(2 + Random.State.int st 4)
        ~gates:(20 + Random.State.int st 80)
        ~latches:(2 + Random.State.int st 8)
        ~outputs:(1 + Random.State.int st 3)
        ~enables:(enables && i mod 2 = 0)
    in
    f c
  done

let test_sweep_preserves () =
  random_cases ~n:30 ~enables:true (fun c ->
      compare_exact c (Sweep_pass.run c) ~cycles:25 ~trials:10)

let test_sweep_removes_dead () =
  let c = Circuit.create "dead" in
  let a = Circuit.add_input c "a" in
  let live = Circuit.add_gate c Not [ a ] in
  let _dead_gate = Circuit.add_gate c And [ a; live ] in
  let _dead_latch = Circuit.add_latch c ~data:a () in
  Circuit.mark_output c live;
  Circuit.check c;
  let o = Sweep_pass.run c in
  Alcotest.(check int) "dead gate gone" 1 (Circuit.area o);
  Alcotest.(check int) "dead latch gone" 0 (Circuit.latch_count o);
  Alcotest.(check int) "inputs kept" 1 (List.length (Circuit.inputs o))

let test_sweep_constants () =
  let c = Circuit.create "konst" in
  let a = Circuit.add_input c "a" in
  let t = Circuit.const_true c in
  let g1 = Circuit.add_gate c And [ a; t ] in
  (* a *)
  let g2 = Circuit.add_gate c Or [ g1; t ] in
  (* 1 *)
  let g3 = Circuit.add_gate c Xor [ g2; t ] in
  (* 0 *)
  let g4 = Circuit.add_gate c Not [ Circuit.add_gate c Not [ a ] ] in
  (* a *)
  Circuit.mark_output c g3;
  Circuit.mark_output c g4;
  Circuit.check c;
  let o = Sweep_pass.run c in
  Alcotest.(check int) "all constant-folded" 0 (Circuit.area o);
  (* behaviour identical *)
  compare_exact c o ~cycles:4 ~trials:4

let test_sweep_monotone () =
  (* a second sweep may fuse a few more inverters but never grows the
     circuit, and it never changes behaviour *)
  random_cases ~n:10 ~enables:true (fun c ->
      let once = Sweep_pass.run c in
      let twice = Sweep_pass.run once in
      Alcotest.(check bool) "area non-increasing" true
        (Circuit.area twice <= Circuit.area once);
      (* constant folding can strand a latch behind a folded gate, which
         only the next sweep collects *)
      Alcotest.(check bool) "latches non-increasing" true
        (Circuit.latch_count twice <= Circuit.latch_count once);
      compare_exact once twice ~cycles:15 ~trials:5)

let test_rebalance_preserves () =
  random_cases ~n:30 ~enables:true (fun c ->
      compare_exact c (Rebalance.run c) ~cycles:25 ~trials:10)

let test_rebalance_library () =
  random_cases ~n:15 ~enables:false (fun c ->
      let o = Rebalance.run c in
      List.iter
        (fun g ->
          match Circuit.driver o g with
          | Gate ((Nand | Not | Const _), _) -> ()
          | Gate (fn, _) ->
              Alcotest.fail
                (Printf.sprintf "gate %s outside INV/NAND2 library"
                   (match fn with
                   | And -> "and"
                   | Or -> "or"
                   | Nor -> "nor"
                   | Xor -> "xor"
                   | Xnor -> "xnor"
                   | Mux -> "mux"
                   | Buf -> "buf"
                   | Nand | Not | Const _ -> assert false))
          | Undriven | Input | Latch _ -> assert false)
        (Circuit.gates o);
      (* NAND arity 2 *)
      List.iter
        (fun g ->
          match Circuit.driver o g with
          | Gate (Nand, fs) -> Alcotest.(check int) "nand2" 2 (Array.length fs)
          | _ -> ())
        (Circuit.gates o))

let test_rebalance_reduces_chains () =
  (* a long unbalanced AND chain must come back near-logarithmic *)
  let c = Circuit.create "chain" in
  let n = 32 in
  let ins = List.init n (fun i -> Circuit.add_input c (Printf.sprintf "x%d" i)) in
  let acc = List.fold_left (fun acc x -> Circuit.add_gate c And [ acc; x ]) (List.hd ins) (List.tl ins) in
  Circuit.mark_output c acc;
  Circuit.check c;
  Alcotest.(check int) "chain depth" (n - 1) (Circuit.delay c);
  let o = Rebalance.run c in
  (* balanced AND tree of 32 leaves: 5 AND levels = 10 in NAND/INV *)
  Alcotest.(check bool) "balanced" true (Circuit.delay o <= 11);
  compare_exact c o ~cycles:3 ~trials:5

let test_script_preserves () =
  random_cases ~n:25 ~enables:true (fun c ->
      compare_exact c (Synth_script.delay_script c) ~cycles:25 ~trials:8)

let test_script_fanout_limited () =
  random_cases ~n:15 ~enables:false (fun c ->
      let o = Synth_script.delay_script c in
      Alcotest.(check bool) "fanout <= 4" true (Fanout_pass.max_fanout o <= 4))

let test_fanout_pass_preserves () =
  random_cases ~n:15 ~enables:true (fun c ->
      let o = Fanout_pass.run ~max_fanout:3 c in
      Alcotest.(check bool) "fanout <= 3" true (Fanout_pass.max_fanout o <= 3);
      compare_exact c o ~cycles:20 ~trials:6)

let test_fanout_pass_arg_check () =
  let c = Gen.comb st ~name:"fo" ~inputs:2 ~gates:5 ~outputs:1 in
  try
    ignore (Fanout_pass.run ~max_fanout:1 c);
    Alcotest.fail "max_fanout 1 accepted"
  with Invalid_argument _ -> ()

let test_script_equivalence_by_cec () =
  (* combinational circuits: the checker itself confirms the script *)
  for i = 1 to 15 do
    let c = Gen.comb st ~name:(Printf.sprintf "cc%d" i) ~inputs:4 ~gates:40 ~outputs:2 in
    let o = Synth_script.delay_script c in
    match cec c o with
    | Cec.Equivalent -> ()
    | Cec.Inequivalent _ -> Alcotest.fail "script broke a combinational circuit"
    | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let suite =
  [
    Alcotest.test_case "sweep preserves function" `Quick test_sweep_preserves;
    Alcotest.test_case "sweep removes dead logic" `Quick test_sweep_removes_dead;
    Alcotest.test_case "sweep folds constants" `Quick test_sweep_constants;
    Alcotest.test_case "sweep monotone" `Quick test_sweep_monotone;
    Alcotest.test_case "rebalance preserves function" `Quick test_rebalance_preserves;
    Alcotest.test_case "rebalance emits INV/NAND2" `Quick test_rebalance_library;
    Alcotest.test_case "rebalance flattens chains" `Quick test_rebalance_reduces_chains;
    Alcotest.test_case "delay script preserves function" `Quick test_script_preserves;
    Alcotest.test_case "delay script limits fanout" `Quick test_script_fanout_limited;
    Alcotest.test_case "fanout pass preserves + limits" `Quick test_fanout_pass_preserves;
    Alcotest.test_case "fanout pass arg check" `Quick test_fanout_pass_arg_check;
    Alcotest.test_case "script equivalent by CEC" `Quick test_script_equivalence_by_cec;
  ]

(* ---- redundancy removal ---- *)

let test_redundancy_finds_seeded () =
  (* plant an untestable connection: g = x AND (x OR y) — the y input of the
     OR is redundant (absorption), as is the whole OR *)
  let c = Circuit.create "red" in
  let x = Circuit.add_input c "x" in
  let y = Circuit.add_input c "y" in
  let o = Circuit.add_gate c Or [ x; y ] in
  let g = Circuit.add_gate c And [ x; o ] in
  Circuit.mark_output c g;
  Circuit.check c;
  let out, report = Redundancy.run c in
  Alcotest.(check bool) "found redundancy" true (report.Redundancy.removed >= 1);
  Alcotest.(check bool) "area reduced" true
    (report.Redundancy.area_after < report.Redundancy.area_before);
  (* function preserved: g = x *)
  compare_exact c out ~cycles:4 ~trials:4

let test_redundancy_preserves () =
  random_cases ~n:10 ~enables:true (fun c ->
      let out, report = Redundancy.run ~max_rounds:10 c in
      Alcotest.(check bool) "area non-increasing" true
        (Circuit.area out <= Circuit.area c);
      ignore report;
      compare_exact c out ~cycles:20 ~trials:6)

let test_redundancy_irredundant_fixpoint () =
  (* a xor chain has no stuck-at redundancy: nothing to remove *)
  let c = Circuit.create "irr" in
  let xs = List.init 5 (fun i -> Circuit.add_input c (Printf.sprintf "x%d" i)) in
  let acc = List.fold_left (fun acc x -> Circuit.add_gate c Xor [ acc; x ]) (List.hd xs) (List.tl xs) in
  Circuit.mark_output c acc;
  Circuit.check c;
  let _, report = Redundancy.run c in
  Alcotest.(check int) "nothing removed" 0 report.Redundancy.removed

let test_comb_view () =
  let c = Circuit.create "cv" in
  let a = Circuit.add_input c "a" in
  let q = Circuit.add_latch c ~data:(Circuit.add_gate c Not [ a ]) () in
  Circuit.mark_output c (Circuit.add_gate c And [ q; a ]);
  Circuit.check c;
  let v = Comb_view.of_sequential c in
  Alcotest.(check int) "no latches" 0 (Circuit.latch_count v);
  Alcotest.(check int) "inputs = PIs + latches" 2 (List.length (Circuit.inputs v));
  Alcotest.(check int) "outputs = POs + data" 2 (List.length (Circuit.outputs v))

let suite =
  suite
  @ [
      Alcotest.test_case "redundancy: seeded" `Quick test_redundancy_finds_seeded;
      Alcotest.test_case "redundancy: preserves function" `Quick test_redundancy_preserves;
      Alcotest.test_case "redundancy: irredundant fixpoint" `Quick test_redundancy_irredundant_fixpoint;
      Alcotest.test_case "comb view" `Quick test_comb_view;
    ]

(* ---- cut-based AIG rewriting ---- *)

let test_cut_enumeration () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g and c = Aig.input g in
  let x = Aig.and_ g a b in
  let y = Aig.and_ g x c in
  let cs = Aig_rewrite.cuts g ~node:(Aig.node_of y) ~max_leaves:4 ~max_cuts:8 in
  (* trivial cut present *)
  Alcotest.(check bool) "trivial cut" true (List.mem [ Aig.node_of y ] cs);
  (* the {a,b,c} leaf cut present *)
  let leaf_cut = List.sort compare [ Aig.node_of a; Aig.node_of b; Aig.node_of c ] in
  Alcotest.(check bool) "full leaf cut" true (List.mem leaf_cut cs)

let test_truth_table () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  let x = Aig.and_ g a (Aig.neg b) in
  let tt =
    Aig_rewrite.truth_table g ~node:(Aig.node_of x)
      ~leaves:[ Aig.node_of a; Aig.node_of b ]
  in
  (* a AND NOT b: assignments m: bit0 = a, bit1 = b; true at m=1 (a=1,b=0),
     replicated across the upper bits *)
  Alcotest.(check int) "a & ~b" (0x2222) (tt land 0xFFFF)

let test_rewrite_preserves_function () =
  for i = 1 to 20 do
    let c =
      Gen.comb st ~name:(Printf.sprintf "rw%d" i) ~inputs:4
        ~gates:(20 + Random.State.int st 60)
        ~outputs:2
    in
    let options = { Synth_script.default_options with rewrite = true } in
    let o = Synth_script.delay_script ~options c in
    match cec c o with
    | Cec.Equivalent -> ()
    | Cec.Inequivalent _ -> Alcotest.fail "rewrite broke a circuit"
    | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let test_rewrite_sequential_preserves () =
  random_cases ~n:10 ~enables:true (fun c ->
      let options = { Synth_script.default_options with rewrite = true } in
      compare_exact c (Synth_script.delay_script ~options c) ~cycles:20 ~trials:6)

let test_rewrite_compacts_redundant_logic () =
  (* (a AND b) OR (a AND b) duplicated via distinct structure: rewriting
     collapses to the shared form (strash alone cannot see through the
     different shapes) *)
  let c = Circuit.create "dup" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let t1 = Circuit.add_gate c And [ a; b ] in
  (* same function, different structure: ~(~a | ~b) *)
  let t2 =
    Circuit.add_gate c Nor
      [ Circuit.add_gate c Not [ a ]; Circuit.add_gate c Not [ b ] ]
  in
  Circuit.mark_output c (Circuit.add_gate c Or [ t1; t2 ]);
  Circuit.check c;
  let options = { Synth_script.rewrite = true; fanout_limit = None } in
  let o = Synth_script.delay_script ~options c in
  (* a AND b needs 1 NAND + 1 INV *)
  Alcotest.(check bool) "collapsed" true (Circuit.area o <= 2);
  match cec c o with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.fail "collapse broke it"
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

let suite =
  suite
  @ [
      Alcotest.test_case "cut enumeration" `Quick test_cut_enumeration;
      Alcotest.test_case "truth tables" `Quick test_truth_table;
      Alcotest.test_case "rewrite preserves (comb)" `Quick test_rewrite_preserves_function;
      Alcotest.test_case "rewrite preserves (seq)" `Quick test_rewrite_sequential_preserves;
      Alcotest.test_case "rewrite compacts logic" `Quick test_rewrite_compacts_redundant_logic;
    ]
