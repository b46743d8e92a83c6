(* Clocked Boolean Functions: the Fig. 2/3 examples, unrolling mechanics,
   and Theorem 5.1 (CBF equality <=> exact 3-valued equivalence, past the
   pipeline-fill transient) validated on random acyclic circuits. *)

let st = Random.State.make [| 0xCBF |]

(* verdict of the combinational check of two circuits *)
let cec c1 c2 = fst (Cec.check_problem_with_stats (Cec.of_circuits c1 c2))

(* Fig. 2(c): latch followed by AND gate: x(t) = y(t-1)z(t-1) ... the latch
   sits before the AND here: w(t) = y(t-1) AND z(t-1). *)
let test_fig2 () =
  let c = Circuit.create "fig2c" in
  let y = Circuit.add_input c "y" in
  let z = Circuit.add_input c "z" in
  let x = Circuit.add_gate c And [ y; z ] in
  let w = Circuit.add_latch c ~data:x () in
  Circuit.mark_output c w;
  Circuit.check c;
  let u, info = Cbf.unroll_netlist c in
  Alcotest.(check int) "depth 1" 1 info.Cbf.depth;
  Alcotest.(check int) "two variables" 2 info.Cbf.variables;
  (* reference: w(t) = y(t-1) /\ z(t-1) *)
  let r = Circuit.create "ref" in
  let y1 = Circuit.add_input r (Cbf.var_name "y" 1) in
  let z1 = Circuit.add_input r (Cbf.var_name "z" 1) in
  Circuit.mark_output r (Circuit.add_gate r And [ y1; z1 ]);
  Circuit.check r;
  match cec u r with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.fail "fig2 CBF wrong"
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

(* Fig. 3: latch trapped in a combinational block.
   b(t) = a(t-1); c(t) = b(t)a(t); d(t) = c(t-1); o = c(t)d(t)
   => o(t) = [a(t-1) /\ a(t)] /\ [a(t-2) /\ a(t-1)] *)
let test_fig3 () =
  let c = Circuit.create "fig3" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_latch c ~data:a () in
  let cc = Circuit.add_gate c And [ b; a ] in
  let d = Circuit.add_latch c ~data:cc () in
  let o = Circuit.add_gate c And [ cc; d ] in
  Circuit.mark_output c o;
  Circuit.check c;
  let u, info = Cbf.unroll_netlist c in
  Alcotest.(check int) "depth 2" 2 info.Cbf.depth;
  Alcotest.(check int) "three variables" 3 info.Cbf.variables;
  let r = Circuit.create "ref3" in
  let a0 = Circuit.add_input r (Cbf.var_name "a" 0) in
  let a1 = Circuit.add_input r (Cbf.var_name "a" 1) in
  let a2 = Circuit.add_input r (Cbf.var_name "a" 2) in
  Circuit.mark_output r (Circuit.add_gate r And [ a1; a0; a2; a1 ]);
  Circuit.check r;
  match cec u r with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.fail "fig3 CBF wrong"
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_unroll_is_combinational () =
  for i = 1 to 20 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "uc%d" i) ~inputs:3 ~gates:30 ~latches:5
        ~outputs:2 ~enables:false
    in
    let u, info = Cbf.unroll_netlist c in
    Alcotest.(check int) "no latches" 0 (Circuit.latch_count u);
    Alcotest.(check int) "outputs preserved" (List.length (Circuit.outputs c))
      (List.length (Circuit.outputs u));
    Alcotest.(check bool) "depth bounded by latch count" true
      (info.Cbf.depth <= Circuit.latch_count c);
    Alcotest.(check bool) "depth = sequential depth" true
      (info.Cbf.depth <= Cbf.sequential_depth c)
  done

let test_unroll_rejects_feedback () =
  let c = Gen.feedback st ~name:"fb" ~inputs:2 ~gates:10 ~latches:2 ~outputs:1 in
  (* only if an actual cycle exists *)
  let g, _ = Feedback.latch_graph c in
  if not (Vgraph.Topo.is_acyclic g) then
    try
      ignore (Cbf.unroll_netlist c);
      Alcotest.fail "cycle accepted"
    with Invalid_argument _ -> ()

let test_unroll_rejects_hidden_enables () =
  let c = Circuit.create "he" in
  let d = Circuit.add_input c "d" in
  let e = Circuit.add_input c "e" in
  let q = Circuit.add_latch c ~enable:e ~data:d () in
  Circuit.mark_output c q;
  Circuit.check c;
  try
    ignore (Cbf.unroll_netlist c);
    Alcotest.fail "enabled latch accepted"
  with Invalid_argument _ -> ()

(* semantic correctness: the unrolled circuit evaluated on a window of the
   input trace equals the sequential output once the pipeline is full *)
let test_unroll_semantics () =
  for i = 1 to 25 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "us%d" i) ~inputs:3 ~gates:25 ~latches:4
        ~outputs:2 ~enables:false
    in
    let u, info = Cbf.unroll_netlist c in
    let d = info.Cbf.depth in
    let cycles = d + 6 in
    let seq = Gen.random_inputs st c ~cycles in
    let trace = Sim.run c ~init:(Array.make (Circuit.latch_count c) false) ~inputs:seq in
    let input_names = List.map (Circuit.signal_name c) (Circuit.inputs c) in
    for t = d to cycles - 1 do
      (* window assignment: var "i@k" = input i at cycle t-k *)
      let source s =
        let n = Circuit.signal_name u s in
        match String.rindex_opt n '@' with
        | None -> false
        | Some j ->
            let base = String.sub n 0 j in
            let k = int_of_string (String.sub n (j + 1) (String.length n - j - 1)) in
            let vec = List.nth seq (t - k) in
            let rec find idx = function
              | [] -> false
              | m :: _ when m = base -> vec.(idx)
              | _ :: tl -> find (idx + 1) tl
            in
            find 0 input_names
      in
      let values = Eval.comb_eval u ~source in
      let got = List.map (fun o -> values.(o)) (Circuit.outputs u) in
      let expected = Array.to_list (List.nth trace t) in
      if got <> expected then Alcotest.fail "CBF window semantics differ"
    done
  done

(* Theorem 5.1, both directions, on random pairs *)
let test_theorem_5_1 () =
  for i = 1 to 20 do
    let c1 =
      Gen.acyclic st ~name:(Printf.sprintf "tA%d" i) ~inputs:2 ~gates:15
        ~latches:(1 + Random.State.int st 3) ~outputs:1 ~enables:false
    in
    let c2 =
      if i mod 2 = 0 then Gen.demorganize c1
      else
        Gen.acyclic st ~name:(Printf.sprintf "tB%d" i) ~inputs:2 ~gates:15
          ~latches:(1 + Random.State.int st 3) ~outputs:1 ~enables:false
    in
    let u1, i1 = Cbf.unroll_netlist c1 in
    let u2, i2 = Cbf.unroll_netlist c2 in
    let cbf_equal = cec u1 u2 = Cec.Equivalent in
    (* exact 3-valued equivalence past the fill transient, sampled *)
    let depth = max i1.Cbf.depth i2.Cbf.depth in
    let cycles = depth + 5 in
    let seqs = List.init 30 (fun _ -> Gen.random_inputs st c1 ~cycles) in
    let sim_equal =
      List.for_all
        (fun seq ->
          let t1 = Sim.run_exact c1 ~inputs:seq in
          let t2 = Sim.run_exact c2 ~inputs:seq in
          List.for_all2
            (fun a b -> Array.for_all2 Sim.tv_equal a b)
            (List.filteri (fun t _ -> t >= depth) t1)
            (List.filteri (fun t _ -> t >= depth) t2))
        seqs
    in
    if cbf_equal && not sim_equal then Alcotest.fail "CBF-equal but behaviour differs";
    if (not cbf_equal) && sim_equal then begin
      (* simulation sampling may just have missed the difference; confirm
         the counterexample instead *)
      match cec u1 u2 with
      | Cec.Inequivalent cex ->
          Alcotest.(check bool) "counterexample is real" true
            (Cec.counterexample_is_valid u1 u2 cex)
      | Cec.Equivalent | Cec.Undecided _ -> assert false
    end
  done

let test_retime_synth_preserves_cbf () =
  (* the headline: arbitrary retiming + synthesis keeps the CBF *)
  for i = 1 to 15 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "rs%d" i) ~inputs:3 ~gates:40
        ~latches:(2 + Random.State.int st 5) ~outputs:2 ~enables:false
    in
    let o, _ = Retime.min_period (Synth_script.delay_script c) in
    let o2, _ = Retime.min_area (Synth_script.delay_script o) in
    let u1, _ = Cbf.unroll_netlist c in
    let u2, _ = Cbf.unroll_netlist o2 in
    match cec u1 u2 with
    | Cec.Equivalent -> ()
    | Cec.Inequivalent _ -> Alcotest.fail "retime+synth changed the CBF"
    | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let test_exposed_latch_cbf () =
  (* exposing turns latch outputs into variables and data cones into
     outputs; a feedback circuit becomes unrollable *)
  let c = Circuit.create "exp" in
  let a = Circuit.add_input c "a" in
  let q = Circuit.declare c ~name:"q" () in
  let nq = Circuit.add_gate c Xor [ q; a ] in
  Circuit.set_latch c q ~data:nq ();
  Circuit.mark_output c nq;
  Circuit.check c;
  let exposed s = Circuit.signal_name c s = "q" in
  let u, info = Cbf.unroll_netlist ~exposed c in
  Alcotest.(check int) "no latches" 0 (Circuit.latch_count u);
  (* outputs: original PO + q's next-state function *)
  Alcotest.(check int) "outputs" 2 (List.length (Circuit.outputs u));
  Alcotest.(check int) "depth 0" 0 info.Cbf.depth

let test_depth_mismatch_detected () =
  (* Lemma 5.1: different sequential depths => inequivalent; the CBF check
     must catch it through the extra variable *)
  let mk n name =
    let c = Circuit.create name in
    let a = Circuit.add_input c "a" in
    let s = ref a in
    for _ = 1 to n do
      s := Circuit.add_latch c ~data:!s ()
    done;
    Circuit.mark_output c !s;
    Circuit.check c;
    c
  in
  let c1 = mk 1 "d1" and c2 = mk 2 "d2" in
  let u1, _ = Cbf.unroll_netlist c1 in
  let u2, _ = Cbf.unroll_netlist c2 in
  match cec u1 u2 with
  | Cec.Equivalent -> Alcotest.fail "depth mismatch missed"
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r
  | Cec.Inequivalent cex ->
      Alcotest.(check bool) "valid cex" true (Cec.counterexample_is_valid u1 u2 cex)

let suite =
  [
    Alcotest.test_case "Fig. 2 CBF" `Quick test_fig2;
    Alcotest.test_case "Fig. 3 trapped latch" `Quick test_fig3;
    Alcotest.test_case "unroll produces combinational" `Quick test_unroll_is_combinational;
    Alcotest.test_case "unroll rejects feedback" `Quick test_unroll_rejects_feedback;
    Alcotest.test_case "unroll rejects hidden enables" `Quick test_unroll_rejects_hidden_enables;
    Alcotest.test_case "window semantics" `Quick test_unroll_semantics;
    Alcotest.test_case "Theorem 5.1" `Quick test_theorem_5_1;
    Alcotest.test_case "retime+synth preserves CBF" `Quick test_retime_synth_preserves_cbf;
    Alcotest.test_case "exposed latches" `Quick test_exposed_latch_cbf;
    Alcotest.test_case "depth mismatch (Lemma 5.1)" `Quick test_depth_mismatch_detected;
  ]

let test_functional_depth () =
  (* q XOR q cancels: topological latch depth 1, functional depth 0 *)
  let c = Circuit.create "fd" in
  let a = Circuit.add_input c "a" in
  let q = Circuit.add_latch c ~data:a () in
  Circuit.mark_output c (Circuit.add_gate c Xor [ q; q ]);
  Circuit.check c;
  Alcotest.(check int) "topological" 1 (Cbf.sequential_depth c);
  Alcotest.(check int) "functional" 0 (Result.get_ok (Cbf.functional_depth c));
  (* a real dependency keeps the depth *)
  let c2 = Circuit.create "fd2" in
  let a = Circuit.add_input c2 "a" in
  let q1 = Circuit.add_latch c2 ~data:a () in
  let q2 = Circuit.add_latch c2 ~data:q1 () in
  Circuit.mark_output c2 (Circuit.add_gate c2 Not [ q2 ]);
  Circuit.check c2;
  Alcotest.(check int) "true depth" 2 (Result.get_ok (Cbf.functional_depth c2));
  (* functional <= topological always *)
  for i = 1 to 10 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "fdp%d" i) ~inputs:3 ~gates:20 ~latches:4
        ~outputs:2 ~enables:false
    in
    Alcotest.(check bool) "bounded" true
      (Result.get_ok (Cbf.functional_depth c) <= Cbf.sequential_depth c)
  done

let suite = suite @ [ Alcotest.test_case "functional depth (Def. 4)" `Quick test_functional_depth ]
