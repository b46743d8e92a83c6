(* Netlist data structure, validation, topo order, I/O round-trips. *)

let st = Random.State.make [| 0xC1C |]

let test_builder_basic () =
  let c = Circuit.create "adder_bit" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let cin = Circuit.add_input c "cin" in
  let s1 = Circuit.add_gate c Xor [ a; b ] in
  let sum = Circuit.add_gate c Xor [ s1; cin ] in
  let c1 = Circuit.add_gate c And [ a; b ] in
  let c2 = Circuit.add_gate c And [ s1; cin ] in
  let cout = Circuit.add_gate c Or [ c1; c2 ] in
  Circuit.mark_output c sum;
  Circuit.mark_output c cout;
  Circuit.check c;
  Alcotest.(check int) "inputs" 3 (List.length (Circuit.inputs c));
  Alcotest.(check int) "outputs" 2 (List.length (Circuit.outputs c));
  Alcotest.(check int) "area" 5 (Circuit.area c);
  Alcotest.(check int) "delay" 3 (Circuit.delay c);
  Alcotest.(check int) "latches" 0 (Circuit.latch_count c)

let test_undriven_rejected () =
  let c = Circuit.create "bad" in
  let x = Circuit.declare c ~name:"x" () in
  Circuit.mark_output c x;
  Alcotest.check_raises "undriven"
    (Invalid_argument "Circuit.check: undriven signal x") (fun () -> Circuit.check c)

let test_comb_cycle_rejected () =
  let c = Circuit.create "cyc" in
  let x = Circuit.declare c ~name:"x" () in
  let y = Circuit.add_gate c Not [ x ] in
  Circuit.set_gate c x Not [| y |];
  Circuit.mark_output c x;
  (try
     Circuit.check c;
     Alcotest.fail "cycle accepted"
   with Invalid_argument _ -> ())

let test_latch_breaks_cycle () =
  let c = Circuit.create "lcyc" in
  let q = Circuit.declare c ~name:"q" () in
  let nq = Circuit.add_gate c Not [ q ] in
  Circuit.set_latch c q ~data:nq ();
  Circuit.mark_output c q;
  Circuit.check c;
  Alcotest.(check int) "one latch" 1 (Circuit.latch_count c)

let test_arity_checks () =
  let c = Circuit.create "ar" in
  let a = Circuit.add_input c "a" in
  Alcotest.check_raises "not arity" (Invalid_argument "Circuit.set_gate: bad arity for not")
    (fun () -> ignore (Circuit.add_gate c Not [ a; a ]));
  Alcotest.check_raises "mux arity" (Invalid_argument "Circuit.set_gate: bad arity for mux")
    (fun () -> ignore (Circuit.add_gate c Mux [ a; a ]))

let test_double_drive_rejected () =
  let c = Circuit.create "dd" in
  let a = Circuit.add_input c "a" in
  let g = Circuit.add_gate c Not [ a ] in
  (try
     Circuit.set_gate c g Buf [| a |];
     Alcotest.fail "double drive accepted"
   with Invalid_argument _ -> ())

let test_names () =
  let c = Circuit.create "nm" in
  let a = Circuit.add_input c "a" in
  Alcotest.(check (option int)) "find" (Some a) (Circuit.find_signal c "a");
  Alcotest.(check string) "name" "a" (Circuit.signal_name c a);
  (try
     ignore (Circuit.add_input c "a");
     Alcotest.fail "duplicate name accepted"
   with Invalid_argument _ -> ())

let test_topo_respects_fanins () =
  for _ = 1 to 30 do
    let c =
      Gen.acyclic st ~name:"t" ~inputs:3 ~gates:40 ~latches:5 ~outputs:2 ~enables:false
    in
    let order = Circuit.comb_topo c in
    let pos = Hashtbl.create 64 in
    List.iteri (fun i s -> Hashtbl.replace pos s i) order;
    List.iter
      (fun s ->
        match Circuit.driver c s with
        | Gate (_, fs) ->
            Array.iter
              (fun f ->
                match Circuit.driver c f with
                | Gate _ ->
                    Alcotest.(check bool) "fanin first" true
                      (Hashtbl.find pos f < Hashtbl.find pos s)
                | Undriven | Input | Latch _ -> ())
              fs
        | Undriven | Input | Latch _ -> ())
      order
  done

let test_fanout_counts () =
  let c = Circuit.create "fo" in
  let a = Circuit.add_input c "a" in
  let g1 = Circuit.add_gate c Not [ a ] in
  let g2 = Circuit.add_gate c And [ a; g1 ] in
  Circuit.mark_output c g2;
  Circuit.mark_output c a;
  let counts = Circuit.fanout_counts c in
  Alcotest.(check int) "a used 3x (2 gates + output)" 3 counts.(a);
  Alcotest.(check int) "g1 used once" 1 counts.(g1);
  Alcotest.(check int) "g2 output only" 1 counts.(g2)

let test_cone () =
  let c = Circuit.create "cone" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let q = Circuit.add_latch c ~data:a () in
  let g1 = Circuit.add_gate c And [ q; b ] in
  let g2 = Circuit.add_gate c Not [ a ] in
  Circuit.mark_output c g1;
  let marked = Circuit.cone c [ g1 ] in
  Alcotest.(check bool) "g1 in" true marked.(g1);
  Alcotest.(check bool) "latch in (as leaf)" true marked.(q);
  Alcotest.(check bool) "a not reached through latch" false marked.(a);
  Alcotest.(check bool) "g2 out" false marked.(g2);
  let seq = Circuit.seq_cone c [ g1 ] in
  Alcotest.(check bool) "seq cone through latch" true seq.(a)

let test_extract () =
  let c = Circuit.create "xt" in
  let a = Circuit.add_input c "a" in
  let b = Circuit.add_input c "b" in
  let g1 = Circuit.add_gate c Not [ a ] in
  let dead = Circuit.add_gate c And [ a; b ] in
  ignore dead;
  Circuit.mark_output c g1;
  let nc, _map = Circuit.extract c ~keep_outputs:[ g1 ] in
  Circuit.check nc;
  Alcotest.(check int) "only live gate kept" 1 (Circuit.area nc);
  Alcotest.(check int) "only used input kept" 1 (List.length (Circuit.inputs nc))

let test_netlist_roundtrip () =
  for i = 1 to 25 do
    let c =
      Gen.acyclic st
        ~name:(Printf.sprintf "rt%d" i)
        ~inputs:(1 + Random.State.int st 4)
        ~gates:(5 + Random.State.int st 40)
        ~latches:(Random.State.int st 6)
        ~outputs:(1 + Random.State.int st 3)
        ~enables:(i mod 2 = 0)
    in
    let text = Netlist_io.to_string c in
    let c2 = Netlist_io.parse text in
    Alcotest.(check string) "name" (Circuit.name c) (Circuit.name c2);
    Alcotest.(check int) "inputs" (List.length (Circuit.inputs c))
      (List.length (Circuit.inputs c2));
    Alcotest.(check int) "latches" (Circuit.latch_count c) (Circuit.latch_count c2);
    Alcotest.(check int) "area" (Circuit.area c) (Circuit.area c2);
    (* round-tripping again preserves the interface exactly *)
    let c3 = Netlist_io.parse (Netlist_io.to_string c2) in
    Alcotest.(check (list string)) "output names stable"
      (List.map (Circuit.signal_name c2) (Circuit.outputs c2))
      (List.map (Circuit.signal_name c3) (Circuit.outputs c3));
    Alcotest.(check int) "area stable" (Circuit.area c2) (Circuit.area c3);
    (* behavioural identity on random runs (match power-up by latch name;
       the parser may renumber) *)
    let inputs = Gen.random_inputs st c ~cycles:10 in
    let names1 = List.map (Circuit.signal_name c) (Circuit.latches c) in
    let names2 = List.map (Circuit.signal_name c2) (Circuit.latches c2) in
    let init1 = Array.init (List.length names1) (fun _ -> Random.State.bool st) in
    let init2 =
      Array.of_list
        (List.map
           (fun n ->
             let rec find i = function
               | [] -> false
               | m :: _ when m = n -> init1.(i)
               | _ :: tl -> find (i + 1) tl
             in
             find 0 names1)
           names2)
    in
    let t1 = Sim.run c ~init:init1 ~inputs in
    let t2 = Sim.run c2 ~init:init2 ~inputs in
    Alcotest.(check bool) "same behaviour" true (t1 = t2)
  done

let test_parse_errors () =
  (try
     ignore (Netlist_io.parse ".model m\n.gate frobnicate x y\n.end");
     Alcotest.fail "bad gate accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Netlist_io.parse ".model m\nnonsense line\n.end");
    Alcotest.fail "bad line accepted"
  with Invalid_argument _ -> ()

let test_gate_eval_semantics () =
  let vs2 = [ [| false; false |]; [| false; true |]; [| true; false |]; [| true; true |] ] in
  List.iter
    (fun vs ->
      let a = vs.(0) and b = vs.(1) in
      Alcotest.(check bool) "and" (a && b) (Eval.gate_eval And vs);
      Alcotest.(check bool) "or" (a || b) (Eval.gate_eval Or vs);
      Alcotest.(check bool) "nand" (not (a && b)) (Eval.gate_eval Nand vs);
      Alcotest.(check bool) "nor" (not (a || b)) (Eval.gate_eval Nor vs);
      Alcotest.(check bool) "xor" (a <> b) (Eval.gate_eval Xor vs);
      Alcotest.(check bool) "xnor" (a = b) (Eval.gate_eval Xnor vs))
    vs2;
  Alcotest.(check bool) "mux t" true (Eval.gate_eval Mux [| true; true; false |]);
  Alcotest.(check bool) "mux e" false (Eval.gate_eval Mux [| false; true; false |]);
  Alcotest.(check bool) "const" true (Eval.gate_eval (Const true) [||]);
  (* n-ary parity *)
  Alcotest.(check bool) "xor3" true (Eval.gate_eval Xor [| true; true; true |])

let suite =
  [
    Alcotest.test_case "builder basics" `Quick test_builder_basic;
    Alcotest.test_case "undriven rejected" `Quick test_undriven_rejected;
    Alcotest.test_case "combinational cycle rejected" `Quick test_comb_cycle_rejected;
    Alcotest.test_case "latch breaks cycle" `Quick test_latch_breaks_cycle;
    Alcotest.test_case "arity checks" `Quick test_arity_checks;
    Alcotest.test_case "double drive rejected" `Quick test_double_drive_rejected;
    Alcotest.test_case "names" `Quick test_names;
    Alcotest.test_case "topo respects fanins" `Quick test_topo_respects_fanins;
    Alcotest.test_case "fanout counts" `Quick test_fanout_counts;
    Alcotest.test_case "cone vs seq_cone" `Quick test_cone;
    Alcotest.test_case "extract" `Quick test_extract;
    Alcotest.test_case "netlist IO roundtrip" `Quick test_netlist_roundtrip;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "gate semantics" `Quick test_gate_eval_semantics;
  ]
