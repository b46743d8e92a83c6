(* AIG: structural hashing, simulation, CNF export, circuit compilation. *)

let st = Random.State.make [| 0xA16 |]

let test_constant_folding () =
  let g = Aig.create () in
  let a = Aig.input g in
  Alcotest.(check int) "a & 0" Aig.lit_false (Aig.and_ g a Aig.lit_false);
  Alcotest.(check int) "a & 1" a (Aig.and_ g a Aig.lit_true);
  Alcotest.(check int) "a & a" a (Aig.and_ g a a);
  Alcotest.(check int) "a & ~a" Aig.lit_false (Aig.and_ g a (Aig.neg a));
  Alcotest.(check int) "~~a" a (Aig.neg (Aig.neg a))

let test_strashing () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  let x = Aig.and_ g a b in
  let y = Aig.and_ g b a in
  Alcotest.(check int) "commutative strash" x y;
  let n0 = Aig.node_count g in
  ignore (Aig.and_ g a b);
  Alcotest.(check int) "no new node" n0 (Aig.node_count g)

let test_derived_ops () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g and c = Aig.input g in
  let cases = [ (false, false); (false, true); (true, false); (true, true) ] in
  List.iter
    (fun (va, vb) ->
      List.iter
        (fun vc ->
          let env = [| va; vb; vc |] in
          Alcotest.(check bool) "or" (va || vb) (Aig.eval g env (Aig.or_ g a b));
          Alcotest.(check bool) "xor" (va <> vb) (Aig.eval g env (Aig.xor_ g a b));
          Alcotest.(check bool) "mux"
            (if va then vb else vc)
            (Aig.eval g env (Aig.mux g a b c)))
        [ false; true ])
    cases

let test_simulate_parallel () =
  (* 64-bit parallel simulation agrees with single evaluation *)
  for _ = 1 to 20 do
    let g = Aig.create () in
    let n_in = 2 + Random.State.int st 4 in
    let ins = List.init n_in (fun _ -> Aig.input g) in
    let pool = ref ins in
    for _ = 1 to 30 do
      let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
      let l1 = pick () and l2 = pick () in
      let l1 = if Random.State.bool st then Aig.neg l1 else l1 in
      pool := Aig.and_ g l1 l2 :: !pool
    done;
    let root = List.hd !pool in
    let words = Array.init n_in (fun _ -> Random.State.int64 st Int64.max_int) in
    let vals = Aig.simulate g words in
    let w = Aig.sim_lit vals root in
    for bit = 0 to 63 do
      let env = Array.map (fun word -> Int64.logand (Int64.shift_right_logical word bit) 1L = 1L) words in
      let expected = Aig.eval g env root in
      let got = Int64.logand (Int64.shift_right_logical w bit) 1L = 1L in
      Alcotest.(check bool) "parallel bit" expected got
    done
  done

let test_cnf_equisatisfiable () =
  (* CNF of a cone: for every input assignment, SAT with unit assumptions
     must agree with direct evaluation of the root *)
  for _ = 1 to 30 do
    let g = Aig.create () in
    let n_in = 2 + Random.State.int st 3 in
    let ins = List.init n_in (fun _ -> Aig.input g) in
    let pool = ref ins in
    for _ = 1 to 15 do
      let pick () = List.nth !pool (Random.State.int st (List.length !pool)) in
      let l1 = pick () and l2 = pick () in
      let l1 = if Random.State.bool st then Aig.neg l1 else l1 in
      pool := Aig.and_ g l1 l2 :: !pool
    done;
    let root = List.hd !pool in
    let m = Cnf_oracle.to_cnf g ~roots:[ root ] in
    for mask = 0 to (1 lsl n_in) - 1 do
      let env = Array.init n_in (fun i -> mask land (1 lsl i) <> 0) in
      let expected = Aig.eval g env root in
      (* assume all inputs in the cone plus the root's value *)
      let assumptions = ref [] in
      List.iteri
        (fun i l ->
          match Cnf_oracle.cnf_lit m l with
          | v -> assumptions := (if env.(i) then v else -v) :: !assumptions
          | exception Invalid_argument _ -> () (* input not in cone *))
        ins;
      let rl = Cnf_oracle.cnf_lit m root in
      let sat_true =
        Sat.solve ~assumptions:(rl :: !assumptions) m.Cnf_oracle.solver = Sat.Sat
      in
      let sat_false =
        Sat.solve ~assumptions:(-rl :: !assumptions) m.Cnf_oracle.solver = Sat.Sat
      in
      Alcotest.(check bool) "cnf agrees (true)" expected sat_true;
      Alcotest.(check bool) "cnf agrees (false)" (not expected) sat_false
    done
  done

let test_of_circuit_comb () =
  for _ = 1 to 30 do
    let c = Gen.comb st ~name:"aigc" ~inputs:(2 + Random.State.int st 4) ~gates:30 ~outputs:2 in
    let g = Aig.create () in
    let input_lits = Hashtbl.create 8 in
    let source s =
      match Hashtbl.find_opt input_lits s with
      | Some l -> l
      | None ->
          let l = Aig.input g in
          Hashtbl.replace input_lits s l;
          l
    in
    let env = Aig.of_circuit_comb g c ~source in
    (* compare on random assignments *)
    let ins = Circuit.inputs c in
    for _ = 1 to 20 do
      let values = List.map (fun _ -> Random.State.bool st) ins in
      let tbl = Hashtbl.create 8 in
      List.iter2 (fun s v -> Hashtbl.replace tbl s v) ins values;
      let cvals = Eval.comb_eval c ~source:(Hashtbl.find tbl) in
      (* AIG inputs were created in of_circuit_comb's traversal order; build
         env array by input index *)
      let aig_env = Array.make (Aig.num_inputs g) false in
      Hashtbl.iter
        (fun s l ->
          (* recover input position: input_lit i = l *)
          let rec find i =
            if Aig.input_lit g i = l then i else find (i + 1)
          in
          aig_env.(find 0) <- Hashtbl.find tbl s)
        input_lits;
      List.iter
        (fun o ->
          Alcotest.(check bool) "of_circuit agrees" cvals.(o)
            (Aig.eval g aig_env env.Aig.of_signal.(o)))
        (Circuit.outputs c)
    done
  done

let test_levels () =
  let g = Aig.create () in
  let a = Aig.input g and b = Aig.input g in
  let x = Aig.and_ g a b in
  let y = Aig.and_ g x (Aig.neg b) in
  Alcotest.(check int) "input level" 0 (Aig.level g (Aig.node_of a));
  Alcotest.(check int) "and level" 1 (Aig.level g (Aig.node_of x));
  Alcotest.(check int) "deeper" 2 (Aig.level g (Aig.node_of y))

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "structural hashing" `Quick test_strashing;
    Alcotest.test_case "derived ops" `Quick test_derived_ops;
    Alcotest.test_case "parallel simulation" `Quick test_simulate_parallel;
    Alcotest.test_case "CNF equisatisfiable" `Quick test_cnf_equisatisfiable;
    Alcotest.test_case "circuit compilation" `Quick test_of_circuit_comb;
    Alcotest.test_case "levels" `Quick test_levels;
  ]
