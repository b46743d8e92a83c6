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

(* Reference strash: the AIG's rules over a Hashtbl keyed by the ordered
   literal pair, with the derived operators written as Aig writes them (so
   their argument evaluation order, and hence node creation order, is the
   same). *)
module Ref_strash = struct
  type t = { fanins : (int * int) Vgraph.Vec.t; strash : (int * int, int) Hashtbl.t }

  let create () =
    let r = { fanins = Vgraph.Vec.create ~dummy:(0, 0) (); strash = Hashtbl.create 16 } in
    ignore (Vgraph.Vec.push r.fanins (-2, -2));
    r

  let input r = 2 * Vgraph.Vec.push r.fanins (-1, -1)

  let and_ r a b =
    let a, b = if a <= b then (a, b) else (b, a) in
    if a = 0 then 0
    else if a = 1 then b
    else if a = b then a
    else if a = b lxor 1 then 0
    else
      match Hashtbl.find_opt r.strash (a, b) with
      | Some n -> 2 * n
      | None ->
          let n = Vgraph.Vec.push r.fanins (a, b) in
          Hashtbl.add r.strash (a, b) n;
          2 * n

  let or_ r a b = and_ r (a lxor 1) (b lxor 1) lxor 1
  let xor_ r a b = and_ r (or_ r a b) (and_ r a b lxor 1)
  let mux r s t e = or_ r (and_ r s t) (and_ r (s lxor 1) e)
end

(* Random and/or/xor/mux calls over literals drawn from everything built
   so far (constants, complements and repeated operands included) return
   the reference's literal at every call and leave the same nodes; the
   largest graph makes the flat table grow many times. *)
let test_strash_matches_reference () =
  let st = Random.State.make [| 0x57A5 |] in
  List.iter
    (fun (inputs, calls, min_nodes) ->
      let g = Aig.create () and r = Ref_strash.create () in
      let pool = Vgraph.Vec.create ~dummy:0 () in
      ignore (Vgraph.Vec.push pool Aig.lit_false);
      for _ = 1 to inputs do
        let l = Aig.input g in
        Alcotest.(check int) "input" (Ref_strash.input r) l;
        ignore (Vgraph.Vec.push pool l)
      done;
      let last = ref Aig.lit_true in
      let pick () =
        let l =
          match Random.State.int st 10 with
          | 0 -> !last
          | 1 -> Random.State.int st 2
          | _ -> Vgraph.Vec.get pool (Random.State.int st (Vgraph.Vec.length pool))
        in
        let l = if Random.State.bool st then Aig.neg l else l in
        last := l;
        l
      in
      for i = 1 to calls do
        let a = pick () in
        let b = pick () in
        let got, want =
          match Random.State.int st 4 with
          | 0 -> (Aig.and_ g a b, Ref_strash.and_ r a b)
          | 1 -> (Aig.or_ g a b, Ref_strash.or_ r a b)
          | 2 -> (Aig.xor_ g a b, Ref_strash.xor_ r a b)
          | _ ->
              let e = pick () in
              (Aig.mux g a b e, Ref_strash.mux r a b e)
        in
        if got <> want then Alcotest.failf "call %d: literal %d, reference %d" i got want;
        ignore (Vgraph.Vec.push pool got)
      done;
      Alcotest.(check int) "node count" (Vgraph.Vec.length r.fanins) (Aig.node_count g);
      Alcotest.(check bool) "enough nodes" true (Aig.node_count g >= min_nodes);
      for n = 1 to Aig.node_count g - 1 do
        let want = Vgraph.Vec.get r.fanins n in
        let got = if Aig.is_input_node g n then (-1, -1) else Aig.fanins g n in
        if got <> want then Alcotest.failf "node %d: fanins differ" n
      done)
    (* 2^14 nodes or more: the table has doubled at least eight times,
       from 128 slots *)
    [ (2, 50, 0); (6, 2_000, 0); (24, 40_000, 1 lsl 14) ]

let suite =
  [
    Alcotest.test_case "constant folding" `Quick test_constant_folding;
    Alcotest.test_case "structural hashing" `Quick test_strashing;
    Alcotest.test_case "derived ops" `Quick test_derived_ops;
    Alcotest.test_case "parallel simulation" `Quick test_simulate_parallel;
    Alcotest.test_case "CNF equisatisfiable" `Quick test_cnf_equisatisfiable;
    Alcotest.test_case "circuit compilation" `Quick test_of_circuit_comb;
    Alcotest.test_case "levels" `Quick test_levels;
    Alcotest.test_case "strash matches a reference" `Quick test_strash_matches_reference;
  ]
