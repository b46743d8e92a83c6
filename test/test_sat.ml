(* CDCL solver cross-checked against brute force on random instances. *)

let st = Random.State.make [| 0x5A7 |]

let brute nvars clauses =
  let sat = ref false in
  for m = 0 to (1 lsl nvars) - 1 do
    if not !sat then begin
      let value v = m land (1 lsl (v - 1)) <> 0 in
      let ok_clause c =
        List.exists (fun l -> if l > 0 then value l else not (value (-l))) c
      in
      if List.for_all ok_clause clauses then sat := true
    end
  done;
  !sat

let random_instance () =
  let nvars = 1 + Random.State.int st 10 in
  let nclauses = 1 + Random.State.int st 45 in
  let clauses =
    List.init nclauses (fun _ ->
        let len = 1 + Random.State.int st 3 in
        List.init len (fun _ ->
            let v = 1 + Random.State.int st nvars in
            if Random.State.bool st then v else -v))
  in
  (nvars, clauses)

let model_ok s clauses =
  let value v = Sat.value s v in
  List.for_all
    (fun c -> List.exists (fun l -> if l > 0 then value l else not (value (-l))) c)
    clauses

let test_random_3sat () =
  for _ = 1 to 500 do
    let nvars, clauses = random_instance () in
    let s = Sat.create () in
    List.iter (Sat.add_clause s) clauses;
    let expected = brute nvars clauses in
    (match Sat.solve s with
    | Sat.Sat ->
        Alcotest.(check bool) "expected sat" true expected;
        Alcotest.(check bool) "model valid" true (model_ok s clauses)
    | Sat.Unsat -> Alcotest.(check bool) "expected unsat" false expected
    | Sat.Unknown -> Alcotest.fail "unbudgeted solve returned Unknown")
  done

let test_assumptions () =
  for _ = 1 to 300 do
    let nvars, clauses = random_instance () in
    let s = Sat.create () in
    List.iter (Sat.add_clause s) clauses;
    let a1 = (if Random.State.bool st then 1 else -1) * (1 + Random.State.int st nvars) in
    let a2 = (if Random.State.bool st then 1 else -1) * (1 + Random.State.int st nvars) in
    let expected = brute nvars ([ a1 ] :: [ a2 ] :: clauses) in
    let got = Sat.solve ~assumptions:[ a1; a2 ] s = Sat.Sat in
    Alcotest.(check bool) "under assumptions" expected got;
    (* solver unchanged: solving without assumptions afterwards *)
    let expected0 = brute nvars clauses in
    Alcotest.(check bool) "reuse after assumptions" expected0 (Sat.solve s = Sat.Sat)
  done

let test_incremental_clauses () =
  (* add clauses progressively; satisfiability is monotonically
     non-increasing *)
  for _ = 1 to 50 do
    let nvars = 1 + Random.State.int st 8 in
    let s = Sat.create () in
    let acc = ref [] in
    let was_unsat = ref false in
    for _ = 1 to 25 do
      let len = 1 + Random.State.int st 3 in
      let clause =
        List.init len (fun _ ->
            let v = 1 + Random.State.int st nvars in
            if Random.State.bool st then v else -v)
      in
      Sat.add_clause s clause;
      acc := clause :: !acc;
      let expected = brute nvars !acc in
      let got = Sat.solve s = Sat.Sat in
      Alcotest.(check bool) "incremental" expected got;
      if !was_unsat then Alcotest.(check bool) "stays unsat" false got;
      if not got then was_unsat := true
    done
  done

let test_empty_clause () =
  let s = Sat.create () in
  Sat.add_clause s [ 1; 2 ];
  Sat.add_clause s [];
  Alcotest.(check bool) "empty clause unsat" true (Sat.solve s = Sat.Unsat)

let test_tautology () =
  let s = Sat.create () in
  Sat.add_clause s [ 1; -1 ];
  Alcotest.(check bool) "tautology sat" true (Sat.solve s = Sat.Sat)

let test_unit_chain () =
  (* long implication chain forced by units *)
  let s = Sat.create () in
  let n = 200 in
  Sat.add_clause s [ 1 ];
  for v = 1 to n - 1 do
    Sat.add_clause s [ -v; v + 1 ]
  done;
  Alcotest.(check bool) "chain sat" true (Sat.solve s = Sat.Sat);
  for v = 1 to n do
    Alcotest.(check bool) "all true" true (Sat.value s v)
  done;
  Sat.add_clause s [ -n ];
  Alcotest.(check bool) "contradiction" true (Sat.solve s = Sat.Unsat)

let test_pigeonhole_4_3 () =
  (* 4 pigeons, 3 holes: classic small UNSAT requiring real search *)
  let s = Sat.create () in
  let var p h = (p * 3) + h + 1 in
  for p = 0 to 3 do
    Sat.add_clause s [ var p 0; var p 1; var p 2 ]
  done;
  for h = 0 to 2 do
    for p1 = 0 to 3 do
      for p2 = p1 + 1 to 3 do
        Sat.add_clause s [ -var p1 h; -var p2 h ]
      done
    done
  done;
  Alcotest.(check bool) "php(4,3) unsat" true (Sat.solve s = Sat.Unsat)

(* php(p,h) clauses: p pigeons into h holes, unsat when p > h *)
let add_pigeonhole s ~pigeons ~holes =
  let var p h = (p * holes) + h + 1 in
  for p = 0 to pigeons - 1 do
    Sat.add_clause s (List.init holes (fun h -> var p h))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Sat.add_clause s [ -var p1 h; -var p2 h ]
      done
    done
  done

let test_budget_conflicts () =
  (* php(4,3) needs real search: a 1-conflict budget must give up — and the
     interrupted solver must still decide correctly afterwards *)
  let s = Sat.create () in
  add_pigeonhole s ~pigeons:4 ~holes:3;
  Alcotest.(check bool)
    "1-conflict budget gives up" true
    (Sat.solve ~budget:(Sat.budget ~conflicts:1 ()) s = Sat.Unknown);
  Alcotest.(check bool)
    "solver still usable after Unknown" true
    (Sat.solve s = Sat.Unsat);
  (* after the instance is known unsat, budgets no longer matter *)
  Alcotest.(check bool)
    "unsat flag survives budgeted re-solve" true
    (Sat.solve ~budget:(Sat.budget ~conflicts:1 ()) s = Sat.Unsat)

let test_budget_propagations () =
  let s = Sat.create () in
  Sat.add_clause s [ 1 ];
  Sat.add_clause s [ -1; 2 ];
  Alcotest.(check bool)
    "0-propagation budget gives up" true
    (Sat.solve ~budget:(Sat.budget ~propagations:0 ()) s = Sat.Unknown);
  Alcotest.(check bool) "then solves" true (Sat.solve s = Sat.Sat)

let test_budget_never_lies () =
  (* a budgeted answer other than Unknown must match brute force *)
  for _ = 1 to 200 do
    let nvars, clauses = random_instance () in
    let s = Sat.create () in
    List.iter (Sat.add_clause s) clauses;
    match Sat.solve ~budget:(Sat.budget ~conflicts:2 ()) s with
    | Sat.Unknown -> ()
    | Sat.Sat ->
        Alcotest.(check bool) "budgeted sat correct" true (brute nvars clauses);
        Alcotest.(check bool) "budgeted model valid" true (model_ok s clauses)
    | Sat.Unsat ->
        Alcotest.(check bool) "budgeted unsat correct" false (brute nvars clauses)
  done

let test_cancel () =
  let s = Sat.create () in
  add_pigeonhole s ~pigeons:4 ~holes:3;
  let c = Atomic.make true in
  Alcotest.(check bool)
    "pre-set cancel gives up" true
    (Sat.solve ~cancel:c s = Sat.Unknown);
  Atomic.set c false;
  Alcotest.(check bool)
    "cleared cancel solves" true
    (Sat.solve ~cancel:c s = Sat.Unsat)

let test_activity_rescale () =
  (* php(8,7) drives the VSIDS increment past the 1e100 rescale (first
     near conflict 4,430); the counts pin the decision order across the
     heap rebuild that follows *)
  let s = Sat.create () in
  add_pigeonhole s ~pigeons:8 ~holes:7;
  Alcotest.(check bool) "php(8,7) unsat" true (Sat.solve s = Sat.Unsat);
  let conflicts, decisions, propagations = Sat.stats s in
  Alcotest.(check int) "conflicts" 5009 conflicts;
  Alcotest.(check int) "decisions" 6106 decisions;
  Alcotest.(check int) "propagations" 67537 propagations

(* Sat.Order against a reference that repeats its activity arithmetic on
   a plain array and pops by a linear argmax.  The operations follow the
   solver's use: new variables, propagated assignments (the variable
   stays in the heap), decisions (pop until an unassigned variable),
   backtracking (unassign the trail's top, insert when absent), bumps and
   decays.  Variables past 8 are bumped only early on and variables past
   40 never, so later rescales underflow their activities to ties that
   the heap must re-order by variable.  Checks fail by hand, not through
   Alcotest.check, which logs every assertion. *)
let test_order_reference () =
  let st = Random.State.make [| 0x0DE |] in
  let o = Sat.Order.create () in
  let max_vars = 48 in
  let act = Array.make (max_vars + 1) 0. and inc = ref 1.0 in
  let held = Array.make (max_vars + 1) false in
  let assigned = Array.make (max_vars + 1) false in
  let trail = ref [] in
  let n = ref 0 in
  let rescales = ref 0 and collapses = ref 0 in
  let before a b = act.(a) > act.(b) || (act.(a) = act.(b) && a < b) in
  let distinct () =
    List.length (List.sort_uniq Float.compare (Array.to_list (Array.sub act 1 !n)))
  in
  let bump v =
    act.(v) <- act.(v) +. !inc;
    if act.(v) > 1e100 then begin
      let d = distinct () in
      for i = 1 to !n do
        act.(i) <- act.(i) *. 1e-100
      done;
      inc := !inc *. 1e-100;
      incr rescales;
      if distinct () < d then incr collapses
    end;
    Sat.Order.bump o v
  in
  let step = ref 0 in
  let expect what ok = if not ok then Alcotest.failf "step %d: %s" !step what in
  let pop () =
    let best = ref 0 in
    for v = 1 to !n do
      if held.(v) && (!best = 0 || before v !best) then best := v
    done;
    let v = Sat.Order.pop o in
    expect "pop is the reference argmax" (v = !best);
    held.(v) <- false;
    v
  in
  let rec decide () =
    if Sat.Order.is_empty o then ()
    else
      let v = pop () in
      if assigned.(v) then decide ()
      else begin
        assigned.(v) <- true;
        trail := v :: !trail
      end
  in
  let unassigned () = List.filter (fun v -> not assigned.(v)) (List.init !n succ) in
  let check () =
    let els = Sat.Order.elements o in
    expect "no variable held twice"
      (List.length els = List.length (List.sort_uniq compare els));
    expect "size within variables" (List.length els <= !n);
    expect "holds the reference set"
      (List.sort compare els = List.filter (fun v -> held.(v)) (List.init !n succ));
    expect "every unassigned variable held"
      (List.for_all (fun v -> List.mem v els) (unassigned ()));
    for v = 1 to !n do
      expect "same activity" (Float.equal act.(v) (Sat.Order.activity o v))
    done;
    (* slot order is a heap: no slot is decided before its parent *)
    let slots = Array.of_list els in
    Array.iteri
      (fun i v -> if i > 0 then expect "heap order" (not (before v slots.((i - 1) / 2))))
      slots
  in
  while !step < 40_000 do
    incr step;
    (match Random.State.int st 20 with
    | 0 when !n < max_vars ->
        incr n;
        Sat.Order.new_var o;
        held.(!n) <- true
    | 1 | 2 -> (
        match unassigned () with
        | [] -> ()
        | vs ->
            let v = List.nth vs (Random.State.int st (List.length vs)) in
            assigned.(v) <- true;
            trail := v :: !trail)
    | 3 | 4 -> decide ()
    | 5 | 6 ->
        for _ = 1 to 1 + Random.State.int st 4 do
          match !trail with
          | [] -> ()
          | v :: rest ->
              trail := rest;
              assigned.(v) <- false;
              held.(v) <- true;
              Sat.Order.insert o v
        done
    | 7 | 8 when !n > 0 ->
        let hot = min !n 8 and warm = min !n 40 in
        bump
          (if !step < 2_000 && Random.State.int st 4 = 0 then
             1 + Random.State.int st warm
           else 1 + Random.State.int st hot)
    | _ ->
        inc := !inc /. 0.95;
        Sat.Order.decay o);
    check ()
  done;
  Alcotest.(check bool) "crossed the 1e100 rescale" true (!rescales >= 1);
  Alcotest.(check bool) "a rescale collapsed activities to ties" true
    (!collapses >= 1)

let test_stats_move () =
  let s = Sat.create () in
  Sat.add_clause s [ 1; 2 ];
  Sat.add_clause s [ -1; 2 ];
  ignore (Sat.solve s);
  let _c, _d, p = Sat.stats s in
  Alcotest.(check bool) "propagations counted" true (p >= 0)

let suite =
  [
    Alcotest.test_case "random 3-SAT vs brute force" `Quick test_random_3sat;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "incremental clause addition" `Quick test_incremental_clauses;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "tautology" `Quick test_tautology;
    Alcotest.test_case "unit chain" `Quick test_unit_chain;
    Alcotest.test_case "pigeonhole 4/3" `Quick test_pigeonhole_4_3;
    Alcotest.test_case "conflict budget" `Quick test_budget_conflicts;
    Alcotest.test_case "propagation budget" `Quick test_budget_propagations;
    Alcotest.test_case "budgeted answers never lie" `Quick test_budget_never_lies;
    Alcotest.test_case "cooperative cancel" `Quick test_cancel;
    Alcotest.test_case "activity rescale" `Quick test_activity_rescale;
    Alcotest.test_case "order heap vs reference" `Quick test_order_reference;
    Alcotest.test_case "stats" `Quick test_stats_move;
  ]
