type tv = F | T | X

let tv_pp ppf = function
  | F -> Format.pp_print_char ppf '0'
  | T -> Format.pp_print_char ppf '1'
  | X -> Format.pp_print_char ppf 'X'

let tv_equal (a : tv) b = a = b

let index_env order values =
  let tbl = Hashtbl.create 16 in
  List.iteri (fun i s -> Hashtbl.replace tbl s values.(i)) order;
  fun s -> Hashtbl.find tbl s

let step c ~state ~inputs =
  let latch_order = Circuit.latches c in
  let input_order = Circuit.inputs c in
  if Array.length state <> List.length latch_order then
    invalid_arg "Sim.step: state size";
  if Array.length inputs <> List.length input_order then
    invalid_arg "Sim.step: inputs size";
  let latch_env = index_env latch_order state in
  let input_env = index_env input_order inputs in
  let source s =
    match Circuit.driver c s with
    | Latch _ -> latch_env s
    | Input -> input_env s
    | Undriven | Gate _ -> assert false
  in
  let values = Eval.comb_eval c ~source in
  let outs = Array.of_list (List.map (fun o -> values.(o)) (Circuit.outputs c)) in
  let next =
    Array.of_list
      (List.mapi
         (fun i l ->
           let data, enable = Circuit.latch_info c l in
           match enable with
           | None -> values.(data)
           | Some e -> if values.(e) then values.(data) else state.(i))
         latch_order)
  in
  (outs, next)

let run c ~init ~inputs =
  let state = ref init in
  List.map
    (fun inp ->
      let outs, next = step c ~state:!state ~inputs:inp in
      state := next;
      outs)
    inputs

(* ---- conservative 3-valued simulation ---- *)

let tv_not = function F -> T | T -> F | X -> X

let tv_and a b =
  match (a, b) with
  | F, _ | _, F -> F
  | T, T -> T
  | _ -> X

let tv_or a b = tv_not (tv_and (tv_not a) (tv_not b))

let tv_xor a b =
  match (a, b) with
  | X, _ | _, X -> X
  | T, T | F, F -> F
  | _ -> T

let gate_eval_3v (fn : Circuit.gate_fn) (vs : tv array) =
  match fn with
  | Const b -> if b then T else F
  | Buf -> vs.(0)
  | Not -> tv_not vs.(0)
  | And -> Array.fold_left tv_and T vs
  | Or -> Array.fold_left tv_or F vs
  | Nand -> tv_not (Array.fold_left tv_and T vs)
  | Nor -> tv_not (Array.fold_left tv_or F vs)
  | Xor -> Array.fold_left tv_xor F vs
  | Xnor -> tv_not (Array.fold_left tv_xor F vs)
  | Mux -> (
      match vs.(0) with
      | T -> vs.(1)
      | F -> vs.(2)
      | X -> if tv_equal vs.(1) vs.(2) && not (tv_equal vs.(1) X) then vs.(1) else X)

let comb_eval_3v c ~source =
  let n = Circuit.signal_count c in
  let values = Array.make n X in
  for s = 0 to n - 1 do
    match Circuit.driver c s with
    | Input | Latch _ -> values.(s) <- source s
    | Undriven | Gate _ -> ()
  done;
  List.iter
    (fun s ->
      match Circuit.driver c s with
      | Gate (fn, fs) ->
          values.(s) <- gate_eval_3v fn (Array.map (fun f -> values.(f)) fs)
      | Undriven | Input | Latch _ -> assert false)
    (Circuit.comb_topo c);
  values

let run_3v c ~inputs =
  let latch_order = Circuit.latches c in
  let input_order = Circuit.inputs c in
  let state = ref (Array.make (List.length latch_order) X) in
  List.map
    (fun inp ->
      let latch_env = index_env latch_order !state in
      let input_env =
        index_env input_order (Array.map (fun b -> if b then T else F) inp)
      in
      let source s =
        match Circuit.driver c s with
        | Latch _ -> latch_env s
        | Input -> input_env s
        | Undriven | Gate _ -> assert false
      in
      let values = comb_eval_3v c ~source in
      let outs = Array.of_list (List.map (fun o -> values.(o)) (Circuit.outputs c)) in
      state :=
        Array.of_list
          (List.mapi
             (fun i l ->
               let data, enable = Circuit.latch_info c l in
               match enable with
               | None -> values.(data)
               | Some e -> (
                   match values.(e) with
                   | T -> values.(data)
                   | F -> !state.(i)
                   | X ->
                       if tv_equal values.(data) !state.(i) then values.(data) else X))
             latch_order);
      outs)
    inputs

(* ---- exact 3-valued semantics ---- *)

let run_exact ?(max_latches = 16) c ~inputs =
  let nl = Circuit.latch_count c in
  if nl > max_latches then
    invalid_arg
      (Printf.sprintf "Sim.run_exact: %d latches exceeds limit %d" nl max_latches);
  let n_out = List.length (Circuit.outputs c) in
  let n_cyc = List.length inputs in
  let agg : tv array array =
    Array.init n_cyc (fun _ -> Array.make n_out X)
  in
  let first = ref true in
  for powerup = 0 to (1 lsl nl) - 1 do
    let init = Array.init nl (fun i -> powerup land (1 lsl i) <> 0) in
    let trace = run c ~init ~inputs in
    List.iteri
      (fun t outs ->
        Array.iteri
          (fun i b ->
            let v = if b then T else F in
            if !first then agg.(t).(i) <- v
            else if not (tv_equal agg.(t).(i) v) then agg.(t).(i) <- X)
          outs)
      trace;
    first := false
  done;
  Array.to_list agg

let equivalent_exact ?max_latches c1 c2 ~input_seqs =
  let rec go = function
    | [] -> None
    | seq :: rest ->
        let t1 = run_exact ?max_latches c1 ~inputs:seq in
        let t2 = run_exact ?max_latches c2 ~inputs:seq in
        let same =
          List.length t1 = List.length t2
          && List.for_all2 (fun a b -> Array.for_all2 tv_equal a b) t1 t2
        in
        if same then go rest else Some (seq, t1, t2)
  in
  go input_seqs

let all_input_seqs c ~depth =
  let ni = List.length (Circuit.inputs c) in
  let vectors =
    List.init (1 lsl ni) (fun m -> Array.init ni (fun i -> m land (1 lsl i) <> 0))
  in
  let rec seqs d = if d = 0 then [ [] ] else
    let shorter = seqs (d - 1) in
    List.concat_map (fun v -> List.map (fun s -> v :: s) shorter) vectors
  in
  seqs depth
