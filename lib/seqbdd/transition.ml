type t = {
  man : Bdd.man;
  circuit : Circuit.t;
  state_vars : int array;
  input_vars : int array;
  next_state : Bdd.t array;
  outputs : Bdd.t array;
}

exception Node_limit

let build ?(node_limit = max_int) c =
  Circuit.check c;
  let man = Bdd.man () in
  let latches = Array.of_list (Circuit.latches c) in
  let inputs = Array.of_list (Circuit.inputs c) in
  let state_vars = Array.mapi (fun i _ -> i) latches in
  let input_vars = Array.mapi (fun i _ -> Array.length latches + i) inputs in
  let source_bdd = Hashtbl.create 64 in
  Array.iteri (fun i l -> Hashtbl.replace source_bdd l (Bdd.var man state_vars.(i))) latches;
  Array.iteri (fun i s -> Hashtbl.replace source_bdd s (Bdd.var man input_vars.(i))) inputs;
  let memo = Hashtbl.create 256 in
  let rec bdd_of s =
    match Hashtbl.find_opt memo s with
    | Some b -> b
    | None ->
        if Bdd.node_count man > node_limit then raise Node_limit;
        let b =
          match Circuit.driver c s with
          | Input | Latch _ -> Hashtbl.find source_bdd s
          | Undriven -> assert false
          | Gate (fn, fs) -> Bdd.apply_fn man fn (Array.map bdd_of fs)
        in
        Hashtbl.replace memo s b;
        b
  in
  let next_state =
    Array.mapi
      (fun i l ->
        let data, enable = Circuit.latch_info c l in
        let d = bdd_of data in
        match enable with
        | None -> d
        | Some e ->
            let eb = bdd_of e in
            let q = Bdd.var man state_vars.(i) in
            Bdd.ite man eb d q)
      latches
  in
  let outputs = Array.of_list (List.map bdd_of (Circuit.outputs c)) in
  { man; circuit = c; state_vars; input_vars; next_state; outputs }

(* Image by input-first quantification and variable-wise constrain:
   Img(S)(v) = ∃s,x. S(s) ∧ ⋀_i (v_i ↔ δ_i(s,x)), computed without
   auxiliary primed variables by the standard recursive output expansion:
   we build the image over fresh temporary variables placed after all the
   existing ones, then rename back by composition. *)
let image ?(node_limit = max_int) t s =
  let man = t.man in
  let n = Array.length t.state_vars in
  let base = Array.length t.state_vars + Array.length t.input_vars in
  (* conjunction of (v'_i <-> delta_i) restricted to S *)
  let check () = if Bdd.node_count man > node_limit then raise Node_limit in
  let rel = ref s in
  Array.iteri
    (fun i delta ->
      check ();
      let primed = Bdd.var man (base + i) in
      rel := Bdd.and_ man !rel (Bdd.xnor_ man primed delta))
    t.next_state;
  check ();
  (* quantify the present state and the inputs *)
  let qvars =
    Array.to_list t.state_vars @ Array.to_list t.input_vars
  in
  let img_primed = Bdd.exists man qvars !rel in
  check ();
  (* rename primed -> plain state variables (primed are above everything,
     so composing top-down is safe) *)
  let result = ref img_primed in
  for i = 0 to n - 1 do
    check ();
    result := Bdd.compose man !result ~var:(base + i) (Bdd.var man t.state_vars.(i))
  done;
  !result

let reachable ?(node_limit = max_int) ?(max_steps = 10_000) t ~init =
  let man = t.man in
  let rec go frontier reached steps =
    if steps > max_steps then None
    else begin
      match image ~node_limit t frontier with
      | exception Node_limit -> None
      | img ->
          let new_states = Bdd.and_ man img (Bdd.not_ man reached) in
          if Bdd.is_zero man new_states then Some reached
          else go new_states (Bdd.or_ man reached new_states) (steps + 1)
    end
  in
  go init init 0

let state_count t set =
  Bdd.sat_count t.man set ~nvars:(Array.length t.state_vars)
