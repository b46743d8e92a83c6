type verdict = Equivalent | Inequivalent | Resource_out of string

type stats = {
  steps : int;
  peak_nodes : int;
  product_states : float;
  seconds : float;
}

(* Join the two circuits into one netlist over name-matched inputs: the
   product machine is then just [Transition.build] of the join. *)
let product_circuit c1 c2 =
  if List.length (Circuit.outputs c1) <> List.length (Circuit.outputs c2) then
    invalid_arg "Sec_baseline.check: output counts differ";
  let nc = Circuit.create (Circuit.name c1 ^ "_x_" ^ Circuit.name c2) in
  let inputs = Hashtbl.create 16 in
  let input_for name =
    match Hashtbl.find_opt inputs name with
    | Some s -> s
    | None ->
        let s = Circuit.add_input nc name in
        Hashtbl.replace inputs name s;
        s
  in
  let copy prefix c =
    let map = Hashtbl.create 64 in
    (* declare *)
    for s = 0 to Circuit.signal_count c - 1 do
      match Circuit.driver c s with
      | Input -> Hashtbl.replace map s (input_for (Circuit.signal_name c s))
      | Gate _ | Latch _ ->
          Hashtbl.replace map s
            (Circuit.declare nc ~name:(prefix ^ Circuit.signal_name c s) ())
      | Undriven -> ()
    done;
    let get s = Hashtbl.find map s in
    for s = 0 to Circuit.signal_count c - 1 do
      match Circuit.driver c s with
      | Undriven | Input -> ()
      | Gate (fn, fs) -> Circuit.set_gate nc (get s) fn (Array.map get fs)
      | Latch { data; enable } ->
          Circuit.set_latch nc (get s) ?enable:(Option.map get enable) ~data:(get data) ()
    done;
    List.iter (fun o -> Circuit.mark_output nc (get o)) (Circuit.outputs c)
  in
  copy "l$" c1;
  copy "r$" c2;
  Circuit.check nc;
  nc

let check ?(node_limit = 2_000_000) ?(max_steps = 4096) c1 c2 =
  (* monotonic wall clock, like every other [seconds] in the tree — CPU
     time would under-report a baseline that blocks or over-report one
     racing other domains *)
  let t0 = Obs.Clock.now () in
  let n_out = List.length (Circuit.outputs c1) in
  let finish verdict steps product_states man =
    ( verdict,
      {
        steps;
        peak_nodes = (match man with Some m -> Bdd.node_count m | None -> 0);
        product_states;
        seconds = Obs.Clock.now () -. t0;
      } )
  in
  match Transition.build ~node_limit (product_circuit c1 c2) with
  | exception Bdd.Node_limit ->
      finish (Resource_out "node budget during transition-function construction") 0 0. None
  | t -> (
      let man = t.Transition.man in
      (* miter over outputs: out1_i <> out2_i for some i *)
      let miter =
        let acc = ref (Bdd.zero man) in
        for i = 0 to n_out - 1 do
          acc :=
            Bdd.or_ man !acc
              (Bdd.xor_ man t.Transition.outputs.(i) t.Transition.outputs.(n_out + i))
        done;
        !acc
      in
      (* reset-style traversal: both machines power up at the all-zero
         state, the reachable set R is computed (least fixpoint), and the
         transient is discarded by a greatest fixpoint of the image inside
         R (the recurrent set). *)
      let zero =
        Bdd.and_list man
          (List.map
             (fun v -> Bdd.not_ man (Bdd.var man v))
             (Array.to_list t.Transition.state_vars))
      in
      match Transition.reachable ~node_limit ~max_steps t ~init:zero with
      | None -> finish (Resource_out "node/step budget during reachability") 0 0. (Some man)
      | Some reached -> (
          let rec settle s steps =
            if steps > max_steps then Error "step bound"
            else
              match Transition.image ~node_limit t s with
              | exception Bdd.Node_limit -> Error "node budget during traversal"
              | s' -> if Bdd.equal s' s then Ok (s, steps) else settle s' (steps + 1)
          in
          match settle reached 0 with
          | Error why -> finish (Resource_out why) 0 0. (Some man)
          | Ok (recurrent, steps) ->
              let bad = Bdd.and_ man recurrent miter in
              let verdict = if Bdd.is_zero man bad then Equivalent else Inequivalent in
              finish verdict steps (Transition.state_count t recurrent) (Some man)))
