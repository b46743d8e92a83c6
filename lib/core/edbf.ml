type info = {
  depth : int;
  variables : int;
  events : int;
  replication : int;
  hidden_enabled : string option;
}

let unroll_exn ?(guard = false) ~table ?(exposed = fun _ -> false) b c =
  Circuit.check c;
  let g = Seqprob.graph b in
  (* The memo keys a context (s, d, e) as s + n * (d + (latches + 1) * e):
     a delay counts the regular latches on the current DFS path, which the
     cycle guard keeps distinct, so it never exceeds the latch count *)
  let n = Circuit.signal_count c in
  let stride = n * (Circuit.latch_count c + 1) in
  let max_event = (max_int / max stride 1) - 1 in
  let memo = Vgraph.Itbl.create n in
  let key s d e =
    if e > max_event then invalid_arg "Edbf.unroll: too many events to memoize";
    s + (n * d) + (stride * e)
  in
  let used_vars : (Seqprob.Var.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let pred_at : (int, Circuit.signal -> Bdd.t) Hashtbl.t = Hashtbl.create 4 in
  let used_events : (Events.event, unit) Hashtbl.t = Hashtbl.create 16 in
  let depth = ref 0 in
  let replication = ref 0 in
  let hidden_enabled = ref None in
  (* one byte per signal, whatever the context: a signal repeated on the
     current DFS path is a dependency cycle, and an un-exposed cycle would
     otherwise unroll forever (each lap shifts the delay) *)
  let visiting = Bytes.make n '\000' in
  let pin name d e =
    depth := max !depth d;
    if guard then Hashtbl.replace used_events e ();
    let v = Seqprob.Var.at name ~shift:d ~event:e in
    Hashtbl.replace used_vars v ();
    Seqprob.var_lit b v
  in
  (* Semantic enable predicate at shift [d]: a BDD over (source, shift)
     variables, one memoized translator per shift; latch outputs are
     opaque sources matched by name. *)
  let pred_bdd s d =
    let at =
      match Hashtbl.find_opt pred_at d with
      | Some at -> at
      | None ->
          let at =
            Bdd.of_circuit (Events.man table) c ~source:(fun s ->
                Events.pred_var table ~source:(Circuit.signal_name c s) ~shift:d)
          in
          Hashtbl.replace pred_at d at;
          at
    in
    at s
  in
  (* Compute_EDBF_Recursively (Fig. 8), with delays for regular latches;
     along a path that crosses no enable it is Compute_CBF_Recursively
     (Fig. 7), and [pin] names its samples as CBF time frames *)
  let rec edbf s d e =
    let k = key s d e in
    match Vgraph.Itbl.find memo k with
    | -1 ->
        if Bytes.get visiting s <> '\000' then
          raise
            (Seqprob.Error
               (Non_exposed_cycle
                  {
                    circuit = Circuit.name c;
                    signal = Circuit.signal_name c s;
                  }));
        Bytes.set visiting s '\001';
        let r =
          match Circuit.driver c s with
          | Input -> pin (Circuit.signal_name c s) d e
          | Latch _ when exposed s -> pin (Circuit.signal_name c s) d e
          | Latch { data; enable = None } -> edbf data (d + 1) e
          | Latch { data; enable = Some en } ->
              if !hidden_enabled = None then
                hidden_enabled := Some (Circuit.signal_name c s);
              let p = pred_bdd en d in
              let e' = Events.push table ~pred:p e in
              edbf data 0 e'
          | Gate (fn, fs) ->
              incr replication;
              let ins = Array.make (Array.length fs) Aig.lit_false in
              for i = 0 to Array.length fs - 1 do
                ins.(i) <- edbf fs.(i) d e
              done;
              Aig.apply_fn g fn ins
          | Undriven -> assert false
        in
        Bytes.set visiting s '\000';
        Vgraph.Itbl.add memo k r;
        r
    | r -> r
  in
  let outs = List.map (fun o -> edbf o 0 Events.empty) (Circuit.outputs c) in
  (* exposed latches: data (and enable) functions become outputs, ordered by
     latch name so both sides of a comparison line up *)
  let exposed_latches =
    List.filter exposed (Circuit.latches c)
    |> List.sort (fun a b ->
           compare (Circuit.signal_name c a) (Circuit.signal_name c b))
  in
  let data_outs =
    List.map
      (fun l -> edbf (fst (Circuit.latch_info c l)) 0 Events.empty)
      exposed_latches
  in
  let enable_outs =
    List.filter_map
      (fun l ->
        Option.map
          (fun en -> edbf en 0 Events.empty)
          (snd (Circuit.latch_info c l)))
      exposed_latches
  in
  let outs = ref (outs @ data_outs @ enable_outs) in
  (* Event-consistency guard (the paper's future-work refinement): the
     predicate at the head of every event was, by definition of η, true at
     the instant the event denotes.  Guarding each output with the
     conjunction of those facts lets data functions that differ only where
     an enable is false still compare equal: the miter becomes
     [constraints → outputs equal].  Both sides of a comparison build the
     same guard over the same typed variables, because events are interned
     in the shared table. *)
  if guard then begin
    (* close the used-event set under tails *)
    let rec close e =
      match Events.decompose table e with
      | None -> ()
      | Some (_, tail) ->
          if not (Hashtbl.mem used_events tail) then begin
            Hashtbl.replace used_events tail ();
            close tail
          end
    in
    Hashtbl.iter (fun e () -> close e) (Hashtbl.copy used_events);
    let constraints = ref [] in
    let events = Hashtbl.fold (fun e () acc -> e :: acc) used_events [] in
    List.iter
      (fun e ->
        match Events.decompose table e with
        | None -> ()
        | Some (pred, _) ->
            let lit_of v =
              let source, shift = Events.var_source table v in
              pin source shift e
            in
            constraints :=
              Bdd.to_aig g (Events.man table) pred ~lit_of
              :: !constraints)
      (List.sort compare events);
    match !constraints with
    | [] -> ()
    | cs ->
        let all = Aig.and_list g cs in
        outs := List.map (fun o -> Aig.or_ g o (Aig.neg all)) !outs
  end;
  ( !outs,
    {
      depth = !depth;
      variables = Hashtbl.length used_vars;
      events = Events.count table;
      replication = !replication;
      hidden_enabled = !hidden_enabled;
    } )

let unroll ?guard ~table ?exposed b c =
  Obs.span ~name:"unroll"
    ~attrs:[ ("circuit", Obs.String (Circuit.name c)) ]
    (fun () ->
      let n0 = Aig.and_count (Seqprob.graph b) in
      let r =
        match unroll_exn ?guard ~table ?exposed b c with
        | r -> Ok r
        | exception Seqprob.Error d -> Error d
      in
      Obs.attr (fun () ->
          match r with
          | Ok (_, info) ->
              [
                ("depth", Obs.Int info.depth);
                ("variables", Obs.Int info.variables);
                ("replication", Obs.Int info.replication);
                ( "aig_nodes_added",
                  Obs.Int (Aig.and_count (Seqprob.graph b) - n0) );
              ]
          | Error d -> [ ("error", Obs.String (Seqprob.diagnosis_to_string d)) ]);
      r)
