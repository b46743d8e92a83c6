type info = { depth : int; variables : int; replication : int }

let var_name i d = Seqprob.Var.to_string (Seqprob.Var.time i d)

let unroll_exn ?(exposed = fun _ -> false) b c =
  Circuit.check c;
  let g = Seqprob.graph b in
  let memo : (Circuit.signal * int, Aig.lit) Hashtbl.t = Hashtbl.create 256 in
  let used : (Seqprob.Var.t, unit) Hashtbl.t = Hashtbl.create 64 in
  let depth = ref 0 in
  let replication = ref 0 in
  (* keyed by signal alone: a signal repeated on the current DFS path is a
     dependency cycle whatever the delays, and an un-exposed cycle would
     otherwise unroll forever (each lap shifts the delay) *)
  let visiting : (Circuit.signal, unit) Hashtbl.t = Hashtbl.create 64 in
  let pin name d =
    depth := max !depth d;
    let v = Seqprob.Var.time name d in
    Hashtbl.replace used v ();
    Seqprob.var_lit b v
  in
  (* Compute_CBF_Recursively (Fig. 7), straight into the shared AIG *)
  let rec cbf s d =
    match Hashtbl.find_opt memo (s, d) with
    | Some r -> r
    | None ->
        if Hashtbl.mem visiting s then
          raise
            (Seqprob.Error
               (Non_exposed_cycle
                  {
                    circuit = Circuit.name c;
                    signal = Circuit.signal_name c s;
                  }));
        Hashtbl.replace visiting s ();
        let r =
          match Circuit.driver c s with
          | Input -> pin (Circuit.signal_name c s) d
          | Latch _ when exposed s -> pin (Circuit.signal_name c s) d
          | Latch { data; enable = None } -> cbf data (d + 1)
          | Latch { enable = Some _; _ } ->
              raise
                (Seqprob.Error
                   (Hidden_enabled_latch
                      {
                        circuit = Circuit.name c;
                        latch = Circuit.signal_name c s;
                      }))
          | Gate (fn, fs) ->
              incr replication;
              Aig.apply_fn g fn (Array.map (fun f -> cbf f d) fs)
          | Undriven -> assert false
        in
        Hashtbl.remove visiting s;
        Hashtbl.replace memo (s, d) r;
        r
  in
  let outs = List.map (fun o -> cbf o 0) (Circuit.outputs c) in
  (* exposed latches: data (and enable) functions become outputs, ordered by
     latch name so both sides of a comparison line up *)
  let exposed_latches =
    List.filter exposed (Circuit.latches c)
    |> List.sort (fun a b ->
           compare (Circuit.signal_name c a) (Circuit.signal_name c b))
  in
  let data_outs =
    List.map
      (fun l ->
        let data, _ = Circuit.latch_info c l in
        cbf data 0)
      exposed_latches
  in
  let enable_outs =
    List.filter_map
      (fun l ->
        match Circuit.latch_info c l with
        | _, Some e -> Some (cbf e 0)
        | _, None -> None)
      exposed_latches
  in
  ( outs @ data_outs @ enable_outs,
    {
      depth = !depth;
      variables = Hashtbl.length used;
      replication = !replication;
    } )

let unroll ?exposed b c =
  Obs.span ~name:"unroll.cbf"
    ~attrs:[ ("circuit", Obs.String (Circuit.name c)) ]
    (fun () ->
      let n0 = Aig.and_count (Seqprob.graph b) in
      let r =
        match unroll_exn ?exposed b c with
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

let sequential_depth ?(exposed = fun _ -> false) c =
  let memo = Hashtbl.create 256 in
  let rec go s =
    match Hashtbl.find_opt memo s with
    | Some d -> d
    | None ->
        Hashtbl.replace memo s 0;
        (* cycle guard: exposed breaks cycles; a hit during recursion would
           mean a non-exposed cycle, reported by unroll *)
        let d =
          match Circuit.driver c s with
          | Input -> 0
          | Latch _ when exposed s -> 0
          | Latch { data; _ } -> 1 + go data
          | Gate (_, fs) -> Array.fold_left (fun acc f -> max acc (go f)) 0 fs
          | Undriven -> 0
        in
        Hashtbl.replace memo s d;
        d
  in
  let at_outputs = List.fold_left (fun acc o -> max acc (go o)) 0 (Circuit.outputs c) in
  List.fold_left
    (fun acc l ->
      if exposed l then
        let data, enable = Circuit.latch_info c l in
        let acc = max acc (go data) in
        match enable with None -> acc | Some e -> max acc (go e)
      else acc)
    at_outputs (Circuit.latches c)

let functional_depth ?exposed c =
  let b = Seqprob.builder () in
  match unroll ?exposed b c with
  | Error _ as e -> e
  | Ok (outs, _) ->
      let g = Seqprob.graph b in
      let vars = Seqprob.builder_vars b in
      let man = Bdd.man () in
      (* BDD var = input index; the vars array maps it back to a delay *)
      let input_index = Hashtbl.create 64 in
      for i = 0 to Aig.num_inputs g - 1 do
        Hashtbl.replace input_index (Aig.node_of (Aig.input_lit g i)) i
      done;
      let node_bdd = Hashtbl.create 256 in
      let rec go n =
        if n = 0 then Bdd.zero man
        else
          match Hashtbl.find_opt node_bdd n with
          | Some f -> f
          | None ->
              let f =
                if Aig.is_input_node g n then
                  Bdd.var man (Hashtbl.find input_index n)
                else
                  let f0, f1 = Aig.fanins g n in
                  Bdd.and_ man (lit_bdd f0) (lit_bdd f1)
              in
              Hashtbl.replace node_bdd n f;
              f
      and lit_bdd l =
        let f = go (Aig.node_of l) in
        if Aig.is_complement l then Bdd.not_ man f else f
      in
      let depth = ref 0 in
      List.iter
        (fun o ->
          List.iter
            (fun v -> depth := max !depth (Seqprob.Var.delay vars.(v)))
            (Bdd.support man (lit_bdd o)))
        outs;
      Ok !depth
