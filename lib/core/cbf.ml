type info = { depth : int; variables : int; replication : int }

let var_name i d = Seqprob.Var.to_string (Seqprob.Var.time i d)

let unroll ?exposed b c =
  match Edbf.unroll ~table:(Events.create ()) ?exposed b c with
  | Error _ as e -> e
  | Ok (_, { hidden_enabled = Some latch; _ }) ->
      Error (Hidden_enabled_latch { circuit = Circuit.name c; latch })
  | Ok (outs, { depth; variables; replication; _ }) ->
      Ok (outs, { depth; variables; replication })

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
