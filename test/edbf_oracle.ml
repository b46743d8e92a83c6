(* Reference EDBF unrolling, kept as a test oracle for {!Edbf.unroll}: it
   materializes the unrolled circuit as a netlist whose inputs are named
   ["source@d@event"], with the same contexts, the same rule-(5) events
   and the same event-consistency guard, and returns the same [info].
   Comparing two such netlists with {!Cec} must give the verdict that the
   shipped route (both sides unrolled into one {!Seqprob.builder}) gives.
   No latch is exposed, so every output is a primary output.
   @raise Invalid_argument on a sequential cycle. *)

let unroll_netlist ?(guard = false) ~table c =
  Circuit.check c;
  let man = Events.man table in
  let nc = Circuit.create (Circuit.name c ^ "_edbf") in
  let memo : (Circuit.signal * int * Events.event, Circuit.signal) Hashtbl.t =
    Hashtbl.create 256
  in
  let pins : (string, Circuit.signal) Hashtbl.t = Hashtbl.create 64 in
  let pred_memo : (Circuit.signal * int, Bdd.t) Hashtbl.t = Hashtbl.create 64 in
  let used_events : (Events.event, unit) Hashtbl.t = Hashtbl.create 16 in
  let depth = ref 0 in
  let replication = ref 0 in
  let hidden_enabled = ref None in
  let visiting = Hashtbl.create 64 in
  let pin name d e =
    depth := max !depth d;
    Hashtbl.replace used_events e ();
    let n = Printf.sprintf "%s@%d@%s" name d (Events.to_string table e) in
    match Hashtbl.find_opt pins n with
    | Some s -> s
    | None ->
        let s = Circuit.add_input nc n in
        Hashtbl.replace pins n s;
        s
  in
  let rec pred_bdd s d =
    match Hashtbl.find_opt pred_memo (s, d) with
    | Some b -> b
    | None ->
        let b =
          match Circuit.driver c s with
          | Input | Latch _ ->
              Events.pred_var table ~source:(Circuit.signal_name c s) ~shift:d
          | Undriven -> assert false
          | Gate (fn, fs) ->
              let ins = Array.map (fun f -> pred_bdd f d) fs in
              let ins_l = Array.to_list ins in
              (match fn with
              | Const b -> if b then Bdd.one man else Bdd.zero man
              | Buf -> ins.(0)
              | Not -> Bdd.not_ man ins.(0)
              | And -> Bdd.and_list man ins_l
              | Nand -> Bdd.not_ man (Bdd.and_list man ins_l)
              | Or -> Bdd.or_list man ins_l
              | Nor -> Bdd.not_ man (Bdd.or_list man ins_l)
              | Xor -> List.fold_left (Bdd.xor_ man) (Bdd.zero man) ins_l
              | Xnor -> Bdd.not_ man (List.fold_left (Bdd.xor_ man) (Bdd.zero man) ins_l)
              | Mux -> Bdd.ite man ins.(0) ins.(1) ins.(2))
        in
        Hashtbl.replace pred_memo (s, d) b;
        b
  in
  let rec edbf s d e =
    match Hashtbl.find_opt memo (s, d, e) with
    | Some r -> r
    | None ->
        if Hashtbl.mem visiting s then
          invalid_arg "Edbf_oracle.unroll_netlist: sequential cycle";
        Hashtbl.replace visiting s ();
        let r =
          match Circuit.driver c s with
          | Input -> pin (Circuit.signal_name c s) d e
          | Latch { data; enable = None } -> edbf data (d + 1) e
          | Latch { data; enable = Some en } ->
              if !hidden_enabled = None then
                hidden_enabled := Some (Circuit.signal_name c s);
              let p = pred_bdd en d in
              let e' = Events.push table ~pred:p e in
              edbf data 0 e'
          | Gate (fn, fs) ->
              incr replication;
              Circuit.add_gate nc fn (Array.to_list (Array.map (fun f -> edbf f d e) fs))
          | Undriven -> assert false
        in
        Hashtbl.remove visiting s;
        Hashtbl.replace memo (s, d, e) r;
        r
  in
  let out_signals =
    ref (List.map (fun o -> edbf o 0 Events.empty) (Circuit.outputs c))
  in
  if guard then begin
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
            let sig_of v =
              let source, shift = Events.var_source table v in
              pin source shift e
            in
            constraints := Bdd_gates.to_gates nc man pred ~sig_of :: !constraints)
      (List.sort compare events);
    match !constraints with
    | [] -> ()
    | cs ->
        let all = Circuit.add_gate nc And cs in
        let not_all = Circuit.add_gate nc Not [ all ] in
        out_signals := List.map (fun o -> Circuit.add_gate nc Or [ o; not_all ]) !out_signals
  end;
  List.iter (Circuit.mark_output nc) !out_signals;
  Circuit.check nc;
  ( nc,
    {
      Edbf.depth = !depth;
      variables = Hashtbl.length pins;
      events = Events.count table;
      replication = !replication;
      hidden_enabled = !hidden_enabled;
    } )
