type report = { removed : int; sat_calls : int; area_before : int; area_after : int }

(* Rebuild [c] with fanin position [j] of gate [g] tied to constant [b]. *)
let with_fault c ~gate ~pos ~const =
  let nc = Circuit.create (Circuit.name c) in
  let map = Hashtbl.create 64 in
  let get s = Hashtbl.find map s in
  for s = 0 to Circuit.signal_count c - 1 do
    let ns =
      match Circuit.driver c s with
      | Input -> Circuit.add_input nc (Circuit.signal_name c s)
      | Undriven | Gate _ | Latch _ -> Circuit.declare nc ~name:(Circuit.signal_name c s) ()
    in
    Hashtbl.replace map s ns
  done;
  let const_sig = if const then Circuit.const_true nc else Circuit.const_false nc in
  for s = 0 to Circuit.signal_count c - 1 do
    match Circuit.driver c s with
    | Undriven | Input -> ()
    | Latch { data; enable } ->
        Circuit.set_latch nc (get s) ?enable:(Option.map get enable) ~data:(get data) ()
    | Gate (fn, fs) ->
        let fanins =
          Array.mapi (fun j f -> if s = gate && j = pos then const_sig else get f) fs
        in
        Circuit.set_gate nc (get s) fn fanins
  done;
  List.iter (fun o -> Circuit.mark_output nc (get o)) (Circuit.outputs c);
  Circuit.check nc;
  nc

(* 64-pattern fault screening: recompute everything at or after [gate] in
   topological order with the faulty fanin and compare the sink words. *)
let screen c ~topo ~pos_of ~base ~words ~sinks ~gate ~pos ~const =
  let n = Circuit.signal_count c in
  let value = Array.make n 0L in
  Array.blit base 0 value 0 n;
  let const_word = if const then Int64.minus_one else 0L in
  let start = pos_of.(gate) in
  let rec go rest =
    match rest with
    | [] -> ()
    | s :: tl ->
        (match Circuit.driver c s with
        | Gate (fn, fs) ->
            let ins =
              Array.mapi
                (fun j f -> if s = gate && j = pos then const_word else value.(f))
                fs
            in
            value.(s) <- Eval.gate_eval_word fn ins
        | Undriven | Input | Latch _ -> assert false);
        go tl
  in
  ignore words;
  go (List.filteri (fun i _ -> i >= start) topo);
  List.for_all (fun s -> Int64.equal value.(s) base.(s)) sinks

let sinks_of c =
  Circuit.outputs c
  @ List.concat_map
      (fun l ->
        let data, enable = Circuit.latch_info c l in
        match enable with None -> [ data ] | Some e -> [ data; e ])
      (Circuit.latches c)

let run ?(max_rounds = 50) c =
  Circuit.check c;
  let area_before = Circuit.area c in
  let st = Random.State.make [| 0x8edd |] in
  let removed = ref 0 in
  let sat_calls = ref 0 in
  let current = ref c in
  let continue = ref true in
  let round = ref 0 in
  while !continue && !round < max_rounds do
    incr round;
    continue := false;
    let c = !current in
    let topo = Circuit.comb_topo c in
    let pos_of = Array.make (Circuit.signal_count c) max_int in
    List.iteri (fun i s -> pos_of.(s) <- i) topo;
    let words = Hashtbl.create 64 in
    let source s =
      match Hashtbl.find_opt words s with
      | Some w -> w
      | None ->
          let w = Random.State.int64 st Int64.max_int in
          Hashtbl.replace words s w;
          w
    in
    let base = Eval.comb_eval_words c ~source in
    let sinks = sinks_of c in
    (* scan gates in topological order; commit at most one removal per gate
       per round (a committed fault invalidates this round's base words for
       downstream candidates, so we re-enter with a fresh round) *)
    let committed = ref false in
    List.iter
      (fun g ->
        if not !committed then
          match Circuit.driver c g with
          | Gate ((Const _ | Buf), _) -> ()
          | Gate (_, fs) ->
              Array.iteri
                (fun j _ ->
                  if not !committed then
                    List.iter
                      (fun const ->
                        if
                          (not !committed)
                          && screen c ~topo ~pos_of ~base ~words ~sinks ~gate:g ~pos:j
                               ~const
                        then begin
                          (* SAT confirmation on the combinational views *)
                          let faulty = with_fault c ~gate:g ~pos:j ~const in
                          let v, cstats =
                            Cec.check_problem_with_stats ~engine:Cec.Sat_engine
                              (Cec.of_circuits (Comb_view.of_sequential c)
                                 (Comb_view.of_sequential faulty))
                          in
                          sat_calls := !sat_calls + cstats.Cec.sat_calls;
                          match v with
                          | Cec.Equivalent ->
                              current := faulty;
                              incr removed;
                              committed := true;
                              continue := true
                          (* without a proof the fault is kept un-removed *)
                          | Cec.Inequivalent _ | Cec.Undecided _ -> ()
                        end)
                      [ false; true ])
                fs
          | Undriven | Input | Latch _ -> ())
      (Circuit.gates c)
  done;
  let result = Sweep_pass.run !current in
  ( result,
    {
      removed = !removed;
      sat_calls = !sat_calls;
      area_before;
      area_after = Circuit.area result;
    } )
