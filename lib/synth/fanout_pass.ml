let max_fanout c =
  Array.fold_left max 0 (Circuit.fanout_counts c)

(* Rebuild the circuit; every signal with more than [k] consumers feeds a
   buffer tree whose leaves are handed out to consumers round-robin. *)
let run ~max_fanout:k c =
  if k < 2 then invalid_arg "Fanout_pass.run: max_fanout must be >= 2";
  Circuit.check c;
  let counts = Circuit.fanout_counts c in
  let nc = Circuit.create (Circuit.name c ^ "_fo") in
  let base = Hashtbl.create 64 in
  (* taps.(s) = remaining list of new signals to hand to consumers of s *)
  let taps : (Circuit.signal, Circuit.signal list) Hashtbl.t = Hashtbl.create 64 in
  (* Build a tree over [s] with [n] usable leaves, each node driving <= k
     children; the root occupies one of the driver's k slots.  Returns leaf
     list. *)
  let build_taps s n =
    let root = Hashtbl.find base s in
    if n <= k then List.init n (fun _ -> root)
    else begin
      (* the root can drive up to k buffers; distribute n leaves among
         ceil(n/k) groups recursively *)
      let rec layer srcs need =
        (* srcs: signals currently available; need: leaves required *)
        let cap = k * List.length srcs in
        if cap >= need then begin
          (* hand out leaves: each src replicated up to k times *)
          let rec emit srcs need acc =
            match srcs with
            | [] -> List.rev acc
            | src :: rest ->
                let take = min k need in
                let acc = List.rev_append (List.init take (fun _ -> src)) acc in
                if need - take = 0 then List.rev acc else emit rest (need - take) acc
          in
          emit srcs need []
        end
        else begin
          (* expand: each src becomes k buffers *)
          let next =
            List.concat_map
              (fun src -> List.init k (fun _ -> Circuit.add_gate nc Buf [ src ]))
              srcs
          in
          layer next need
        end
      in
      layer [ root ] n
    end
  in
  let consume s =
    let remaining =
      match Hashtbl.find_opt taps s with
      | Some l -> l
      | None -> build_taps s counts.(s)
    in
    match remaining with
    | [] -> assert false
    | x :: rest ->
        Hashtbl.replace taps s rest;
        x
  in
  (* declare all signals *)
  for s = 0 to Circuit.signal_count c - 1 do
    match Circuit.driver c s with
    | Input -> Hashtbl.replace base s (Circuit.add_input nc (Circuit.signal_name c s))
    | Undriven -> ()
    | Gate _ | Latch _ ->
        Hashtbl.replace base s (Circuit.declare nc ~name:(Circuit.signal_name c s) ())
  done;
  (* drive gates and latches through taps *)
  for s = 0 to Circuit.signal_count c - 1 do
    match Circuit.driver c s with
    | Undriven | Input -> ()
    | Gate (fn, fs) ->
        Circuit.set_gate nc (Hashtbl.find base s) fn (Array.map consume fs)
    | Latch { data; enable } ->
        Circuit.set_latch nc (Hashtbl.find base s)
          ?enable:(Option.map consume enable)
          ~data:(consume data) ()
  done;
  List.iter (fun o -> Circuit.mark_output nc (consume o)) (Circuit.outputs c);
  Circuit.check nc;
  nc
