let latch_class c l = snd (Circuit.latch_info c l)

let classes c =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let cl = latch_class c l in
      let prev = Option.value (Hashtbl.find_opt tbl cl) ~default:[] in
      Hashtbl.replace tbl cl (l :: prev))
    (Circuit.latches c);
  Hashtbl.fold (fun cl ls acc -> (cl, List.rev ls) :: acc) tbl []

let can_forward_move c ~gate =
  match Circuit.driver c gate with
  | Gate (_, fs) when Array.length fs > 0 ->
      let cls =
        Array.map
          (fun f ->
            match Circuit.driver c f with
            | Latch { enable; _ } -> Some enable
            | Undriven | Input | Gate _ -> None)
          fs
      in
      Array.for_all Option.is_some cls
      && Array.for_all (fun cl -> cl = cls.(0)) cls
  | Undriven | Input | Latch _ | Gate _ -> false

(* Rebuild the circuit with the move applied.  The rebuilt circuit maps
   every old signal to a new one except that [gate]'s consumers read the new
   latch and [gate] itself reads the old latches' data inputs. *)
let forward_move c ~gate =
  if not (can_forward_move c ~gate) then
    invalid_arg "Classes.forward_move: illegal move";
  let fn, latch_fanins =
    match Circuit.driver c gate with
    | Gate (fn, fs) -> (fn, fs)
    | Undriven | Input | Latch _ -> assert false
  in
  let enable =
    match Circuit.driver c latch_fanins.(0) with
    | Latch { enable; _ } -> enable
    | Undriven | Input | Gate _ -> assert false
  in
  let nc = Circuit.create (Circuit.name c ^ "_fwd") in
  let map = Hashtbl.create 64 in
  let get s = Hashtbl.find map s in
  (* declare everything first so forward references work *)
  List.iter
    (fun s ->
      let ns =
        match Circuit.driver c s with
        | Input -> Circuit.add_input nc (Circuit.signal_name c s)
        | Undriven | Gate _ | Latch _ ->
            Circuit.declare nc ~name:(Circuit.signal_name c s) ()
      in
      Hashtbl.replace map s ns)
    (List.init (Circuit.signal_count c) Fun.id);
  let moved = Circuit.declare nc ~name:(Circuit.signal_name c gate ^ "$moved") () in
  (* drive old signals *)
  for s = 0 to Circuit.signal_count c - 1 do
    match Circuit.driver c s with
    | Undriven -> ()
    | Input -> ()
    | Latch { data; enable = e } ->
        Circuit.set_latch nc (get s) ?enable:(Option.map get e) ~data:(get data) ()
    | Gate (fn', fs) ->
        if s = gate then begin
          (* the gate now reads the latch data inputs *)
          let datas =
            Array.map
              (fun f ->
                match Circuit.driver c f with
                | Latch { data; _ } -> get data
                | Undriven | Input | Gate _ -> assert false)
              latch_fanins
          in
          Circuit.set_gate nc moved fn datas;
          (* the old gate signal becomes the output of the moved latch *)
          Circuit.set_latch nc (get s) ?enable:(Option.map get enable) ~data:moved ()
        end
        else Circuit.set_gate nc (get s) fn' (Array.map get fs)
  done;
  List.iter (fun o -> Circuit.mark_output nc (get o)) (Circuit.outputs c);
  Circuit.check nc;
  nc

(* ---- single-class retiming ---- *)

let single_class_enable c =
  match Circuit.latches c with
  | [] -> None
  | l0 :: rest -> (
      match Circuit.latch_info c l0 with
      | _, None -> None
      | _, Some e ->
          let is_pi =
            match Circuit.driver c e with Input -> true | Undriven | Gate _ | Latch _ -> false
          in
          if
            is_pi
            && List.for_all (fun l -> snd (Circuit.latch_info c l) = Some e) rest
          then Some e
          else None)

(* Rebuild with every latch's enable dropped (Some e) or attached (None ->
   add enable net by name). *)
let map_enables c ~f =
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
  for s = 0 to Circuit.signal_count c - 1 do
    match Circuit.driver c s with
    | Undriven | Input -> ()
    | Gate (fn, fs) -> Circuit.set_gate nc (get s) fn (Array.map get fs)
    | Latch { data; enable } ->
        let enable' = f (Option.map get enable) in
        Circuit.set_latch nc (get s) ?enable:enable' ~data:(get data) ()
  done;
  List.iter (fun o -> Circuit.mark_output nc (get o)) (Circuit.outputs c);
  Circuit.check nc;
  nc

let reattach_enable e_name (rt, report) =
  let e' =
    match Circuit.find_signal rt e_name with
    | Some s -> s
    | None ->
        (* the enable input survived retiming only if used; re-add *)
        Circuit.add_input rt e_name
  in
  (map_enables rt ~f:(fun _ -> Some e'), report)

let strip_single_class c =
  match single_class_enable c with
  | None ->
      invalid_arg
        "Classes: not a single-class circuit (all latches must share one \
         primary-input enable)"
  | Some e -> (Circuit.signal_name c e, map_enables c ~f:(fun _ -> None))

let with_single_class retimer c =
  let e_name, stripped = strip_single_class c in
  reattach_enable e_name (retimer stripped)

let min_period_single_class c = with_single_class (fun c -> Retime.min_period c) c

let constrained_min_area_single_class ~period c =
  let e_name, stripped = strip_single_class c in
  Result.map (reattach_enable e_name)
    (Retime.constrained_min_area ~period stripped)
