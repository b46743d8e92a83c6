let of_sequential c =
  Circuit.check c;
  let nc = Circuit.create (Circuit.name c ^ "_cv") in
  let map = Hashtbl.create 64 in
  let get s = Hashtbl.find map s in
  for s = 0 to Circuit.signal_count c - 1 do
    match Circuit.driver c s with
    | Input | Latch _ ->
        Hashtbl.replace map s (Circuit.add_input nc (Circuit.signal_name c s))
    | Gate _ -> Hashtbl.replace map s (Circuit.declare nc ~name:(Circuit.signal_name c s) ())
    | Undriven -> ()
  done;
  for s = 0 to Circuit.signal_count c - 1 do
    match Circuit.driver c s with
    | Gate (fn, fs) -> Circuit.set_gate nc (get s) fn (Array.map get fs)
    | Undriven | Input | Latch _ -> ()
  done;
  List.iter (fun o -> Circuit.mark_output nc (get o)) (Circuit.outputs c);
  List.iter
    (fun l ->
      let data, enable = Circuit.latch_info c l in
      Circuit.mark_output nc (get data);
      Option.iter (fun e -> Circuit.mark_output nc (get e)) enable)
    (Circuit.latches c);
  Circuit.check nc;
  nc
