(* Reference CBF unrolling, kept as a test oracle for {!Cbf.unroll}: it
   materializes the unrolled circuit as a flat netlist, with no structural
   hashing, whose input [(i, d)] is a primary input named
   [Cbf.var_name i d].  Its outputs come in {!Cbf.unroll}'s order and its
   [info] must equal {!Cbf.unroll}'s.
   @raise Invalid_argument on the conditions {!Cbf.unroll} diagnoses. *)

let unroll_netlist ?(exposed = fun _ -> false) c =
  Circuit.check c;
  let nc = Circuit.create (Circuit.name c ^ "_cbf") in
  let memo : (Circuit.signal * int, Circuit.signal) Hashtbl.t = Hashtbl.create 256 in
  let pins : (string, Circuit.signal) Hashtbl.t = Hashtbl.create 64 in
  let depth = ref 0 in
  let replication = ref 0 in
  let visiting : (Circuit.signal, unit) Hashtbl.t = Hashtbl.create 64 in
  let pin name d =
    depth := max !depth d;
    let n = Cbf.var_name name d in
    match Hashtbl.find_opt pins n with
    | Some s -> s
    | None ->
        let s = Circuit.add_input nc n in
        Hashtbl.replace pins n s;
        s
  in
  let rec cbf s d =
    match Hashtbl.find_opt memo (s, d) with
    | Some r -> r
    | None ->
        if Hashtbl.mem visiting s then
          invalid_arg "Cbf_oracle.unroll_netlist: sequential cycle with no exposed latch";
        Hashtbl.replace visiting s ();
        let r =
          match Circuit.driver c s with
          | Input -> pin (Circuit.signal_name c s) d
          | Latch _ when exposed s -> pin (Circuit.signal_name c s) d
          | Latch { data; enable = None } -> cbf data (d + 1)
          | Latch { enable = Some _; _ } ->
              invalid_arg
                (Printf.sprintf
                   "Cbf_oracle.unroll_netlist: non-exposed load-enabled latch %s"
                   (Circuit.signal_name c s))
          | Gate (fn, fs) ->
              incr replication;
              Circuit.add_gate nc fn (Array.to_list (Array.map (fun f -> cbf f d) fs))
          | Undriven -> assert false
        in
        Hashtbl.remove visiting s;
        Hashtbl.replace memo (s, d) r;
        r
  in
  List.iter (fun o -> Circuit.mark_output nc (cbf o 0)) (Circuit.outputs c);
  let exposed_latches =
    List.filter exposed (Circuit.latches c)
    |> List.sort (fun a b -> compare (Circuit.signal_name c a) (Circuit.signal_name c b))
  in
  List.iter
    (fun l ->
      let data, _ = Circuit.latch_info c l in
      Circuit.mark_output nc (cbf data 0))
    exposed_latches;
  List.iter
    (fun l ->
      match Circuit.latch_info c l with
      | _, Some e -> Circuit.mark_output nc (cbf e 0)
      | _, None -> ())
    exposed_latches;
  Circuit.check nc;
  ( nc,
    { Cbf.depth = !depth; variables = Hashtbl.length pins; replication = !replication } )
