open Vgraph
type origin = { vertex : int; weight : int; src : Circuit.signal }

type t = {
  graph : Digraph.t;
  delay : int array;
  signal_of_vertex : Circuit.signal array;
  fanin_origin : origin array array;
  po_origin : origin array;
  exposed_origin : (Circuit.signal * origin) array;
  groups : int array array;
  circuit : Circuit.t;
}

let host = 0
let host_sink = 1

let vertex_count g = Digraph.node_count g.graph

type csr = {
  nv : int;
  pred_off : int array;
  pred_src : int array;
  pred_weight : int array;
  succ_off : int array;
  succ_dst : int array;
  succ_weight : int array;
}

let csr g =
  let n = Digraph.node_count g.graph in
  let m = Digraph.edge_count g.graph in
  let pred_off = Array.make (n + 1) 0 in
  let succ_off = Array.make (n + 1) 0 in
  Digraph.iter_edges
    (fun _ e ->
      pred_off.(e.dst + 1) <- pred_off.(e.dst + 1) + 1;
      succ_off.(e.src + 1) <- succ_off.(e.src + 1) + 1)
    g.graph;
  for v = 1 to n do
    pred_off.(v) <- pred_off.(v) + pred_off.(v - 1);
    succ_off.(v) <- succ_off.(v) + succ_off.(v - 1)
  done;
  let pred_src = Array.make m 0 and pred_weight = Array.make m 0 in
  let succ_dst = Array.make m 0 and succ_weight = Array.make m 0 in
  let pcur = Array.copy pred_off and scur = Array.copy succ_off in
  Digraph.iter_edges
    (fun _ e ->
      let kp = pcur.(e.dst) in
      pred_src.(kp) <- e.src;
      pred_weight.(kp) <- e.weight;
      pcur.(e.dst) <- kp + 1;
      let ks = scur.(e.src) in
      succ_dst.(ks) <- e.dst;
      succ_weight.(ks) <- e.weight;
      scur.(e.src) <- ks + 1)
    g.graph;
  { nv = n; pred_off; pred_src; pred_weight; succ_off; succ_dst; succ_weight }

let build ?(exposed = fun _ -> false) c =
  Obs.span ~name:"retime.rgraph_build" @@ fun () ->
  Circuit.check c;
  List.iter
    (fun l ->
      match Circuit.latch_info c l with
      | _, Some _ ->
          invalid_arg
            (Printf.sprintf "Rgraph.build: latch %s is load-enabled"
               (Circuit.signal_name c l))
      | _, None -> ())
    (Circuit.latches c);
  let n = Circuit.signal_count c in
  (* Only logic that reaches an observable sink participates: dangling
     cones would otherwise bound the period (their arrival times count)
     and attract pointless registers.  Dropping them is sweep semantics. *)
  let roots =
    Circuit.outputs c
    @ List.concat_map
        (fun l ->
          if exposed l then
            let data, enable = Circuit.latch_info c l in
            data :: (match enable with None -> [] | Some e -> [ e ])
          else [])
        (Circuit.latches c)
  in
  let live = Circuit.seq_cone c roots in
  let graph = Digraph.create () in
  let h = Digraph.add_node graph in
  let hs = Digraph.add_node graph in
  assert (h = host && hs = host_sink);
  let vertex_of_signal = Array.make n (-1) in
  let gate_signals = List.filter (fun s -> live.(s)) (Circuit.gates c) in
  List.iter (fun s -> vertex_of_signal.(s) <- Digraph.add_node graph) gate_signals;
  let nv = Digraph.node_count graph in
  let signal_of_vertex = Array.make nv (-1) in
  let delay = Array.make nv 0 in
  List.iter
    (fun s ->
      let v = vertex_of_signal.(s) in
      signal_of_vertex.(v) <- s;
      match Circuit.driver c s with
      | Gate (fn, _) -> delay.(v) <- Circuit.fn_cost fn
      | Undriven | Input | Latch _ -> assert false)
    gate_signals;
  (* Origin walk.  A latch-only ring (a cycle containing no gate) has no
     place in the gate graph; its latches are frozen in place by exposing
     them automatically. *)
  let memo = Array.make n None in
  let visiting = Array.make n false in
  let auto_exposed = Array.make n false in
  let rec origin s =
    match memo.(s) with
    | Some o -> o
    | None ->
        let o =
          match Circuit.driver c s with
          | Gate _ -> { vertex = vertex_of_signal.(s); weight = 0; src = s }
          | Input -> { vertex = host; weight = 0; src = s }
          | Latch { data; enable = _ } ->
              if exposed s || auto_exposed.(s) || visiting.(s) then begin
                if visiting.(s) then auto_exposed.(s) <- true;
                { vertex = host; weight = 0; src = s }
              end
              else begin
                visiting.(s) <- true;
                let o = origin data in
                visiting.(s) <- false;
                { o with weight = o.weight + 1 }
              end
          | Undriven -> assert false
        in
        (* a latch that was auto-exposed mid-walk must not memoize a stale
           chain passing through itself *)
        if not (match Circuit.driver c s with
                | Latch _ -> auto_exposed.(s)
                | Undriven | Input | Gate _ -> false)
        then memo.(s) <- Some o
        else memo.(s) <- Some { vertex = host; weight = 0; src = s };
        (match memo.(s) with Some o -> o | None -> assert false)
  in
  (* the edges of each source signal, which [apply] drives from one chain *)
  let members = Array.make n [] in
  let connect (o : origin) v =
    members.(o.src) <- Digraph.add_edge graph ~weight:o.weight o.vertex v :: members.(o.src)
  in
  let fanin_origin = Array.make nv [||] in
  List.iter
    (fun s ->
      let v = vertex_of_signal.(s) in
      match Circuit.driver c s with
      | Gate (_, fs) ->
          fanin_origin.(v) <-
            Array.map
              (fun f ->
                let o = origin f in
                connect o v;
                o)
              fs
      | Undriven | Input | Latch _ -> assert false)
    gate_signals;
  let po_origin =
    Array.of_list
      (List.map
         (fun p ->
           let o = origin p in
           connect o host_sink;
           o)
         (Circuit.outputs c))
  in
  let is_exposed l = exposed l || auto_exposed.(l) in
  let exposed_origin =
    Array.of_list
      (List.filter_map
         (fun l ->
           if is_exposed l then begin
             let data, _ = Circuit.latch_info c l in
             let o = origin data in
             connect o host_sink;
             Some (l, o)
           end
           else None)
         (Circuit.latches c))
  in
  let groups =
    List.filter_map (function [] -> None | es -> Some (Array.of_list es)) (Array.to_list members)
  in
  { graph; delay; signal_of_vertex; fanin_origin; po_origin; exposed_origin;
    groups = Array.of_list groups; circuit = c }

let normalize g ~r =
  ignore g;
  if r.(host) <> r.(host_sink) then
    invalid_arg "Rgraph.normalize: host labels differ";
  let shift = r.(host) in
  Array.map (fun x -> x - shift) r

let is_legal g ~r =
  r.(host) = 0 && r.(host_sink) = 0
  &&
  let ok = ref true in
  Digraph.iter_edges
    (fun _ e -> if e.weight + r.(e.dst) - r.(e.src) < 0 then ok := false)
    g.graph;
  !ok

let apply g ~r =
  let r = normalize g ~r in
  if not (is_legal g ~r) then invalid_arg "Rgraph.apply: illegal retiming";
  let c = g.circuit in
  let nc = Circuit.create (Circuit.name c ^ "_rt") in
  let new_of = Hashtbl.create 128 in
  (* primary inputs keep their names *)
  List.iter
    (fun s -> Hashtbl.replace new_of s (Circuit.add_input nc (Circuit.signal_name c s)))
    (Circuit.inputs c);
  (* exposed latch outputs keep their names too (declared, driven below) *)
  Array.iter
    (fun (l, _) -> Hashtbl.replace new_of l (Circuit.declare nc ~name:(Circuit.signal_name c l) ()))
    g.exposed_origin;
  (* declare gate outputs *)
  Array.iter
    (fun s ->
      if s >= 0 then
        Hashtbl.replace new_of s (Circuit.declare nc ~name:(Circuit.signal_name c s) ()))
    g.signal_of_vertex;
  (* latch chains, shared per source signal *)
  let chains = Hashtbl.create 128 in
  let fresh = ref 0 in
  let rec tap src k =
    if k = 0 then Hashtbl.find new_of src
    else
      match Hashtbl.find_opt chains (src, k) with
      | Some s -> s
      | None ->
          let below = tap src (k - 1) in
          incr fresh;
          let name = Printf.sprintf "rt$%s$%d" (Circuit.signal_name c src) k in
          let name = if Circuit.find_signal nc name = None then name
            else Printf.sprintf "rt$%s$%d$%d" (Circuit.signal_name c src) k !fresh in
          let s = Circuit.add_latch nc ~name ~data:below () in
          Hashtbl.replace chains (src, k) s;
          s
  in
  let retimed_weight v (o : origin) = o.weight + r.(v) - r.(o.vertex) in
  (* drive the gates *)
  Array.iteri
    (fun v s ->
      if s >= 0 then begin
        match Circuit.driver c s with
        | Gate (fn, _) ->
            let fanins =
              Array.map (fun o -> tap o.src (retimed_weight v o)) g.fanin_origin.(v)
            in
            Circuit.set_gate nc (Hashtbl.find new_of s) fn fanins
        | Undriven | Input | Latch _ -> assert false
      end)
    g.signal_of_vertex;
  (* exposed latches stay where they were *)
  Array.iter
    (fun (l, o) ->
      let data = tap o.src (retimed_weight host_sink o) in
      Circuit.set_latch nc (Hashtbl.find new_of l) ~data ())
    g.exposed_origin;
  (* primary outputs in order *)
  Array.iter (fun o -> Circuit.mark_output nc (tap o.src (retimed_weight host_sink o))) g.po_origin;
  Circuit.check nc;
  nc
