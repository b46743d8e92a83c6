type dchoice = D_low | D_disjoint

type analysis = {
  latch : Circuit.signal;
  self_feedback : bool;
  in_cycle : bool;
  positive_unate : bool;
}

type plan = { exposed : Circuit.signal list; converted : Circuit.signal list }

let latch_sinks c l =
  let data, enable = Circuit.latch_info c l in
  match enable with None -> [ data ] | Some e -> [ data; e ]

(* One bottom-up pass with per-signal latch bitsets: reach.(s) holds the set
   of latch outputs in the combinational cone of s. *)
let latch_graph c =
  let latches = Array.of_list (Circuit.latches c) in
  let nl = Array.length latches in
  let index = Hashtbl.create 64 in
  Array.iteri (fun i l -> Hashtbl.replace index l i) latches;
  let words = (nl + 62) / 63 in
  let n = Circuit.signal_count c in
  let reach = Array.make_matrix n (max words 1) 0 in
  Array.iteri
    (fun i l -> reach.(l).(i / 63) <- reach.(l).(i / 63) lor (1 lsl (i mod 63)))
    latches;
  List.iter
    (fun s ->
      match Circuit.driver c s with
      | Gate (_, fs) ->
          let dst = reach.(s) in
          Array.iter
            (fun f ->
              let src = reach.(f) in
              for w = 0 to words - 1 do
                dst.(w) <- dst.(w) lor src.(w)
              done)
            fs
      | Undriven | Input | Latch _ -> ())
    (Circuit.comb_topo c);
  let g = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g nl;
  Array.iteri
    (fun i l ->
      let acc = Array.make (max words 1) 0 in
      List.iter
        (fun sink ->
          let src = reach.(sink) in
          for w = 0 to words - 1 do
            acc.(w) <- acc.(w) lor src.(w)
          done)
        (latch_sinks c l);
      (* decode set bits *)
      for j = 0 to nl - 1 do
        if acc.(j / 63) land (1 lsl (j mod 63)) <> 0 then
          ignore (Vgraph.Digraph.add_edge g j i)
      done)
    latches;
  (g, latches)

exception Node_budget_exceeded

(* BDD of the next-state cone of latch [l]; sources (inputs and latch
   outputs) become variables, the latch's own output first so tests can rely
   on x = variable 0.  [node_limit] bounds the BDD size during construction
   (@raise Node_budget_exceeded). *)
let next_state_function ?(node_limit = max_int) c l =
  let data, _ = Circuit.latch_info c l in
  let marked = Circuit.cone c [ data ] in
  let man = Bdd.man () in
  let var_of_signal = Hashtbl.create 32 in
  let signal_of_var = Vgraph.Vec.create ~dummy:(-1) () in
  let alloc s =
    let i = Vgraph.Vec.push signal_of_var s in
    Hashtbl.replace var_of_signal s (Bdd.var man i)
  in
  if marked.(l) then alloc l;
  for s = 0 to Circuit.signal_count c - 1 do
    if marked.(s) && s <> l then begin
      match Circuit.driver c s with
      | Input | Latch _ -> alloc s
      | Undriven | Gate _ -> ()
    end
  done;
  let node = Hashtbl.create 64 in
  let rec bdd_of s =
    match Hashtbl.find_opt node s with
    | Some b -> b
    | None ->
        if Bdd.node_count man > node_limit then raise Node_budget_exceeded;
        let b =
          match Circuit.driver c s with
          | Input | Latch _ -> Hashtbl.find var_of_signal s
          | Undriven -> assert false
          | Gate (fn, fs) -> Bdd.apply_fn man fn (Array.map bdd_of fs)
        in
        Hashtbl.replace node s b;
        b
  in
  let f = bdd_of data in
  (man, f, fun i -> Vgraph.Vec.get signal_of_var i)

let cone_sources c l =
  let data, _ = Circuit.latch_info c l in
  let marked = Circuit.cone c [ data ] in
  let n = ref 0 in
  for s = 0 to Circuit.signal_count c - 1 do
    if marked.(s) then
      match Circuit.driver c s with Input | Latch _ -> incr n | Undriven | Gate _ -> ()
  done;
  !n

(* a self-feedback latch whose next-state cone has more sources than this
   is reported not unate without building its BDD *)
let max_cone = 64

let analyze c =
  let g, latches = latch_graph c in
  let comp_id, _ = Vgraph.Scc.component_ids g in
  let comps = Vgraph.Scc.components g in
  let nontrivial = Array.make (List.length comps) false in
  List.iteri (fun i comp -> nontrivial.(i) <- Vgraph.Scc.is_nontrivial g comp) comps;
  Array.to_list
    (Array.mapi
       (fun i l ->
         let self_feedback = Vgraph.Digraph.has_self_loop g i in
         let in_cycle = nontrivial.(comp_id.(i)) in
         let positive_unate =
           if not self_feedback then true
           else if cone_sources c l > max_cone then false
           else
             match next_state_function ~node_limit:100_000 c l with
             | man, f, _ -> Bdd.is_positive_unate man f ~var:0
             | exception Node_budget_exceeded -> false
         in
         { latch = l; self_feedback; in_cycle; positive_unate })
       latches)

let plan_structural c =
  let g, latches = latch_graph c in
  let fvs = Vgraph.Mfvs.solve g ~candidates:(fun _ -> true) in
  { exposed = List.map (fun i -> latches.(i)) fvs; converted = [] }

let plan_functional c =
  let g, latches = latch_graph c in
  let analyses = Array.of_list (analyze c) in
  (* drop self-loops of positive-unate self-feedback regular latches (an
     already-enabled latch keeps its enable; we do not compose enables) *)
  let convertible =
    Array.map
      (fun a ->
        a.self_feedback && a.positive_unate
        && snd (Circuit.latch_info c a.latch) = None)
      analyses
  in
  let g' = Vgraph.Digraph.create () in
  Vgraph.Digraph.add_nodes g' (Vgraph.Digraph.node_count g);
  Vgraph.Digraph.iter_edges
    (fun _ e ->
      if not (e.src = e.dst && convertible.(e.src)) then
        ignore (Vgraph.Digraph.add_edge g' e.src e.dst))
    g;
  let fvs = Vgraph.Mfvs.solve g' ~candidates:(fun _ -> true) in
  let exposed_set = Array.make (Array.length latches) false in
  List.iter (fun i -> exposed_set.(i) <- true) fvs;
  let converted = ref [] in
  Array.iteri
    (fun i keep -> if keep && not exposed_set.(i) then converted := latches.(i) :: !converted)
    convertible;
  {
    exposed = List.map (fun i -> latches.(i)) fvs;
    converted = List.rev !converted;
  }

let decompose man f ~x ~dchoice =
  let f0 = Bdd.cofactor man f ~var:x false in
  let f1 = Bdd.cofactor man f ~var:x true in
  if not (Bdd.leq man f0 f1) then None
  else begin
    (* ē = F1·¬F0 is forced, hence e = ¬F1 + F0 *)
    let e = Bdd.or_ man (Bdd.not_ man f1) f0 in
    let d =
      match dchoice with
      | D_low -> f0
      | D_disjoint -> (
          let s = Bdd.support man e in
          let cand = Bdd.exists man s f0 in
          if Bdd.leq man f0 cand && Bdd.leq man cand f1 then cand else f0)
    in
    Some (e, d)
  end

let bdd_to_gates nc man f ~sig_of = Bdd_gates.to_gates nc man f ~sig_of

let apply_plan ?(dchoice = D_low) c plan =
  match plan.converted with
  | [] -> c
  | converted ->
      let to_convert = Hashtbl.create 8 in
      List.iter (fun l -> Hashtbl.replace to_convert l ()) converted;
      let nc = Circuit.create (Circuit.name c ^ "_fb") in
      let map = Hashtbl.create 64 in
      let get s = Hashtbl.find map s in
      for s = 0 to Circuit.signal_count c - 1 do
        let ns =
          match Circuit.driver c s with
          | Input -> Circuit.add_input nc (Circuit.signal_name c s)
          | Undriven | Gate _ | Latch _ ->
              Circuit.declare nc ~name:(Circuit.signal_name c s) ()
        in
        Hashtbl.replace map s ns
      done;
      for s = 0 to Circuit.signal_count c - 1 do
        match Circuit.driver c s with
        | Undriven | Input -> ()
        | Gate (fn, fs) ->
            Circuit.set_gate nc (get s) fn (Array.to_list (Array.map get fs))
        | Latch { data; enable } ->
            if Hashtbl.mem to_convert s then begin
              assert (enable = None);
              let man, f, sig_of_var = next_state_function c s in
              (match decompose man f ~x:0 ~dchoice with
              | None -> assert false
              | Some (e, d) ->
                  let sig_of i = get (sig_of_var i) in
                  let e_sig = bdd_to_gates nc man e ~sig_of in
                  let d_sig = bdd_to_gates nc man d ~sig_of in
                  Circuit.set_latch nc (get s) ~enable:e_sig ~data:d_sig ())
            end
            else
              Circuit.set_latch nc (get s)
                ?enable:(Option.map get enable)
                ~data:(get data) ()
      done;
      List.iter (fun o -> Circuit.mark_output nc (get o)) (Circuit.outputs c);
      Circuit.check nc;
      nc
