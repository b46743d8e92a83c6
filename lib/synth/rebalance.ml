(* Compile the inter-latch combinational logic to an AIG, balance AND trees,
   and regenerate a netlist in the {INV, NAND2} library. *)

let build_aig c =
  let g = Aig.create () in
  let sources = ref [] in
  let src_lit = Hashtbl.create 64 in
  let source s =
    match Hashtbl.find_opt src_lit s with
    | Some l -> l
    | None ->
        let l = Aig.input g in
        Hashtbl.replace src_lit s l;
        sources := s :: !sources;
        l
  in
  let env = Aig.of_circuit_comb g c ~source in
  (g, env, List.rev !sources)

(* Balanced reconstruction into a fresh AIG.  A node is a tree root if it is
   used complemented, has fanout > 1, or feeds a sink; expansion of the AND
   tree stops at roots and inputs. *)
let balance g (sinks : Aig.lit list) =
  let n = Aig.node_count g in
  let fanout = Array.make n 0 in
  let compl_use = Array.make n false in
  let reach = Array.make n false in
  let rec mark n' =
    if not reach.(n') then begin
      reach.(n') <- true;
      if n' > 0 && not (Aig.is_input_node g n') then begin
        let f0, f1 = Aig.fanins g n' in
        let use l =
          let m = Aig.node_of l in
          fanout.(m) <- fanout.(m) + 1;
          if Aig.is_complement l then compl_use.(m) <- true;
          mark m
        in
        use f0;
        use f1
      end
    end
  in
  List.iter
    (fun l ->
      let m = Aig.node_of l in
      fanout.(m) <- fanout.(m) + 1;
      if Aig.is_complement l then compl_use.(m) <- true;
      mark m)
    sinks;
  let is_root n' =
    n' = 0 || Aig.is_input_node g n' || fanout.(n') > 1 || compl_use.(n')
  in
  let g2 = Aig.create () in
  (* inputs of g2 mirror inputs of g, in order *)
  let input_map = Array.make n Aig.lit_false in
  for i = 0 to Aig.num_inputs g - 1 do
    let l = Aig.input_lit g i in
    input_map.(Aig.node_of l) <- Aig.input g2
  done;
  let memo = Array.make n (-1) in
  (* collect the operand leaves of the AND tree rooted at node [n'] *)
  let rec leaves acc n' =
    let f0, f1 = Aig.fanins g n' in
    let expand l acc =
      let m = Aig.node_of l in
      if (not (Aig.is_complement l)) && not (is_root m) then leaves acc m
      else l :: acc
    in
    expand f1 (expand f0 acc)
  in
  let rec build_node n' =
    if memo.(n') >= 0 then memo.(n')
    else begin
      let result =
        if n' = 0 then Aig.lit_false
        else if Aig.is_input_node g n' then input_map.(n')
        else begin
          let ls = leaves [] n' in
          let ls2 = List.map build_lit ls in
          (* combine lowest levels first *)
          let cmp a b =
            compare (Aig.level g2 (Aig.node_of a)) (Aig.level g2 (Aig.node_of b))
          in
          let heap = Vgraph.Heap.create ~cmp ~dummy:Aig.lit_false () in
          List.iter (Vgraph.Heap.add heap) ls2;
          let rec combine () =
            let a = Vgraph.Heap.pop_min heap in
            if Vgraph.Heap.is_empty heap then a
            else begin
              let b = Vgraph.Heap.pop_min heap in
              Vgraph.Heap.add heap (Aig.and_ g2 a b);
              combine ()
            end
          in
          combine ()
        end
      in
      memo.(n') <- result;
      result
    end
  and build_lit l =
    let r = build_node (Aig.node_of l) in
    if Aig.is_complement l then Aig.neg r else r
  in
  let mapped = List.map build_lit sinks in
  (g2, mapped)

(* Regenerate a netlist of NAND/INV gates from an AIG. *)
let emit_netlist nc g2 source_signals lits =
  (* source_signals.(i) is the netlist signal feeding input i of g2 *)
  let n = Aig.node_count g2 in
  let pos = Array.make n (-1) in
  (* signal computing the node positively *)
  let neg_sig = Array.make n (-1) in
  let rec signal_of_node n' =
    if pos.(n') >= 0 then pos.(n')
    else begin
      assert (n' > 0);
      let s =
        if Aig.is_input_node g2 n' then assert false
        else begin
          let f0, f1 = Aig.fanins g2 n' in
          let nand = Circuit.add_gate nc Nand [ signal_neg_aware f0; signal_neg_aware f1 ] in
          neg_sig.(n') <- nand;
          Circuit.add_gate nc Not [ nand ]
        end
      in
      pos.(n') <- s;
      s
    end
  and signal_neg_aware l =
    let n' = Aig.node_of l in
    if not (Aig.is_complement l) then signal_of_node n'
    else begin
      (* need the complement of n' *)
      if neg_sig.(n') >= 0 then neg_sig.(n')
      else begin
        let s = Circuit.add_gate nc Not [ signal_of_node n' ] in
        neg_sig.(n') <- s;
        s
      end
    end
  in
  (* pre-assign input nodes *)
  for i = 0 to Aig.num_inputs g2 - 1 do
    let node = Aig.node_of (Aig.input_lit g2 i) in
    pos.(node) <- source_signals.(i)
  done;
  let lit_signal l =
    if l = Aig.lit_false then Circuit.const_false nc
    else if l = Aig.lit_true then Circuit.const_true nc
    else signal_neg_aware l
  in
  List.map lit_signal lits

let run ?(rewrite = false) c =
  Circuit.check c;
  let g, env, sources = build_aig c in
  (* sinks: primary outputs, latch data, latch enables *)
  let outs = List.map (fun o -> env.Aig.of_signal.(o)) (Circuit.outputs c) in
  let latch_sinks =
    List.concat_map
      (fun l ->
        let data, enable = Circuit.latch_info c l in
        let d = env.Aig.of_signal.(data) in
        match enable with
        | None -> [ d ]
        | Some e -> [ d; env.Aig.of_signal.(e) ])
      (Circuit.latches c)
  in
  let sinks = outs @ latch_sinks in
  let g, sinks =
    if rewrite then Aig_rewrite.rewrite g ~sinks else (g, sinks)
  in
  let g2, mapped = balance g sinks in
  (* build the new netlist *)
  let nc = Circuit.create (Circuit.name c ^ "_bal") in
  let new_of_src = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let ns =
        match Circuit.driver c s with
        | Input -> Circuit.add_input nc (Circuit.signal_name c s)
        | Latch _ -> Circuit.declare nc ~name:(Circuit.signal_name c s) ()
        | Undriven | Gate _ -> assert false
      in
      Hashtbl.replace new_of_src s ns)
    sources;
  (* inputs of c that never reached the AIG still must exist *)
  List.iter
    (fun s ->
      if not (Hashtbl.mem new_of_src s) then
        Hashtbl.replace new_of_src s (Circuit.add_input nc (Circuit.signal_name c s)))
    (Circuit.inputs c);
  (* latch outputs that are not sources of any cone (dangling) are dropped *)
  let source_signals =
    Array.of_list (List.map (fun s -> Hashtbl.find new_of_src s) sources)
  in
  let mapped_signals = emit_netlist nc g2 source_signals mapped in
  let n_out = List.length (Circuit.outputs c) in
  let out_signals = List.filteri (fun i _ -> i < n_out) mapped_signals in
  let rest = List.filteri (fun i _ -> i >= n_out) mapped_signals in
  (* reconnect latches *)
  let rest = ref rest in
  let take () =
    match !rest with
    | [] -> assert false
    | x :: tl ->
        rest := tl;
        x
  in
  List.iter
    (fun l ->
      let _, enable = Circuit.latch_info c l in
      let data = take () in
      let en = match enable with None -> None | Some _ -> Some (take ()) in
      match Hashtbl.find_opt new_of_src l with
      | Some out -> Circuit.set_latch nc out ?enable:en ~data ()
      | None ->
          (* the latch output feeds nothing: recreate it anyway to keep the
             latch count honest only if it is live; dangling latches are
             dropped (sweep semantics) *)
          ())
    (Circuit.latches c);
  List.iter (Circuit.mark_output nc) out_signals;
  Circuit.check nc;
  nc
