(* Reference partition layout: the original quadratic clustering and
   graph-scanning extraction, kept as test oracles for {!Cec.Layout} and
   {!Aig.extract}.  Cluster boundaries are cache and store keys, so the
   shipped linear-time versions must reproduce these exactly.

   Clustering allocates and scans a graph-sized mark array per output pair
   and keeps one per group: O(outputs x graph) time, O(groups x graph)
   memory.  Extraction scans the whole graph per cluster. *)

open Cec.Layout

let cone_nodes g roots =
  let seen = Array.make (Aig.node_count g) false in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      if n > 0 && not (Aig.is_input_node g n) then begin
        let f0, f1 = Aig.fanins g n in
        visit (Aig.node_of f0);
        visit (Aig.node_of f1)
      end
    end
  in
  List.iter (fun l -> visit (Aig.node_of l)) roots;
  seen

(* AIG input node -> unroll frame of the variable it carries *)
let input_delays (p : Seqprob.t) =
  let d = Hashtbl.create 64 in
  for i = 0 to Aig.num_inputs p.graph - 1 do
    Hashtbl.replace d
      (Aig.node_of (Aig.input_lit p.graph i))
      (Seqprob.Var.delay p.vars.(i))
  done;
  d

(* Greedy overlap clustering: a pair joins an existing group when at least
   half of the smaller cone (its own, or the group's accumulated one) is
   already covered by the other. *)
type out_group = {
  mutable g_members : int list; (* reversed *)
  marks : bool array; (* accumulated cone marks over AIG nodes *)
  mutable gsize : int; (* marked node count *)
  mutable gdepth : int; (* deepest input frame seen in the group *)
}

let clusters (p : Seqprob.t) =
  let o1 = Array.of_list p.outs1 and o2 = Array.of_list p.outs2 in
  let delays = input_delays p in
  let n = Array.length o1 in
  let groups = ref [] in
  let marked m =
    let acc = ref [] in
    Array.iteri (fun s b -> if b then acc := s :: !acc) m;
    !acc
  in
  for i = 0 to n - 1 do
    let m = cone_nodes p.graph [ o1.(i); o2.(i) ] in
    (* work on the marked-node list so scoring an output against a group
       costs O(|cone|), not O(|graph|) *)
    let nodes = marked m in
    let size = List.length nodes in
    let depth =
      List.fold_left
        (fun acc s ->
          match Hashtbl.find_opt delays s with
          | Some d -> max acc d
          | None -> acc)
        0 nodes
    in
    let best = ref None in
    List.iter
      (fun g ->
        let overlap = ref 0 in
        List.iter (fun s -> if g.marks.(s) then incr overlap) nodes;
        let score = 2 * !overlap in
        if score >= min size g.gsize then
          match !best with
          | Some (bscore, _) when bscore >= score -> ()
          | _ -> best := Some (score, g))
      !groups;
    match !best with
    | Some (_, g) ->
        List.iter
          (fun s ->
            if not g.marks.(s) then begin
              g.marks.(s) <- true;
              g.gsize <- g.gsize + 1
            end)
          nodes;
        g.gdepth <- max g.gdepth depth;
        g.g_members <- i :: g.g_members
    | None ->
        groups :=
          { g_members = [ i ]; marks = m; gsize = size; gdepth = depth }
          :: !groups
  done;
  List.rev_map
    (fun g ->
      let depth = 1 + g.gdepth in
      {
        members = List.rev g.g_members;
        nodes = g.gsize;
        depth;
        cost = estimate ~nodes:g.gsize ~depth;
      })
    !groups

(* The original extraction: copy every marked node in ascending parent id
   order into a fresh AIG.  Returns the sub-AIG, the roots translated into
   it, and the parent input index of each sub input. *)
let extract g roots =
  let keep = cone_nodes g roots in
  let sub = Aig.create () in
  let map = Array.make (Aig.node_count g) (-1) in
  map.(0) <- Aig.lit_false;
  let rev_inputs = ref [] in
  let sub_lit l =
    let m = map.(Aig.node_of l) in
    assert (m >= 0);
    if Aig.is_complement l then Aig.neg m else m
  in
  let input_pos = Hashtbl.create 64 in
  for i = 0 to Aig.num_inputs g - 1 do
    Hashtbl.replace input_pos (Aig.node_of (Aig.input_lit g i)) i
  done;
  for n = 1 to Aig.node_count g - 1 do
    if keep.(n) then
      if Aig.is_input_node g n then begin
        map.(n) <- Aig.input sub;
        rev_inputs := Hashtbl.find input_pos n :: !rev_inputs
      end
      else
        let f0, f1 = Aig.fanins g n in
        map.(n) <- Aig.and_ sub (sub_lit f0) (sub_lit f1)
  done;
  (sub, List.map sub_lit roots, Array.of_list (List.rev !rev_inputs))
