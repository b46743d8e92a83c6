type lit = int

(* Node storage: one int per node.  An AND node holds its ordered fanin
   pair packed as [(lit0 lsl 31) lor lit1] (lit0 <= lit1), which is also
   its structural-hash key; an input holds -1, and node 0, the constant
   false, holds -2. *)
type t = {
  nodes : int Vgraph.Vec.t;
  levels : int Vgraph.Vec.t; (* filled up to the highest node asked for *)
  strash : Vgraph.Itbl.t; (* packed fanin pair -> AND node *)
  inputs : int Vgraph.Vec.t; (* node ids *)
}

let lit_false = 0
let lit_true = 1
let neg l = l lxor 1
let is_complement l = l land 1 = 1
let node_of l = l lsr 1
let mk_lit node compl = (2 * node) lor (if compl then 1 else 0)

(* Literals stay below 2^31, so a fanin pair packs into one int *)
let max_nodes = 1 lsl 30
let fanin0_of p = p lsr 31
let fanin1_of p = p land 0x7FFF_FFFF

let create () =
  let g =
    {
      nodes = Vgraph.Vec.create ~dummy:0 ();
      levels = Vgraph.Vec.create ~dummy:0 ();
      strash = Vgraph.Itbl.create 64;
      inputs = Vgraph.Vec.create ~dummy:0 ();
    }
  in
  ignore (Vgraph.Vec.push g.nodes (-2));
  g

let node_count g = Vgraph.Vec.length g.nodes

(* The id the next node gets *)
let next_node g =
  let n = node_count g in
  if n >= max_nodes then invalid_arg "Aig: more than 2^30 nodes";
  n

let input g =
  let n = next_node g in
  ignore (Vgraph.Vec.push g.nodes (-1));
  ignore (Vgraph.Vec.push g.inputs n);
  mk_lit n false

let num_inputs g = Vgraph.Vec.length g.inputs
let input_lit g i = mk_lit (Vgraph.Vec.get g.inputs i) false

let is_input_node g n = Vgraph.Vec.get g.nodes n = -1

let fanins g n =
  let p = Vgraph.Vec.get g.nodes n in
  if p < 0 then invalid_arg "Aig.fanins: not an AND node";
  (fanin0_of p, fanin1_of p)

(* Levels are computed when first asked for, in id order (fanins come
   first), so only a graph whose levels are read pays for them *)
let level g n =
  if n < 0 || n >= node_count g then invalid_arg "Aig.level: no such node";
  for m = Vgraph.Vec.length g.levels to n do
    let p = Vgraph.Vec.get g.nodes m in
    let lv =
      if p < 0 then 0
      else
        1
        + max
            (Vgraph.Vec.get g.levels (node_of (fanin0_of p)))
            (Vgraph.Vec.get g.levels (node_of (fanin1_of p)))
    in
    ignore (Vgraph.Vec.push g.levels lv)
  done;
  Vgraph.Vec.get g.levels n

let rec and_ g a b =
  if a > b then and_ g b a
  else if a = lit_false then lit_false
  else if a = lit_true then b
  else if a = b then a
  else if a = neg b then lit_false
  else
    let p = (a lsl 31) lor b in
    let n = next_node g in
    match Vgraph.Itbl.find_or_add g.strash p n with
    | -1 ->
        ignore (Vgraph.Vec.push g.nodes p);
        mk_lit n false
    | m -> mk_lit m false

let or_ g a b = neg (and_ g (neg a) (neg b))

let xor_ g a b =
  (* a xor b = (a + b)(~a + ~b) *)
  and_ g (or_ g a b) (neg (and_ g a b))

let mux g s t e = or_ g (and_ g s t) (and_ g (neg s) e)

let and_list g = List.fold_left (and_ g) lit_true

let and_count g =
  let c = ref 0 in
  for n = 1 to node_count g - 1 do
    if not (is_input_node g n) then incr c
  done;
  !c

let simulate g in_words =
  if Array.length in_words <> num_inputs g then
    invalid_arg "Aig.simulate: wrong number of input words";
  let n = node_count g in
  let vals = Array.make n 0L in
  let next_input = ref 0 in
  for v = 1 to n - 1 do
    let p = Vgraph.Vec.get g.nodes v in
    if p = -1 then begin
      vals.(v) <- in_words.(!next_input);
      incr next_input
    end
    else begin
      let f0 = fanin0_of p and f1 = fanin1_of p in
      let w0 = vals.(node_of f0) in
      let w0 = if is_complement f0 then Int64.lognot w0 else w0 in
      let w1 = vals.(node_of f1) in
      let w1 = if is_complement f1 then Int64.lognot w1 else w1 in
      vals.(v) <- Int64.logand w0 w1
    end
  done;
  vals

let sim_lit vals l =
  let w = vals.(node_of l) in
  if is_complement l then Int64.lognot w else w

let eval g env l =
  if Array.length env <> num_inputs g then invalid_arg "Aig.eval: env size";
  let words = Array.map (fun b -> if b then 1L else 0L) env in
  let vals = simulate g words in
  Int64.logand (sim_lit vals l) 1L = 1L

let cone_inputs g groups =
  let seen = Array.make (node_count g) false in
  let acc = ref [] in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      if is_input_node g n then acc := n :: !acc
      else if n > 0 then begin
        let f0, f1 = fanins g n in
        visit (node_of f0);
        visit (node_of f1)
      end
    end
  in
  List.iter (List.iter (fun l -> visit (node_of l))) groups;
  List.rev !acc

(* Cone traversal scratch, sized for one graph and reused across cones:
   [stamp.(n) = pass] marks [n] visited by the current traversal, so a
   cone costs O(cone) however many are taken, and nothing graph-sized is
   allocated or scanned per cone. *)
type walk = {
  graph : t;
  stamp : int array;
  mutable pass : int;
  stack : int Vgraph.Vec.t;
  cone : int Vgraph.Vec.t;
  map : lit array; (* extraction: parent node -> sub literal *)
  input_pos : int array; (* input node -> input index, -1 elsewhere *)
}

let walk g =
  let n = node_count g in
  let input_pos = Array.make n (-1) in
  Vgraph.Vec.iteri (fun i node -> input_pos.(node) <- i) g.inputs;
  let map = Array.make n (-1) in
  map.(0) <- lit_false;
  {
    graph = g;
    stamp = Array.make n 0;
    pass = 0;
    stack = Vgraph.Vec.create ~dummy:0 ();
    cone = Vgraph.Vec.create ~dummy:0 ();
    map;
    input_pos;
  }

let cone w roots =
  let g = w.graph in
  w.pass <- w.pass + 1;
  Vgraph.Vec.clear w.cone;
  let push n =
    if w.stamp.(n) <> w.pass then begin
      w.stamp.(n) <- w.pass;
      ignore (Vgraph.Vec.push w.cone n);
      ignore (Vgraph.Vec.push w.stack n)
    end
  in
  List.iter (fun l -> push (node_of l)) roots;
  while not (Vgraph.Vec.is_empty w.stack) do
    let n = Vgraph.Vec.pop w.stack in
    let p = Vgraph.Vec.get g.nodes n in
    if p >= 0 then begin
      push (node_of (fanin0_of p));
      push (node_of (fanin1_of p))
    end
  done;
  w.cone

type extraction = { sub : t; roots : lit list; sub_inputs : int array }

let extract w roots =
  let g = w.graph in
  let c = cone w roots in
  let nodes = Array.init (Vgraph.Vec.length c) (Vgraph.Vec.get c) in
  Array.sort (fun (a : int) b -> compare a b) nodes;
  let sub = create () in
  let sub_lit l =
    let m = w.map.(node_of l) in
    if is_complement l then neg m else m
  in
  let rev_inputs = ref [] in
  (* parent ids are topologically ordered: copying the cone in ascending
     id order builds fanins before their ANDs and numbers the sub-AIG's
     nodes and inputs in parent order *)
  Array.iter
    (fun n ->
      if n > 0 then
        if is_input_node g n then begin
          w.map.(n) <- input sub;
          rev_inputs := w.input_pos.(n) :: !rev_inputs
        end
        else
          let p = Vgraph.Vec.get g.nodes n in
          w.map.(n) <- and_ sub (sub_lit (fanin0_of p)) (sub_lit (fanin1_of p)))
    nodes;
  {
    sub;
    roots = List.map sub_lit roots;
    sub_inputs = Array.of_list (List.rev !rev_inputs);
  }

let cone_signature g ~input_label groups =
  let buf = Buffer.create 1024 in
  let canon = Hashtbl.create 256 in
  (* node -> canonical id *)
  let next = ref 0 in
  let canon_lit l =
    (2 * Hashtbl.find canon (node_of l)) lor (if is_complement l then 1 else 0)
  in
  let rec visit n =
    if not (Hashtbl.mem canon n) then
      if n = 0 then begin
        Hashtbl.add canon n !next;
        incr next;
        Buffer.add_string buf "K;"
      end
      else if is_input_node g n then begin
        Hashtbl.add canon n !next;
        incr next;
        Buffer.add_char buf 'I';
        Buffer.add_string buf (input_label n);
        Buffer.add_char buf ';'
      end
      else begin
        let f0, f1 = fanins g n in
        visit (node_of f0);
        visit (node_of f1);
        Hashtbl.add canon n !next;
        incr next;
        Buffer.add_char buf 'A';
        Buffer.add_string buf (string_of_int (canon_lit f0));
        Buffer.add_char buf ',';
        Buffer.add_string buf (string_of_int (canon_lit f1));
        Buffer.add_char buf ';'
      end
  in
  List.iter
    (fun roots ->
      List.iter (fun l -> visit (node_of l)) roots;
      Buffer.add_char buf '[';
      List.iter
        (fun l ->
          Buffer.add_string buf (string_of_int (canon_lit l));
          Buffer.add_char buf ' ')
        roots;
      Buffer.add_char buf ']')
    groups;
  Buffer.contents buf

(* [Array.fold_left (f g) init ins] without a closure per gate: the
   n-ary gates fold left to right from their identity *)
let fold_lits f g init ins =
  let acc = ref init in
  for i = 0 to Array.length ins - 1 do
    acc := f g !acc ins.(i)
  done;
  !acc

let apply_fn g fn ins =
  match (fn : Circuit.gate_fn) with
  | Const b -> if b then lit_true else lit_false
  | Buf -> ins.(0)
  | Not -> neg ins.(0)
  | And -> fold_lits and_ g lit_true ins
  | Nand -> neg (fold_lits and_ g lit_true ins)
  | Or -> fold_lits or_ g lit_false ins
  | Nor -> neg (fold_lits or_ g lit_false ins)
  | Xor -> fold_lits xor_ g lit_false ins
  | Xnor -> neg (fold_lits xor_ g lit_false ins)
  | Mux -> mux g ins.(0) ins.(1) ins.(2)

type env = { of_signal : lit array }

let of_circuit_comb g c ~source =
  let n = Circuit.signal_count c in
  let of_signal = Array.make n (-1) in
  for s = 0 to n - 1 do
    match Circuit.driver c s with
    | Input | Latch _ -> of_signal.(s) <- source s
    | Undriven | Gate _ -> ()
  done;
  let lit_of s =
    let l = of_signal.(s) in
    assert (l >= 0);
    l
  in
  List.iter
    (fun s ->
      match Circuit.driver c s with
      | Gate (fn, fs) -> of_signal.(s) <- apply_fn g fn (Array.map lit_of fs)
      | Undriven | Input | Latch _ -> ())
    (Circuit.comb_topo c);
  { of_signal }
