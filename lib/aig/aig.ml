type lit = int

(* Node storage: fanin arrays; inputs have fanin0 = -1.  Node 0 is the
   constant false. *)
type t = {
  fanin0 : lit Vgraph.Vec.t;
  fanin1 : lit Vgraph.Vec.t;
  levels : int Vgraph.Vec.t;
  strash : (int * int, int) Hashtbl.t; (* (lit0, lit1) with lit0 <= lit1 -> node *)
  inputs : int Vgraph.Vec.t; (* node ids *)
}

let lit_false = 0
let lit_true = 1
let neg l = l lxor 1
let is_complement l = l land 1 = 1
let node_of l = l lsr 1
let mk_lit node compl = (2 * node) lor (if compl then 1 else 0)

let create () =
  let g =
    {
      fanin0 = Vgraph.Vec.create ~dummy:0 ();
      fanin1 = Vgraph.Vec.create ~dummy:0 ();
      levels = Vgraph.Vec.create ~dummy:0 ();
      strash = Hashtbl.create 4096;
      inputs = Vgraph.Vec.create ~dummy:0 ();
    }
  in
  (* constant node *)
  ignore (Vgraph.Vec.push g.fanin0 (-2));
  ignore (Vgraph.Vec.push g.fanin1 (-2));
  ignore (Vgraph.Vec.push g.levels 0);
  g

let node_count g = Vgraph.Vec.length g.fanin0

let input g =
  let n = Vgraph.Vec.push g.fanin0 (-1) in
  ignore (Vgraph.Vec.push g.fanin1 (-1));
  ignore (Vgraph.Vec.push g.levels 0);
  ignore (Vgraph.Vec.push g.inputs n);
  mk_lit n false

let num_inputs g = Vgraph.Vec.length g.inputs
let input_lit g i = mk_lit (Vgraph.Vec.get g.inputs i) false

let is_input_node g n = Vgraph.Vec.get g.fanin0 n = -1

let fanins g n =
  let f0 = Vgraph.Vec.get g.fanin0 n in
  if f0 < 0 then invalid_arg "Aig.fanins: not an AND node";
  (f0, Vgraph.Vec.get g.fanin1 n)

let level g n = Vgraph.Vec.get g.levels n

let and_ g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = lit_false then lit_false
  else if a = lit_true then b
  else if a = b then a
  else if a = neg b then lit_false
  else
    match Hashtbl.find_opt g.strash (a, b) with
    | Some n -> mk_lit n false
    | None ->
        let n = Vgraph.Vec.push g.fanin0 a in
        ignore (Vgraph.Vec.push g.fanin1 b);
        let lv = 1 + max (level g (node_of a)) (level g (node_of b)) in
        ignore (Vgraph.Vec.push g.levels lv);
        Hashtbl.add g.strash (a, b) n;
        mk_lit n false

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
    let f0 = Vgraph.Vec.get g.fanin0 v in
    if f0 = -1 then begin
      vals.(v) <- in_words.(!next_input);
      incr next_input
    end
    else begin
      let f1 = Vgraph.Vec.get g.fanin1 v in
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
    if n > 0 && not (is_input_node g n) then begin
      push (node_of (Vgraph.Vec.get g.fanin0 n));
      push (node_of (Vgraph.Vec.get g.fanin1 n))
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
          w.map.(n) <-
            and_ sub
              (sub_lit (Vgraph.Vec.get g.fanin0 n))
              (sub_lit (Vgraph.Vec.get g.fanin1 n)))
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

let apply_fn g fn ins =
  match (fn : Circuit.gate_fn) with
  | Const b -> if b then lit_true else lit_false
  | Buf -> ins.(0)
  | Not -> neg ins.(0)
  | And -> Array.fold_left (and_ g) lit_true ins
  | Nand -> neg (Array.fold_left (and_ g) lit_true ins)
  | Or -> Array.fold_left (or_ g) lit_false ins
  | Nor -> neg (Array.fold_left (or_ g) lit_false ins)
  | Xor -> Array.fold_left (xor_ g) lit_false ins
  | Xnor -> neg (Array.fold_left (xor_ g) lit_false ins)
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
