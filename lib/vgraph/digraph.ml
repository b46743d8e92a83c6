type edge = { src : int; dst : int; weight : int }

type t = {
  edges : edge Vec.t;
  succs : int list Vec.t; (* node -> outgoing edge ids *)
  preds : int list Vec.t; (* node -> incoming edge ids *)
}

let dummy_edge = { src = -1; dst = -1; weight = 0 }

let create () =
  {
    edges = Vec.create ~dummy:dummy_edge ();
    succs = Vec.create ~dummy:[] ();
    preds = Vec.create ~dummy:[] ();
  }

let add_node g =
  let i = Vec.push g.succs [] in
  let j = Vec.push g.preds [] in
  assert (i = j);
  i

let node_count g = Vec.length g.succs

let add_nodes g n =
  while node_count g < n do
    ignore (add_node g)
  done

let edge_count g = Vec.length g.edges

let check_node g v =
  if v < 0 || v >= node_count g then invalid_arg "Digraph: bad node id"

let add_edge g ?(weight = 0) u v =
  check_node g u;
  check_node g v;
  let id = Vec.push g.edges { src = u; dst = v; weight } in
  Vec.set g.succs u (id :: Vec.get g.succs u);
  Vec.set g.preds v (id :: Vec.get g.preds v);
  id

let edge g id = Vec.get g.edges id

let succ g u = Vec.get g.succs u
let pred g v = Vec.get g.preds v

let iter_edges f g = Vec.iteri (fun id e -> f id e) g.edges

let iter_succ g u f = List.iter (fun id -> f id (edge g id)) (succ g u)
let iter_pred g v f = List.iter (fun id -> f id (edge g id)) (pred g v)

let has_self_loop g u = List.exists (fun id -> (edge g id).dst = u) (succ g u)

let induced g ~keep =
  let t = create () in
  add_nodes t (node_count g);
  iter_edges
    (fun _ e ->
      if keep e.src && keep e.dst then ignore (add_edge t ~weight:e.weight e.src e.dst))
    g;
  t
