open Vgraph

type result = Distances of int array | Negative_cycle of int list

(* Bellman-Ford with a virtual source: dist starts at 0 for every node.
   Tracks predecessor edges to reconstruct a negative cycle. *)
let solve g =
  let n = Digraph.node_count g in
  let dist = Array.make n 0 in
  let pred = Array.make n (-1) in
  let changed = ref true in
  let rounds = ref 0 in
  while !changed && !rounds <= n do
    changed := false;
    Digraph.iter_edges
      (fun _ (e : Digraph.edge) ->
        if dist.(e.src) + e.weight < dist.(e.dst) then begin
          dist.(e.dst) <- dist.(e.src) + e.weight;
          pred.(e.dst) <- e.src;
          changed := true
        end)
      g;
    incr rounds
  done;
  if not !changed then Distances dist
  else begin
    (* A node updated in round n lies on or reaches a negative cycle: walk
       predecessors n times to land inside the cycle, then collect it. *)
    let v = ref (-1) in
    Digraph.iter_edges
      (fun _ (e : Digraph.edge) ->
        if !v = -1 && dist.(e.src) + e.weight < dist.(e.dst) then v := e.dst)
      g;
    assert (!v >= 0);
    for _ = 1 to n do
      v := pred.(!v)
    done;
    let start = !v in
    let rec collect u acc =
      let p = pred.(u) in
      if p = start then acc else collect p (p :: acc)
    in
    Negative_cycle (start :: collect start [])
  end

let feasible_potentials g =
  match solve g with Distances d -> Some d | Negative_cycle _ -> None
