(* Reference MFVS, kept as a test oracle for {!Vgraph.Mfvs.solve}: the
   same greedy picks, then a redundancy pass that re-tests every pick with
   a full acyclicity check of the induced graph, O(picks x edges).  The
   shipped pass keeps self-loop picks without the test, so the two must
   return the same set on every graph. *)

open Vgraph

let removed_is_acyclic g removed =
  Topo.is_acyclic (Digraph.induced g ~keep:(fun v -> not removed.(v)))

let solve g ~candidates =
  let n = Digraph.node_count g in
  let alive = Array.make n true in
  let indeg = Array.make n 0 in
  let outdeg = Array.make n 0 in
  let selfloop = Array.make n false in
  Digraph.iter_edges
    (fun _ e ->
      if e.src = e.dst then selfloop.(e.src) <- true
      else begin
        outdeg.(e.src) <- outdeg.(e.src) + 1;
        indeg.(e.dst) <- indeg.(e.dst) + 1
      end)
    g;
  let live_count = ref n in
  let chosen = ref [] in
  let queue = Queue.create () in
  let kill v =
    if alive.(v) then begin
      alive.(v) <- false;
      decr live_count;
      Digraph.iter_succ g v (fun _ e ->
          if e.dst <> v && alive.(e.dst) then begin
            indeg.(e.dst) <- indeg.(e.dst) - 1;
            if indeg.(e.dst) = 0 then Queue.add e.dst queue
          end);
      Digraph.iter_pred g v (fun _ e ->
          if e.src <> v && alive.(e.src) then begin
            outdeg.(e.src) <- outdeg.(e.src) - 1;
            if outdeg.(e.src) = 0 then Queue.add e.src queue
          end)
    end
  in
  let trim () =
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      if alive.(v) && (not selfloop.(v)) && (indeg.(v) = 0 || outdeg.(v) = 0) then kill v
    done
  in
  for v = 0 to n - 1 do
    if (not selfloop.(v)) && (indeg.(v) = 0 || outdeg.(v) = 0) then Queue.add v queue
  done;
  trim ();
  while !live_count > 0 do
    let best = ref (-1) in
    let best_score = ref (-1) in
    for v = 0 to n - 1 do
      if alive.(v) && candidates v then begin
        if selfloop.(v) then begin
          if !best_score < max_int then begin
            best := v;
            best_score := max_int
          end
        end
        else begin
          let score = indeg.(v) * outdeg.(v) in
          if score > !best_score then begin
            best_score := score;
            best := v
          end
        end
      end
    done;
    if !best = -1 then invalid_arg "Mfvs_oracle.solve: a cycle contains no candidate node";
    chosen := !best :: !chosen;
    kill !best;
    trim ()
  done;
  let removed = Array.make n false in
  List.iter (fun v -> removed.(v) <- true) !chosen;
  let final =
    List.filter
      (fun v ->
        removed.(v) <- false;
        if removed_is_acyclic g removed then false
        else begin
          removed.(v) <- true;
          true
        end)
      !chosen
  in
  List.sort compare final
