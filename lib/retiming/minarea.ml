open Vgraph
(* Constraints have the form r(u) − r(v) ≤ b.  The LP minimizes
   Σ_v a(v)·r(v) subject to them.

   The objective counts the latches {!Rgraph.apply} keeps: a fanout
   group, the edges u -> v_i of weights w_i that start at one source
   signal, keeps max_i (w_i + r(v_i)) − r(u) latches in one shared chain
   (Leiserson & Saxe's fanout sharing).  A group of one edge adds
   r(v) − r(u) to the objective.  A larger group gets a mirror vertex m
   with r(v_i) − r(m) ≤ w_max − w_i and adds r(m) − r(u); at the optimum
   r(m) = max_i (w_i + r(v_i)) − w_max.  So the objective and the kept
   count differ by a constant: each group's w_max plus the exposed
   latches.  Mirrors are numbered after the vertices. *)

let edge_constraints g =
  (* the two host vertices must retime identically *)
  let acc = ref [ (Rgraph.host, Rgraph.host_sink, 0); (Rgraph.host_sink, Rgraph.host, 0) ] in
  Digraph.iter_edges (fun _ e -> acc := (e.src, e.dst, e.weight) :: !acc) g.Rgraph.graph;
  !acc

(* The objective a over the vertices and mirrors, and the mirrors'
   constraints. *)
let objective (g : Rgraph.t) =
  let n = Rgraph.vertex_count g in
  let groups = Array.map (Array.map (Digraph.edge g.graph)) g.groups in
  let shared = List.filter (fun es -> Array.length es > 1) (Array.to_list groups) in
  let a = Array.make (n + List.length shared) 0 in
  Array.iter
    (fun (es : Digraph.edge array) ->
      a.(es.(0).src) <- a.(es.(0).src) - 1;
      if Array.length es = 1 then a.(es.(0).dst) <- a.(es.(0).dst) + 1)
    groups;
  let mirror m es =
    a.(m) <- 1;
    let wmax = Array.fold_left (fun w (e : Digraph.edge) -> max w e.weight) 0 es in
    Array.to_list (Array.map (fun (e : Digraph.edge) -> (e.dst, m, wmax - e.weight)) es)
  in
  (a, List.concat (List.mapi (fun k es -> mirror (n + k) es) shared))

let internal msg = failwith ("Minarea.solve: internal error: " ^ msg)

(* Steepest descent from [x], a labeling of the vertices and mirrors
   that meets [period] and every constraint.  A step moves the least
   minimum-weight closure of the tight constraints up (or down) by one;
   the closure's blocked nodes are the hosts and the vertices at their
   bound in the step's direction.  The period constraints enter on
   demand: a move whose labeling has a register-free path from s to t
   past the period crossed one latch of that path, from s inside the
   moved set to t outside it (going up), so the pair's constraint
   r(s) − r(t) ≤ (latches on the path) − 1 is tight and cuts the move
   off; the max-flow resumes with its arc.  The least minimizer of a
   relaxation that meets the period is the least minimizer of the full
   step.  The LP is L♮-convex, so a labeling that neither direction
   improves is optimal; from below the least optimum, the least
   minimizers of up steps stay below it. *)
let descend g ~period ~lb ~ub ~a ~base x =
  let n = Rgraph.vertex_count g in
  let nodes = Array.length a in
  let net = Closure.create nodes in
  let timing = Feas.timing g in
  let pairs = Hashtbl.create 64 in
  let y = Array.make nodes 0 in
  let step ~up =
    Obs.span ~name:"minarea.step" @@ fun () ->
    Closure.clear net;
    (* the hosts and the fixed vertices sit at both of their bounds *)
    for v = 0 to nodes - 1 do
      if v < n && x.(v) = (if up then ub.(v) else lb.(v)) then Closure.block net v
      else Closure.set_weight net v (if up then a.(v) else -a.(v))
    done;
    let arc u v b =
      if x.(u) - x.(v) = b then if up then Closure.add_arc net u v else Closure.add_arc net v u
    in
    Array.iter (fun (u, v, b) -> arc u v b) base;
    Hashtbl.iter (fun k b -> arc (k / nodes) (k mod nodes) b) pairs;
    let rec round () =
      Obs.count "minarea.rounds" 1;
      match Closure.solve net with
      | [] -> false
      | moved -> (
          Array.blit x 0 y 0 nodes;
          List.iter (fun v -> y.(v) <- (if up then x.(v) + 1 else x.(v) - 1)) moved;
          match Feas.long_paths timing ~r:y ~period with
          | [] ->
              Array.blit y 0 x 0 nodes;
              Obs.count "minarea.steps" 1;
              true
          | paths ->
              let added = ref 0 in
              List.iter
                (fun (s, t, w) ->
                  if x.(s) - x.(t) <> w - 1 then internal "a long path's pair is not tight";
                  let k = (s * nodes) + t in
                  match Hashtbl.find_opt pairs k with
                  | Some b when b <= w - 1 -> ()
                  | Some _ | None ->
                      Hashtbl.replace pairs k (w - 1);
                      incr added;
                      arc s t (w - 1))
                paths;
              if !added = 0 then internal "no new period pair";
              Obs.count "minarea.period_pairs" !added;
              round ())
    in
    round ()
  in
  while step ~up:true || step ~up:false do
    ()
  done

let solve ?period g =
  Obs.span ~name:"minarea.solve" @@ fun () ->
  let n = Rgraph.vertex_count g in
  (* no register-free path is longer than the total delay *)
  let period = match period with Some c -> c | None -> Array.fold_left ( + ) 0 g.delay in
  match Feas.bounds g ~period with
  | None -> None
  | Some { Feas.lb; ub } ->
      let a, mirror_constraints = objective g in
      let base = Array.of_list (edge_constraints g @ mirror_constraints) in
      (* the least solution, except that the vertices the host cannot
         reach have no lower bound and start at their upper one *)
      let start = Array.init n (fun v -> if lb.(v) = -Feas.unbounded then ub.(v) else lb.(v)) in
      let start =
        if not (Array.exists (fun x -> x = -Feas.unbounded) lb) then start
        else
          match Feas.least_above g ~period start with
          | Some r -> r
          | None -> internal "no solution above the start"
      in
      let x = Array.append start (Array.make (Array.length a - n) min_int) in
      List.iter (fun (v, m, b) -> x.(m) <- max x.(m) (x.(v) - b)) mirror_constraints;
      Obs.count "minarea.fixed_vertices"
        (List.length (List.filter (fun v -> lb.(v) = ub.(v)) (List.init n Fun.id)));
      Obs.count "minarea.mirrors" (Array.length a - n);
      descend g ~period ~lb ~ub ~a ~base x;
      let r = Array.sub x 0 n in
      let satisfied (u, v, b) = x.(u) - x.(v) <= b in
      if not (Array.for_all satisfied base && Rgraph.is_legal g ~r) then
        internal "labels break their constraints";
      if Feas.period_of g ~r > period then internal "labels miss the period";
      Some r
