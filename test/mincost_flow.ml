open Vgraph

type arc = { src : int; dst : int; capacity : int; cost : int }

type result = { flow : int array; potentials : int array; total_cost : int }

(* Paired-arc residual encoding: arc [2i] is forward arc [i], arc [2i+1]
   its reverse; [head.(a)], [tail.(a)], [res.(a)] (residual capacity),
   [cost_.(a)]. *)

(* ------------------------------------------------------------------ *)
(* Scaling successive-shortest-paths core.                             *)
(*                                                                     *)
(* Data layout: CSR adjacency (one flat [int array] of residual-arc    *)
(* ids indexed by an offset table) instead of an [int list] per node;  *)
(* one set of distance / parent / settled scratch arrays reset via a   *)
(* touched list, so an augmentation allocates nothing; heap entries    *)
(* are [(dist lsl node_bits) lor node] in an unboxed int heap.         *)
(*                                                                     *)
(* Capacity scaling (Ahuja–Magnanti–Orlin): phases with Δ halving from *)
(* the largest power of two ≤ max |supply|.  Each phase first          *)
(* saturates every Δ-residual arc whose reduced cost went negative     *)
(* while it was below Δ, restoring reduced-cost feasibility of the     *)
(* Δ-network, then routes from nodes with excess ≥ Δ to nodes with     *)
(* deficit ≥ Δ along shortest reduced-cost paths.  Dijkstra stops at   *)
(* the first settled deficit node; the potential update               *)
(* [π(v) += d(v) − D] for settled [v] only (a uniform shift of the     *)
(* unsettled rest is a no-op on reduced costs) keeps the update        *)
(* O(settled) instead of O(V).                                         *)
(* ------------------------------------------------------------------ *)

let solve ?init_potentials ~nodes ~arcs supply =
  Obs.span ~name:"flow.solve" @@ fun () ->
  let arcs_a = Array.of_list arcs in
  let m = Array.length arcs_a in
  if Array.length supply <> nodes then invalid_arg "Mincost_flow.solve: supply size";
  if Array.fold_left ( + ) 0 supply <> 0 then
    invalid_arg "Mincost_flow.solve: supplies must sum to zero";
  let head = Array.make (2 * m) 0 in
  let tail = Array.make (2 * m) 0 in
  let res = Array.make (2 * m) 0 in
  let cost_ = Array.make (2 * m) 0 in
  Array.iteri
    (fun i a ->
      if a.capacity < 0 then invalid_arg "Mincost_flow.solve: negative capacity";
      if a.src < 0 || a.src >= nodes || a.dst < 0 || a.dst >= nodes then
        invalid_arg "Mincost_flow.solve: arc endpoint out of range";
      let f = 2 * i and b = (2 * i) + 1 in
      head.(f) <- a.dst;
      tail.(f) <- a.src;
      res.(f) <- a.capacity;
      cost_.(f) <- a.cost;
      head.(b) <- a.src;
      tail.(b) <- a.dst;
      res.(b) <- 0;
      cost_.(b) <- -a.cost)
    arcs_a;
  (* CSR adjacency keyed by tail, built by counting sort. *)
  let off = Array.make (nodes + 1) 0 in
  for a = 0 to (2 * m) - 1 do
    off.(tail.(a) + 1) <- off.(tail.(a) + 1) + 1
  done;
  for v = 1 to nodes do
    off.(v) <- off.(v) + off.(v - 1)
  done;
  let adj = Array.make (2 * m) 0 in
  let cursor = Array.copy off in
  for a = 0 to (2 * m) - 1 do
    let v = tail.(a) in
    adj.(cursor.(v)) <- a;
    cursor.(v) <- cursor.(v) + 1
  done;
  let excess = Array.copy supply in
  let pi =
    match init_potentials with
    | Some p ->
        if Array.length p <> nodes then
          invalid_arg "Mincost_flow.solve: init_potentials size";
        let pi = Array.copy p in
        for a = 0 to (2 * m) - 1 do
          if res.(a) > 0 && cost_.(a) + pi.(tail.(a)) - pi.(head.(a)) < 0 then
            invalid_arg "Mincost_flow.solve: init_potentials not reduced-cost feasible"
        done;
        pi
    | None ->
        (* Bellman–Ford from a virtual source over residual arcs with
           capacity (handles negative arc costs).  Distances from an
           all-zero start converge within [nodes] passes; a pass that still
           relaxes after that exposes a negative-cost cycle. *)
        let dist = Array.make nodes 0 in
        let changed = ref true in
        let rounds = ref 0 in
        while !changed do
          if !rounds >= nodes then
            invalid_arg "Mincost_flow.solve: negative-cost cycle";
          changed := false;
          incr rounds;
          for a = 0 to (2 * m) - 1 do
            if res.(a) > 0 && dist.(tail.(a)) + cost_.(a) < dist.(head.(a)) then begin
              dist.(head.(a)) <- dist.(tail.(a)) + cost_.(a);
              changed := true
            end
          done
        done;
        dist
  in
  (* Dijkstra scratch, reset via the touched list after every search. *)
  let node_bits =
    let b = ref 1 in
    while 1 lsl !b < nodes do incr b done;
    !b
  in
  let node_mask = (1 lsl node_bits) - 1 in
  let max_dist = max_int asr (node_bits + 1) in
  let d = Array.make (max nodes 1) max_int in
  let parent = Array.make (max nodes 1) (-1) in
  let settled = Array.make (max nodes 1) false in
  let touched = Array.make (max nodes 1) 0 in
  let ntouched = ref 0 in
  let heap = Iheap.create () in
  let touch v =
    if d.(v) = max_int then begin
      touched.(!ntouched) <- v;
      incr ntouched
    end
  in
  let reset_search () =
    for i = 0 to !ntouched - 1 do
      let v = touched.(i) in
      d.(v) <- max_int;
      parent.(v) <- -1;
      settled.(v) <- false
    done;
    ntouched := 0;
    Iheap.clear heap
  in
  let augmentations = ref 0 in
  let saturations = ref 0 in
  (* Shortest reduced-cost path from [s] in the Δ-residual network, stopping
     at the first settled node with excess ≤ −Δ.  Returns that node or −1. *)
  let dijkstra ~delta s =
    touch s;
    d.(s) <- 0;
    Iheap.add heap s;
    let found = ref (-1) in
    while !found = -1 && not (Iheap.is_empty heap) do
      let e = Iheap.pop_min heap in
      let v = e land node_mask in
      let dv = e asr node_bits in
      if (not settled.(v)) && dv = d.(v) then begin
        settled.(v) <- true;
        if excess.(v) <= -delta then found := v
        else
          for k = off.(v) to off.(v + 1) - 1 do
            let a = adj.(k) in
            if res.(a) >= delta then begin
              let w = head.(a) in
              if not settled.(w) then begin
                let rc = cost_.(a) + pi.(v) - pi.(w) in
                assert (rc >= 0);
                let nd = dv + rc in
                if nd < d.(w) then begin
                  if nd > max_dist then
                    invalid_arg "Mincost_flow.solve: distance overflow";
                  touch w;
                  d.(w) <- nd;
                  parent.(w) <- a;
                  Iheap.add heap ((nd lsl node_bits) lor w)
                end
              end
            end
          done
      end
    done;
    !found
  in
  let maxex = Array.fold_left (fun acc e -> max acc (abs e)) 0 excess in
  let delta = ref 1 in
  while 2 * !delta <= maxex do
    delta := 2 * !delta
  done;
  let sources = Array.make (max nodes 1) 0 in
  let nsources = ref 0 in
  while !delta >= 1 do
    let dl = !delta in
    (* Restore reduced-cost feasibility of the Δ-network: saturate every
       Δ-residual arc with negative reduced cost. *)
    for a = 0 to (2 * m) - 1 do
      if res.(a) >= dl && cost_.(a) + pi.(tail.(a)) - pi.(head.(a)) < 0 then begin
        let r = res.(a) in
        excess.(tail.(a)) <- excess.(tail.(a)) - r;
        excess.(head.(a)) <- excess.(head.(a)) + r;
        res.(a lxor 1) <- res.(a lxor 1) + r;
        res.(a) <- 0;
        incr saturations
      end
    done;
    nsources := 0;
    for v = 0 to nodes - 1 do
      if excess.(v) >= dl then begin
        sources.(!nsources) <- v;
        incr nsources
      end
    done;
    while !nsources > 0 do
      nsources := !nsources - 1;
      let s = sources.(!nsources) in
      if excess.(s) >= dl then begin
        let t = dijkstra ~delta:dl s in
        if t >= 0 then begin
          let dt = d.(t) in
          (* π(v) += d(v) − D for settled v; the implicit uniform +D on the
             rest cancels in every reduced cost. *)
          for i = 0 to !ntouched - 1 do
            let v = touched.(i) in
            if settled.(v) then pi.(v) <- pi.(v) + d.(v) - dt
          done;
          let rec bottleneck v acc =
            let a = parent.(v) in
            if a = -1 then acc else bottleneck tail.(a) (min acc res.(a))
          in
          let amount = min (min excess.(s) (-excess.(t))) (bottleneck t max_int) in
          assert (amount >= dl);
          let rec push v =
            let a = parent.(v) in
            if a <> -1 then begin
              res.(a) <- res.(a) - amount;
              res.(a lxor 1) <- res.(a lxor 1) + amount;
              push tail.(a)
            end
          in
          push t;
          excess.(s) <- excess.(s) - amount;
          excess.(t) <- excess.(t) + amount;
          incr augmentations;
          if excess.(s) >= dl then begin
            sources.(!nsources) <- s;
            incr nsources
          end
        end;
        reset_search ()
        (* no reachable deficit at this Δ: retry s at a smaller Δ *)
      end
    done;
    delta := dl / 2
  done;
  Obs.count "flow.augmentations" !augmentations;
  Obs.count "flow.saturations" !saturations;
  Obs.attr (fun () ->
      [ ("nodes", Obs.Int nodes);
        ("arcs", Obs.Int m);
        ("augmentations", Obs.Int !augmentations) ]);
  if Array.exists (fun e -> e > 0) excess then None
  else begin
    let flow = Array.make m 0 in
    let total = ref 0 in
    Array.iteri
      (fun i a ->
        let f = res.((2 * i) + 1) in
        flow.(i) <- f;
        total := !total + (f * a.cost))
      arcs_a;
    Some { flow; potentials = pi; total_cost = !total }
  end
