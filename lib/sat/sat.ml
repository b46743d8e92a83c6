(* CDCL solver in the MiniSat lineage.
   Internal literal encoding: lit = 2*var for the positive literal, 2*var+1
   for the negation (var >= 1).  [neg l = l lxor 1], [var l = l lsr 1]. *)

module Order = Order

type clause = {
  mutable lits : int array;
  mutable activity : float;
  learned : bool;
  mutable dead : bool;
}

type t = {
  mutable num_vars : int;
  clauses : clause Vgraph.Vec.t;
  mutable learnts : int list; (* indices of learned clauses *)
  mutable num_learnts : int;
  mutable watches : int Vgraph.Vec.t array; (* lit -> clause indices *)
  mutable assign : int array; (* var -> -1 undef / 0 false / 1 true *)
  mutable level : int array;
  mutable reason : int array; (* var -> clause index or -1 *)
  mutable polarity : bool array; (* saved phase *)
  mutable seen : bool array;
  trail : int Vgraph.Vec.t;
  trail_lim : int Vgraph.Vec.t;
  mutable qhead : int;
  order : Order.t; (* VSIDS activities and decision heap *)
  mutable cla_inc : float;
  mutable ok : bool; (* false once a top-level conflict is found *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable max_learnts : int;
}

type result = Sat | Unsat | Unknown

type budget = {
  max_conflicts : int option;
  max_propagations : int option;
  max_seconds : float option;
}

let budget ?conflicts ?propagations ?seconds () =
  {
    max_conflicts = conflicts;
    max_propagations = propagations;
    max_seconds = seconds;
  }

let create () =
  {
    num_vars = 0;
    clauses = Vgraph.Vec.create ~dummy:{ lits = [||]; activity = 0.; learned = false; dead = true } ();
    learnts = [];
    num_learnts = 0;
    watches = Array.init 4 (fun _ -> Vgraph.Vec.create ~dummy:(-1) ());
    assign = Array.make 4 (-1);
    level = Array.make 4 0;
    reason = Array.make 4 (-1);
    polarity = Array.make 4 false;
    seen = Array.make 4 false;
    trail = Vgraph.Vec.create ~dummy:0 ();
    trail_lim = Vgraph.Vec.create ~dummy:0 ();
    qhead = 0;
    order = Order.create ();
    cla_inc = 1.0;
    ok = true;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    max_learnts = 8192;
  }

let grow_arrays s n =
  let old = Array.length s.assign in
  if n >= old then begin
    let size = max (2 * old) (n + 1) in
    let extend a fill =
      let b = Array.make size fill in
      Array.blit a 0 b 0 old;
      b
    in
    s.assign <- extend s.assign (-1);
    s.level <- extend s.level 0;
    s.reason <- extend s.reason (-1);
    s.polarity <- extend s.polarity false;
    s.seen <- extend s.seen false
  end;
  let oldw = Array.length s.watches in
  let wsize = (2 * n) + 2 in
  if wsize > oldw then begin
    let w =
      Array.init (max wsize (2 * oldw)) (fun i ->
          if i < oldw then s.watches.(i) else Vgraph.Vec.create ~dummy:(-1) ())
    in
    s.watches <- w
  end

let new_var s =
  s.num_vars <- s.num_vars + 1;
  grow_arrays s s.num_vars;
  Order.new_var s.order;
  s.num_vars

let ensure_var s v = while s.num_vars < v do ignore (new_var s) done

(* lit helpers *)
let neg l = l lxor 1
let var_of l = l lsr 1
let of_dimacs d =
  if d = 0 then invalid_arg "Sat: literal 0";
  let v = abs d in
  if d > 0 then 2 * v else (2 * v) + 1

let lit_value s l =
  let a = s.assign.(var_of l) in
  if a = -1 then -1 else a lxor (l land 1)

let decision_level s = Vgraph.Vec.length s.trail_lim

let enqueue s l reason =
  s.assign.(var_of l) <- 1 lxor (l land 1);
  s.level.(var_of l) <- decision_level s;
  s.reason.(var_of l) <- reason;
  ignore (Vgraph.Vec.push s.trail l)

let cla_bump s c =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    List.iter
      (fun i ->
        let cl = Vgraph.Vec.get s.clauses i in
        cl.activity <- cl.activity *. 1e-20)
      s.learnts;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay s = s.cla_inc <- s.cla_inc /. 0.999

let watch s l ci = ignore (Vgraph.Vec.push s.watches.(l) ci)

(* Attach a clause of length >= 2. *)
let attach s ci =
  let c = Vgraph.Vec.get s.clauses ci in
  watch s c.lits.(0) ci;
  watch s c.lits.(1) ci

let add_clause_internal s lits ~learned =
  let c = { lits; activity = 0.; learned; dead = false } in
  let ci = Vgraph.Vec.push s.clauses c in
  if Array.length lits >= 2 then attach s ci;
  if learned then begin
    s.learnts <- ci :: s.learnts;
    s.num_learnts <- s.num_learnts + 1
  end;
  ci

(* Unit propagation; returns conflicting clause index or -1.  Each
   propagated literal's watch list is compacted in place: [j] trails [i]
   over the watches that stay, in their order, while dead clauses and
   watches moved to another literal drop out. *)
let propagate s =
  let confl = ref (-1) in
  while !confl = -1 && s.qhead < Vgraph.Vec.length s.trail do
    let p = Vgraph.Vec.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = neg p in
    let ws = s.watches.(false_lit) in
    let n = Vgraph.Vec.length ws in
    let i = ref 0 and j = ref 0 in
    let keep ci =
      Vgraph.Vec.set ws !j ci;
      incr j
    in
    while !i < n do
      let ci = Vgraph.Vec.get ws !i in
      incr i;
      let c = Vgraph.Vec.get s.clauses ci in
      if not c.dead then begin
        let lits = c.lits in
        (* ensure false_lit is lits.(1) *)
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        if lit_value s lits.(0) = 1 then keep ci
        else begin
          (* search replacement watch *)
          let len = Array.length lits in
          let k = ref 2 in
          while !k < len && lit_value s lits.(!k) = 0 do
            incr k
          done;
          if !k < len then begin
            lits.(1) <- lits.(!k);
            lits.(!k) <- false_lit;
            watch s lits.(1) ci
          end
          else begin
            keep ci;
            if lit_value s lits.(0) = 0 then begin
              (* conflict: retain remaining watches *)
              confl := ci;
              while !i < n do
                keep (Vgraph.Vec.get ws !i);
                incr i
              done
            end
            else enqueue s lits.(0) ci
          end
        end
      end
    done;
    Vgraph.Vec.shrink ws !j
  done;
  !confl

let backtrack s lvl =
  if decision_level s > lvl then begin
    let bound = Vgraph.Vec.get s.trail_lim lvl in
    for i = Vgraph.Vec.length s.trail - 1 downto bound do
      let l = Vgraph.Vec.get s.trail i in
      let v = var_of l in
      s.assign.(v) <- -1;
      s.polarity.(v) <- l land 1 = 0;
      s.reason.(v) <- -1;
      Order.insert s.order v
    done;
    Vgraph.Vec.shrink s.trail bound;
    Vgraph.Vec.shrink s.trail_lim lvl;
    s.qhead <- min s.qhead bound
  end

let add_clause s lits =
  if s.ok then begin
    (* a previous Sat answer may have left a full assignment in place; the
       root-level simplifications below must only see root facts *)
    backtrack s 0;
    let lits = List.map (of_dimacs) lits in
    List.iter (fun l -> ensure_var s (var_of l)) lits;
    (* simplify: skip satisfied clauses, drop false lits; sorted, a
       tautology shows as adjacent [l], [l lxor 1] *)
    if not (List.exists (fun l -> lit_value s l = 1) lits) then begin
      let lits =
        List.sort_uniq Int.compare (List.filter (fun l -> lit_value s l <> 0) lits)
      in
      let rec taut = function
        | a :: (b :: _ as rest) -> neg a = b || taut rest
        | _ -> false
      in
      if not (taut lits) then
        match lits with
        | [] -> s.ok <- false
        | [ l ] ->
            enqueue s l (-1);
            if propagate s <> -1 then s.ok <- false
        | lits -> ignore (add_clause_internal s (Array.of_list lits) ~learned:false)
    end
  end

(* First-UIP conflict analysis.  Returns (learnt lits with asserting literal
   first, backtrack level). *)
let analyze s confl =
  let learnt = ref [] in
  let counter = ref 0 in
  let p = ref (-1) in
  let index = ref (Vgraph.Vec.length s.trail - 1) in
  let confl = ref confl in
  let continue = ref true in
  while !continue do
    let c = Vgraph.Vec.get s.clauses !confl in
    if c.learned then cla_bump s c;
    Array.iter
      (fun q ->
        if q <> !p then begin
          let v = var_of q in
          if (not s.seen.(v)) && s.level.(v) > 0 then begin
            s.seen.(v) <- true;
            Order.bump s.order v;
            if s.level.(v) >= decision_level s then incr counter
            else learnt := q :: !learnt
          end
        end)
      c.lits;
    (* next literal to resolve on *)
    let rec find () =
      let l = Vgraph.Vec.get s.trail !index in
      decr index;
      if s.seen.(var_of l) then l else find ()
    in
    let l = find () in
    p := l;
    s.seen.(var_of l) <- false;
    decr counter;
    if !counter = 0 then continue := false
    else begin
      let r = s.reason.(var_of l) in
      assert (r <> -1);
      confl := r
    end
  done;
  let asserting = neg !p in
  (* compute backtrack level and clear seen *)
  let bt = List.fold_left (fun acc q -> max acc s.level.(var_of q)) 0 !learnt in
  List.iter (fun q -> s.seen.(var_of q) <- false) !learnt;
  (* asserting literal first; a literal of backtrack level second *)
  let tail =
    match !learnt with
    | [] -> []
    | lits ->
        let at_bt, rest = List.partition (fun q -> s.level.(var_of q) = bt) lits in
        (match at_bt with
        | [] -> assert false
        | w :: others -> w :: (others @ rest))
  in
  (Array.of_list (asserting :: tail), bt)

let reduce_db s =
  let arr =
    List.filter_map
      (fun ci ->
        let c = Vgraph.Vec.get s.clauses ci in
        if c.dead then None else Some (ci, c))
      s.learnts
  in
  let locked (_, c) =
    Array.length c.lits > 0
    &&
    let v = var_of c.lits.(0) in
    s.assign.(v) <> -1 && s.reason.(v) <> -1
    && Vgraph.Vec.get s.clauses s.reason.(v) == c
  in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a.activity b.activity) arr in
  let target = List.length sorted / 2 in
  let killed = ref 0 in
  List.iter
    (fun (_, c) ->
      if !killed < target && (not (locked ((), c))) && Array.length c.lits > 2 then begin
        c.dead <- true;
        incr killed
      end)
    (List.map (fun (ci, c) -> (ci, c)) sorted);
  s.learnts <- List.filter_map (fun (ci, c) -> if c.dead then None else Some ci) arr;
  s.num_learnts <- List.length s.learnts

(* The heap holds every unassigned variable, so an empty heap means a
   full assignment.  Assigned variables left in it are dropped here. *)
let rec pick_branch s =
  if Order.is_empty s.order then -1
  else
    let v = Order.pop s.order in
    if s.assign.(v) = -1 then v else pick_branch s

(* Luby sequence (1-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... *)
let rec luby i =
  let k = ref 1 in
  while (1 lsl !k) - 1 < i do
    incr k
  done;
  if (1 lsl !k) - 1 = i then 1 lsl (!k - 1)
  else luby (i - (1 lsl (!k - 1)) + 1)

let solve_body ~assumptions ?budget ?cancel s =
  if not s.ok then Unsat
  else begin
    let assumptions = List.map of_dimacs assumptions in
    List.iter (fun l -> ensure_var s (var_of l)) assumptions;
    let n_assumps = List.length assumptions in
    let assump = Array.of_list assumptions in
    backtrack s 0;
    (* absolute caps, so re-solving a shared solver gets a fresh budget *)
    let conflict_cap =
      match budget with
      | Some { max_conflicts = Some n; _ } -> s.conflicts + n
      | _ -> max_int
    in
    let prop_cap =
      match budget with
      | Some { max_propagations = Some n; _ } -> s.propagations + n
      | _ -> max_int
    in
    (* monotonic: an NTP step must not blow (or extend) the time slice *)
    let deadline =
      match budget with
      | Some { max_seconds = Some sec; _ } -> Obs.Clock.now () +. sec
      | _ -> infinity
    in
    let ticks = ref 0 in
    let interrupted () =
      (match cancel with Some c -> Atomic.get c | None -> false)
      || s.conflicts >= conflict_cap
      || s.propagations >= prop_cap
      || deadline < infinity
         && (incr ticks;
             (* poll the clock sparingly: every 64 loop iterations *)
             !ticks land 63 = 0 && Obs.Clock.now () > deadline)
    in
    let result = ref None in
    let restart_count = ref 0 in
    let conflict_budget = ref (100 * luby 1) in
    let conflicts_here = ref 0 in
    while !result = None do
      if interrupted () then result := Some Unknown
      else begin
      let confl = propagate s in
      if confl >= 0 then begin
        s.conflicts <- s.conflicts + 1;
        incr conflicts_here;
        if decision_level s = 0 then begin
          s.ok <- false;
          result := Some Unsat
        end
        else begin
          let learnt, bt = analyze s confl in
          backtrack s bt;
          if Array.length learnt = 1 then enqueue s learnt.(0) (-1)
          else begin
            let ci = add_clause_internal s learnt ~learned:true in
            cla_bump s (Vgraph.Vec.get s.clauses ci);
            enqueue s learnt.(0) ci
          end;
          Order.decay s.order;
          cla_decay s;
          if s.num_learnts > s.max_learnts then begin
            reduce_db s;
            s.max_learnts <- s.max_learnts + (s.max_learnts / 10)
          end
        end
      end
      else if !conflicts_here > !conflict_budget && decision_level s > n_assumps
      then begin
        (* restart *)
        incr restart_count;
        s.restarts <- s.restarts + 1;
        conflicts_here := 0;
        conflict_budget := 100 * luby (!restart_count + 1);
        backtrack s 0
      end
      else if decision_level s < n_assumps then begin
        (* establish next assumption *)
        let l = assump.(decision_level s) in
        match lit_value s l with
        | 1 -> ignore (Vgraph.Vec.push s.trail_lim (Vgraph.Vec.length s.trail))
        | 0 -> result := Some Unsat
        | _ ->
            ignore (Vgraph.Vec.push s.trail_lim (Vgraph.Vec.length s.trail));
            enqueue s l (-1)
      end
      else begin
        let v = pick_branch s in
        if v = -1 then result := Some Sat
        else begin
          s.decisions <- s.decisions + 1;
          ignore (Vgraph.Vec.push s.trail_lim (Vgraph.Vec.length s.trail));
          let l = if s.polarity.(v) then 2 * v else (2 * v) + 1 in
          enqueue s l (-1)
        end
      end
      end
    done;
    let r = match !result with Some r -> r | None -> assert false in
    (match r with
    | Sat -> () (* keep assignment for model queries *)
    | Unsat | Unknown -> backtrack s 0);
    r
  end

(* One span per call, carrying this call's conflict/propagation/restart
   deltas (the solver counters are cumulative across calls on a shared
   solver).  Disabled tracing costs one branch plus the closure. *)
let solve ?(assumptions = []) ?budget ?cancel s =
  let c0 = s.conflicts and p0 = s.propagations and r0 = s.restarts in
  Obs.span ~name:"sat.solve" (fun () ->
      let r = solve_body ~assumptions ?budget ?cancel s in
      Obs.attr (fun () ->
          [
            ( "result",
              Obs.String
                (match r with
                | Sat -> "sat"
                | Unsat -> "unsat"
                | Unknown -> "unknown") );
            ("vars", Obs.Int s.num_vars);
            ("conflicts", Obs.Int (s.conflicts - c0));
            ("propagations", Obs.Int (s.propagations - p0));
            ("restarts", Obs.Int (s.restarts - r0));
          ]);
      r)

let value s v =
  if v < 1 || v > s.num_vars then invalid_arg "Sat.value";
  s.assign.(v) = 1

let stats s = (s.conflicts, s.decisions, s.propagations)
