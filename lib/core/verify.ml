type method_ = Cbf_method | Edbf_method

type verdict =
  | Equivalent
  | Inequivalent of Cec.counterexample option
  | Undecided of string

type stats = {
  method_ : method_;
  depth : int;
  variables : int;
  events : int;
  unrolled_nodes : int;
  unrolled_gates : int * int;
  cec : Cec.stats;
  unroll_seconds : float;
  seconds : float;
}

type outcome = { verdict : verdict; stats : stats }

let ( let* ) = Result.bind

let exposed_pred c names =
  let set = Hashtbl.create 8 in
  let rec go = function
    | [] -> Ok (fun s -> Hashtbl.mem set s)
    | n :: rest -> (
        let bad () =
          Error (Seqprob.No_such_latch { circuit = Circuit.name c; name = n })
        in
        match Circuit.find_signal c n with
        | None -> bad ()
        | Some s -> (
            match Circuit.driver c s with
            | Latch _ ->
                Hashtbl.replace set s ();
                go rest
            | Undriven | Input | Gate _ -> bad ()))
  in
  go names

let has_hidden_enabled c exposed =
  List.exists
    (fun l -> (not (exposed l)) && snd (Circuit.latch_info c l) <> None)
    (Circuit.latches c)

(* Builds the Seqprob for a pair: both sides unrolled by the one traversal
   into ONE shared builder over one event table, so common logic (and
   common variables) are hashed once and the engines never see a netlist.
   A pair with no hidden enabled latch crosses no enable, so it unrolls to
   its CBF; the method says which theorem the verdict rests on. *)
let build_problem ~rewrite_events ~guard_events ~ex1 ~ex2 c1 c2 =
  let method_ =
    if has_hidden_enabled c1 ex1 || has_hidden_enabled c2 ex2 then Edbf_method
    else Cbf_method
  in
  let b = Seqprob.builder () in
  let table = Events.create ~rewrite:rewrite_events () in
  let* o1, i1 = Edbf.unroll ~guard:guard_events ~table ~exposed:ex1 b c1 in
  let* o2, i2 = Edbf.unroll ~guard:guard_events ~table ~exposed:ex2 b c2 in
  let* p = Seqprob.problem b ~outs1:o1 ~outs2:o2 in
  Ok
    ( p,
      method_,
      max i1.depth i2.depth,
      Events.count table,
      (i1.replication, i2.replication) )

let check ?jobs ?pool ?limits ?cache ?(rewrite_events = true)
    ?(guard_events = false) ?(exposed = []) c1 c2 =
  Obs.span ~name:"verify.check"
    ~attrs:
      [
        ("circuit1", Obs.String (Circuit.name c1));
        ("circuit2", Obs.String (Circuit.name c2));
      ]
    (fun () ->
      let t0 = Obs.Clock.now () in
      let* ex1 = exposed_pred c1 exposed in
      let* ex2 = exposed_pred c2 exposed in
      let unrolled, unroll_seconds =
        Obs.timed_span ~name:"verify.unroll" (fun () ->
            build_problem ~rewrite_events ~guard_events ~ex1 ~ex2 c1 c2)
      in
      let* p, method_, depth, events, unrolled_gates = unrolled in
      let cec_verdict, cec =
        Cec.check_problem_with_stats ?jobs ?pool ?limits ?cache p
      in
      let verdict =
        match (cec_verdict, method_) with
        | Cec.Equivalent, _ -> Equivalent
        | Cec.Undecided reason, _ -> Undecided reason
        | Cec.Inequivalent cex, Cbf_method -> Inequivalent (Some cex)
        | Cec.Inequivalent _, Edbf_method ->
            (* conservative method: a differing unrolling is not a certified
               sequential counterexample *)
            Inequivalent None
      in
      Ok
        {
          verdict;
          stats =
            {
              method_;
              depth;
              variables = Array.length p.Seqprob.vars;
              events;
              unrolled_nodes = Seqprob.and_nodes p;
              unrolled_gates;
              cec;
              unroll_seconds;
              seconds = Obs.Clock.now () -. t0;
            };
        })

(* ---- counterexample replay ---- *)

let cex_depth cex =
  List.fold_left (fun acc (v, _) -> max acc (Seqprob.Var.delay v)) 0 cex

let cex_to_sequence c cex =
  let depth = cex_depth cex in
  let assignment = Hashtbl.create 16 in
  List.iter
    (fun ((v : Seqprob.Var.t), b) ->
      match v.index with
      | Seqprob.Var.Time d -> Hashtbl.replace assignment (v.base, d) b
      | Seqprob.Var.At _ -> ())
    cex;
  let input_names = List.map (Circuit.signal_name c) (Circuit.inputs c) in
  (* cycle t (0-based, length depth+1): variable (i, d) refers to cycle
     (depth - d); the failing cycle is the last *)
  List.init (depth + 1) (fun t ->
      Array.of_list
        (List.map
           (fun n ->
             match Hashtbl.find_opt assignment (n, depth - t) with
             | Some b -> b
             | None -> false)
           input_names))

(* Replaying with exposed latches: where the latch still exists we cannot
   drive it mid-run, but the CBF treats its output at each delay as a free
   variable.  For confirmation purposes we compare the exact 3-valued
   outputs of the two circuits at the failing cycle; a genuine CBF
   counterexample disagrees for every power-up consistent with the
   assignment, which implies the exact 3-valued outputs differ (value vs
   value, or value vs ⊥) for at least one output when no exposed variables
   are involved.  With exposed variables involved the replay is best-effort
   and may fail to reproduce; we then fall back to validating on the
   unrolled problem's AIG. *)
let confirm_cex ?(exposed = []) c1 c2 cex =
  let validate_unrolled () =
    match
      let* ex1 = exposed_pred c1 exposed in
      let* ex2 = exposed_pred c2 exposed in
      let b = Seqprob.builder () in
      let* o1, _ = Cbf.unroll ~exposed:ex1 b c1 in
      let* o2, _ = Cbf.unroll ~exposed:ex2 b c2 in
      let* p = Seqprob.problem b ~outs1:o1 ~outs2:o2 in
      Ok (Seqprob.cex_is_valid p cex)
    with
    | Ok b -> b
    | Error _ -> false
  in
  let replayable =
    List.for_all
      (fun ((v : Seqprob.Var.t), _) -> not (List.mem v.base exposed))
      cex
  in
  if not replayable then validate_unrolled ()
  else begin
    (* pad to the full sequential depth of both circuits so that the final
       cycle's window never reaches before the sequence (which would leave
       both outputs undefined and mask the difference) *)
    let d_cex = cex_depth cex in
    let pad =
      max 0 (max (Cbf.sequential_depth c1) (Cbf.sequential_depth c2) - d_cex)
    in
    (* per-circuit sequences over each circuit's own input list: the
       counterexample lives in the united variable universe, so an input
       present in only one circuit still gets its assigned value there *)
    let seq_for c =
      let ni = List.length (Circuit.inputs c) in
      List.init pad (fun _ -> Array.make ni false) @ cex_to_sequence c cex
    in
    let limit = 14 in
    if Circuit.latch_count c1 > limit || Circuit.latch_count c2 > limit then
      (* too many power-up states to enumerate: validate on the unrolling *)
      validate_unrolled ()
    else begin
      let t1 = Sim.run_exact ~max_latches:limit c1 ~inputs:(seq_for c1) in
      let t2 = Sim.run_exact ~max_latches:limit c2 ~inputs:(seq_for c2) in
      match (List.rev t1, List.rev t2) with
      | last1 :: _, last2 :: _ ->
          (* differ = some output where both are defined and unequal, or one
             defined and the other undefined *)
          let differs = ref false in
          Array.iteri
            (fun i v1 -> if not (Sim.tv_equal v1 last2.(i)) then differs := true)
            last1;
          !differs
      | _ -> false
    end
  end
