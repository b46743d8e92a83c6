(* Events and EDBF: Figs. 4, 5, 10, 11 of the paper, the rule-(5) rewrite,
   and soundness of the conservative check on synthesized circuits, all on
   the shipped route; then a differential against the netlist oracle. *)

let st = Random.State.make [| 0xEDB |]

let get_ok = function
  | Ok x -> x
  | Error d ->
      Alcotest.failf "unexpected diagnosis: %s" (Seqprob.diagnosis_to_string d)

(* The shipped route, as {!Verify.check} runs it: both circuits unrolled
   into one builder over one shared event table, then one combinational
   check.  Returns the verdict and each side's unrolling info. *)
let edbf_check ?guard ~table c1 c2 =
  let b = Seqprob.builder () in
  let o1, i1 = get_ok (Edbf.unroll ?guard ~table b c1) in
  let o2, i2 = get_ok (Edbf.unroll ?guard ~table b c2) in
  let p = get_ok (Seqprob.problem b ~outs1:o1 ~outs2:o2) in
  (fst (Cec.check_problem_with_stats p), i1, i2)

let edbf_verdict ~table c1 c2 =
  let v, _, _ = edbf_check ~table c1 c2 in
  v

let vcheck ?guard_events c1 c2 =
  match Verify.check ?guard_events c1 c2 with
  | Ok o -> (o.Verify.verdict, o.Verify.stats)
  | Error d ->
      Alcotest.failf "unexpected diagnosis: %s" (Seqprob.diagnosis_to_string d)

(* Fig. 4: y = latch(x, enable e): one enabled latch, one event. *)
let test_fig4 () =
  let c = Circuit.create "fig4" in
  let x = Circuit.add_input c "x" in
  let e = Circuit.add_input c "e" in
  let y = Circuit.add_latch c ~enable:e ~data:x () in
  Circuit.mark_output c y;
  Circuit.check c;
  let table = Events.create () in
  let b = Seqprob.builder () in
  let outs, info = get_ok (Edbf.unroll ~table b c) in
  Alcotest.(check int) "one variable" 1 info.Edbf.variables;
  Alcotest.(check int) "two events (empty + [e])" 2 info.Edbf.events;
  (* y is x sampled at the instant of the event [e] *)
  let ev = Events.push table ~pred:(Events.pred_var table ~source:"e" ~shift:0) Events.empty in
  Alcotest.(check (list int)) "y = x(η[e])"
    [ Seqprob.var_lit b (Seqprob.Var.at "x" ~shift:0 ~event:ev) ]
    outs

(* Fig. 5: z = u(η[e1,e2]) AND v(η[e3]): a two-latch chain and a parallel
   single latch. *)
let test_fig5 () =
  let c = Circuit.create "fig5" in
  let u_in = Circuit.add_input c "u" in
  let v_in = Circuit.add_input c "v" in
  let e1 = Circuit.add_input c "e1" in
  let e2 = Circuit.add_input c "e2" in
  let e3 = Circuit.add_input c "e3" in
  let w = Circuit.add_latch c ~enable:e1 ~data:u_in () in
  let y = Circuit.add_latch c ~enable:e2 ~data:w () in
  let x = Circuit.add_latch c ~enable:e3 ~data:v_in () in
  let z = Circuit.add_gate c And [ y; x ] in
  Circuit.mark_output c z;
  Circuit.check c;
  let table = Events.create () in
  let _, info = get_ok (Edbf.unroll ~table (Seqprob.builder ()) c) in
  (* variables: u@[e1,e2], v@[e3]; events: empty, [e2], [e1,e2], [e3] *)
  Alcotest.(check int) "two variables" 2 info.Edbf.variables;
  Alcotest.(check int) "four events" 4 info.Edbf.events

(* identical circuits share events through the common table *)
let test_shared_table_matches () =
  for i = 1 to 15 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "sh%d" i) ~inputs:3 ~gates:25 ~latches:4
        ~outputs:2 ~enables:true
    in
    let c2 = Gen.demorganize c in
    let table = Events.create () in
    match edbf_verdict ~table c c2 with
    | Cec.Equivalent -> ()
    | Cec.Inequivalent _ -> Alcotest.fail "rewritten circuit got different EDBF"
    | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

(* combinational synthesis (latches fixed) preserves the EDBF *)
let test_synthesis_preserves_edbf () =
  for i = 1 to 12 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "sy%d" i) ~inputs:3 ~gates:40 ~latches:5
        ~outputs:2 ~enables:true
    in
    let o = Synth_script.delay_script c in
    let table = Events.create () in
    match edbf_verdict ~table c o with
    | Cec.Equivalent -> ()
    | Cec.Inequivalent _ -> Alcotest.fail "synthesis changed the EDBF"
    | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

(* seeded bug is still caught *)
let test_edbf_finds_bugs () =
  for i = 1 to 12 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "bug%d" i) ~inputs:3 ~gates:25 ~latches:4
        ~outputs:2 ~enables:true
    in
    let bugged = Gen.negate_one_output c in
    let table = Events.create () in
    match edbf_verdict ~table c bugged with
    | Cec.Equivalent -> Alcotest.fail "EDBF missed a seeded bug"
    | Cec.Inequivalent _ -> ()
    | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

(* Fig. 10 flavour: L1(enable a) feeding L2(enable a·b) against a single
   latch with enable a·b.  Under the rewrite rule the events match; without
   it, false negative. *)
let fig10_pair () =
  let ca = Circuit.create "fig10a" in
  let cin = Circuit.add_input ca "c" in
  let a = Circuit.add_input ca "a" in
  let b = Circuit.add_input ca "b" in
  let ab = Circuit.add_gate ca And [ a; b ] in
  let l1 = Circuit.add_latch ca ~enable:a ~data:cin () in
  let l2 = Circuit.add_latch ca ~enable:ab ~data:l1 () in
  Circuit.mark_output ca l2;
  Circuit.check ca;
  let cb = Circuit.create "fig10b" in
  let cin2 = Circuit.add_input cb "c" in
  let a2 = Circuit.add_input cb "a" in
  let b2 = Circuit.add_input cb "b" in
  let ab2 = Circuit.add_gate cb And [ a2; b2 ] in
  (* one latch capturing c directly at a·b events *)
  let l = Circuit.add_latch cb ~enable:ab2 ~data:cin2 () in
  Circuit.mark_output cb l;
  Circuit.check cb;
  (ca, cb)

let test_fig10_rewrite () =
  let ca, cb = fig10_pair () in
  (* without rule (5): false negative *)
  (match edbf_verdict ~table:(Events.create ~rewrite:false ()) ca cb with
  | Cec.Equivalent -> Alcotest.fail "expected false negative without rewrite"
  | Cec.Inequivalent _ -> ()
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r);
  (* with rule (5): the [a, ab] event collapses to [ab] and they match *)
  match edbf_verdict ~table:(Events.create ~rewrite:true ()) ca cb with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.fail "rewrite rule failed to merge events"
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

(* Fig. 11: O1 = b(η(a+b)) vs O2 = a(η(a+b)) + b(η(a+b)) — equivalent
   sequentially (when a or b fires, if a fires then ... the published
   example), but the EDBFs differ: a certified false negative that the
   rewrite rule does NOT remove. *)
let fig11_pair () =
  let c1 = Circuit.create "fig11a" in
  let a = Circuit.add_input c1 "a" in
  let b = Circuit.add_input c1 "b" in
  let ab = Circuit.add_gate c1 Or [ a; b ] in
  let l = Circuit.add_latch c1 ~enable:ab ~data:b () in
  Circuit.mark_output c1 l;
  Circuit.check c1;
  let c2 = Circuit.create "fig11b" in
  let a2 = Circuit.add_input c2 "a" in
  let b2 = Circuit.add_input c2 "b" in
  let ab2 = Circuit.add_gate c2 Or [ a2; b2 ] in
  (* different data decomposition with the same sequential behaviour:
     at an (a+b)-event, b = a·b + ~a·b = ... use data = b OR (a AND b) *)
  let data2 = Circuit.add_gate c2 Or [ b2; Circuit.add_gate c2 And [ a2; b2 ] ] in
  let l2 = Circuit.add_latch c2 ~enable:ab2 ~data:data2 () in
  Circuit.mark_output c2 l2;
  Circuit.check c2;
  (c1, c2)

let test_fig11_equivalent_forms_merge () =
  (* b and b+(a·b) are the same function, so the semantic predicate/data
     machinery proves these equal (our implementation is stronger than the
     paper's syntactic events here) *)
  let c1, c2 = fig11_pair () in
  let table = Events.create () in
  match edbf_verdict ~table c1 c2 with
  | Cec.Equivalent -> ()
  | Cec.Inequivalent _ -> Alcotest.fail "same-function data should match"
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_fig11_false_negative () =
  (* the genuine Fig. 11 gap: data functions b vs a+b differ as functions
     but agree whenever the enable a+b is true... wait: at an enable event
     (a+b)=1, data1 = b and data2 = a+b = 1 differ when a=1,b=0.  The
     published pair uses the enable as a don't-care: data2 = a+b equals
     data1 = b only under b... they are NOT pointwise equal but produce
     equivalent machines only under stronger conditions.  We reproduce the
     paper's weaker claim: the EDBFs differ (a conservative Inequivalent),
     and exhaustive simulation confirms which pairs truly differ. *)
  let c1 = Circuit.create "f11x" in
  let a = Circuit.add_input c1 "a" in
  let b = Circuit.add_input c1 "b" in
  let ab = Circuit.add_gate c1 Or [ a; b ] in
  let l = Circuit.add_latch c1 ~enable:ab ~data:b () in
  Circuit.mark_output c1 l;
  Circuit.check c1;
  let c2 = Circuit.create "f11y" in
  let a2 = Circuit.add_input c2 "a" in
  let b2 = Circuit.add_input c2 "b" in
  let ab2 = Circuit.add_gate c2 Or [ a2; b2 ] in
  let l2 = Circuit.add_latch c2 ~enable:ab2 ~data:ab2 () in
  Circuit.mark_output c2 l2;
  Circuit.check c2;
  let table = Events.create () in
  match edbf_verdict ~table c1 c2 with
  | Cec.Equivalent -> Alcotest.fail "distinct data functions merged"
  | Cec.Inequivalent _ -> ()
  | Cec.Undecided r -> Alcotest.failf "unbudgeted check undecided: %s" r

(* event table unit behaviour *)
let test_event_table () =
  let t = Events.create () in
  let man = Events.man t in
  let a = Events.pred_var t ~source:"a" ~shift:0 in
  let b = Events.pred_var t ~source:"b" ~shift:0 in
  let ab = Bdd.and_ man a b in
  let e1 = Events.push t ~pred:ab Events.empty in
  let e1' = Events.push t ~pred:ab Events.empty in
  Alcotest.(check int) "hash consing" e1 e1';
  (* rule 5: pushing a on top of [ab] is the identity *)
  let e2 = Events.push t ~pred:a e1 in
  Alcotest.(check int) "rule 5 collapses" e1 e2;
  (* but pushing an unrelated predicate extends *)
  let cvar = Events.pred_var t ~source:"c" ~shift:0 in
  let e3 = Events.push t ~pred:cvar e1 in
  Alcotest.(check bool) "extends" true (e3 <> e1);
  Alcotest.(check int) "elements" 2 (List.length (Events.elements t e3));
  (* no-rewrite table keeps the redundant head *)
  let t0 = Events.create ~rewrite:false () in
  let man0 = Events.man t0 in
  let a0 = Events.pred_var t0 ~source:"a" ~shift:0 in
  let b0 = Events.pred_var t0 ~source:"b" ~shift:0 in
  let ab0 = Bdd.and_ man0 a0 b0 in
  let f1 = Events.push t0 ~pred:ab0 Events.empty in
  let f2 = Events.push t0 ~pred:a0 f1 in
  Alcotest.(check bool) "no rewrite keeps" true (f1 <> f2)

(* shifts distinguish predicates *)
let test_event_shifts () =
  let t = Events.create () in
  let a0 = Events.pred_var t ~source:"a" ~shift:0 in
  let a1 = Events.pred_var t ~source:"a" ~shift:1 in
  Alcotest.(check bool) "shifted vars differ" false (Bdd.equal a0 a1);
  let e0 = Events.push t ~pred:a0 Events.empty in
  let e1 = Events.push t ~pred:a1 Events.empty in
  Alcotest.(check bool) "shifted events differ" true (e0 <> e1)

(* regular latches inside an enabled circuit: delays tracked per context *)
let test_mixed_latches () =
  let c = Circuit.create "mix" in
  let x = Circuit.add_input c "x" in
  let e = Circuit.add_input c "e" in
  let r1 = Circuit.add_latch c ~data:x () in
  let l = Circuit.add_latch c ~enable:e ~data:r1 () in
  let r2 = Circuit.add_latch c ~data:l () in
  Circuit.mark_output c r2;
  Circuit.check c;
  let table = Events.create () in
  let b = Seqprob.builder () in
  let outs, info = get_ok (Edbf.unroll ~table b c) in
  (* x is sampled one cycle before the event, which itself is evaluated one
     cycle in the past: depth covers both regular latches *)
  Alcotest.(check bool) "depth >= 1" true (info.Edbf.depth >= 1);
  Alcotest.(check int) "single variable" 1 info.Edbf.variables;
  let ev = Events.push table ~pred:(Events.pred_var table ~source:"e" ~shift:1) Events.empty in
  Alcotest.(check (list int)) "r2 = x@1(η[e@1])"
    [ Seqprob.var_lit b (Seqprob.Var.at "x" ~shift:1 ~event:ev) ]
    outs

let suite =
  [
    Alcotest.test_case "Fig. 4" `Quick test_fig4;
    Alcotest.test_case "Fig. 5" `Quick test_fig5;
    Alcotest.test_case "shared table matches rewrites" `Quick test_shared_table_matches;
    Alcotest.test_case "synthesis preserves EDBF" `Quick test_synthesis_preserves_edbf;
    Alcotest.test_case "EDBF finds seeded bugs" `Quick test_edbf_finds_bugs;
    Alcotest.test_case "Fig. 10 + rule (5)" `Quick test_fig10_rewrite;
    Alcotest.test_case "same-function data merges" `Quick test_fig11_equivalent_forms_merge;
    Alcotest.test_case "Fig. 11 false negative" `Quick test_fig11_false_negative;
    Alcotest.test_case "event table" `Quick test_event_table;
    Alcotest.test_case "event shifts" `Quick test_event_shifts;
    Alcotest.test_case "mixed regular/enabled latches" `Quick test_mixed_latches;
  ]

(* ---- event-consistency guard (future-work refinement) ---- *)

let guard_pair () =
  (* data functions equal only under the enable: d1 = b, d2 = b OR ~(a+b) *)
  let mk variant =
    let c = Circuit.create ("g" ^ variant) in
    let a = Circuit.add_input c "a" in
    let b = Circuit.add_input c "b" in
    let ab = Circuit.add_gate c Or [ a; b ] in
    let data =
      if variant = "plain" then b
      else Circuit.add_gate c Or [ b; Circuit.add_gate c Not [ ab ] ]
    in
    Circuit.mark_output c (Circuit.add_latch c ~enable:ab ~data ());
    Circuit.check c;
    c
  in
  (mk "plain", mk "guarded")

let test_guard_removes_false_negative () =
  let c1, c2 = guard_pair () in
  (* first confirm sequential equivalence by exhaustive simulation *)
  (match
     Sim.equivalent_exact c1 c2
       ~input_seqs:(Sim.all_input_seqs c1 ~depth:3)
   with
  | None -> ()
  | Some _ -> Alcotest.fail "test premise broken: pair not equivalent");
  (* without the guard: conservative false negative *)
  (match vcheck c1 c2 with
  | Verify.Inequivalent None, _ -> ()
  | Verify.Equivalent, _ -> Alcotest.fail "expected the published method to reject"
  | Verify.Inequivalent (Some _), _ -> Alcotest.fail "unexpected witness"
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r);
  (* with the guard: proven *)
  match vcheck ~guard_events:true c1 c2 with
  | Verify.Equivalent, _ -> ()
  | Verify.Inequivalent _, _ -> Alcotest.fail "guard failed to remove false negative"
  | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r

let test_guard_still_sound () =
  (* guarded comparison still catches real bugs in enabled circuits *)
  for i = 1 to 10 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "gs%d" i) ~inputs:3 ~gates:25 ~latches:4
        ~outputs:2 ~enables:true
    in
    let bug = Gen.negate_one_output c in
    (match vcheck ~guard_events:true c bug with
    | Verify.Equivalent, _ -> Alcotest.fail "guarded check missed a bug"
    | Verify.Inequivalent _, _ -> ()
    | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r);
    (* and still proves genuine rewrites *)
    match vcheck ~guard_events:true c (Gen.demorganize c) with
    | Verify.Equivalent, _ -> ()
    | Verify.Inequivalent _, _ -> Alcotest.fail "guarded check rejected a rewrite"
    | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let test_guard_with_synthesis () =
  for i = 1 to 8 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "gy%d" i) ~inputs:3 ~gates:30 ~latches:4
        ~outputs:2 ~enables:true
    in
    let o = Synth_script.delay_script c in
    match vcheck ~guard_events:true c o with
    | Verify.Equivalent, _ -> ()
    | Verify.Inequivalent _, _ -> Alcotest.fail "guarded check rejected synthesis"
    | Verify.Undecided r, _ -> Alcotest.failf "unbudgeted check undecided: %s" r
  done

let suite =
  suite
  @ [
      Alcotest.test_case "guard removes false negative" `Quick test_guard_removes_false_negative;
      Alcotest.test_case "guard stays sound" `Quick test_guard_still_sound;
      Alcotest.test_case "guard with synthesis" `Quick test_guard_with_synthesis;
    ]

(* ---- events introspection ---- *)

let test_event_decompose () =
  let t = Events.create () in
  let a = Events.pred_var t ~source:"a" ~shift:0 in
  let b = Events.pred_var t ~source:"b" ~shift:1 in
  Alcotest.(check bool) "empty decomposes to None" true
    (Events.decompose t Events.empty = None);
  let e1 = Events.push t ~pred:a Events.empty in
  let e2 = Events.push t ~pred:b e1 in
  (match Events.decompose t e2 with
  | Some (p, tail) ->
      Alcotest.(check bool) "head is b" true (Bdd.equal p b);
      Alcotest.(check int) "tail is [a]" e1 tail
  | None -> Alcotest.fail "non-empty event");
  (* var_source round trip *)
  let a' = Events.pred_var t ~source:"a" ~shift:0 in
  Alcotest.(check bool) "stable var" true (Bdd.equal a a');
  Alcotest.(check (pair string int)) "var_source" ("a", 0) (Events.var_source t 0);
  Alcotest.(check (pair string int)) "var_source b" ("b", 1) (Events.var_source t 1)

let suite = suite @ [ Alcotest.test_case "event decompose/var_source" `Quick test_event_decompose ]

(* ---- the netlist oracle ---- *)

let verdict_class = function
  | Cec.Equivalent -> "EQ"
  | Cec.Inequivalent _ -> "NEQ"
  | Cec.Undecided r -> "UNDECIDED: " ^ r

(* Verdict of the shipped unrolling of [c] against the oracle's netlist
   of [c], both over one table: the netlist input "source@d@event" is the
   variable [Var.at source ~shift:d ~event]. *)
let shipped_vs_oracle ?guard ~rewrite c =
  let table = Events.create ~rewrite () in
  let b = Seqprob.builder () in
  let shipped, _ = get_ok (Edbf.unroll ?guard ~table b c) in
  let u, _ = Edbf_oracle.unroll_netlist ?guard ~table c in
  let event_of = Hashtbl.create 16 in
  for e = 0 to Events.count table - 1 do
    Hashtbl.replace event_of (Events.to_string table e) e
  done;
  let source s =
    let name = Circuit.signal_name u s in
    let at = String.rindex name '@' in
    let sh = String.rindex_from name (at - 1) '@' in
    Seqprob.var_lit b
      (Seqprob.Var.at (String.sub name 0 sh)
         ~shift:(int_of_string (String.sub name (sh + 1) (at - sh - 1)))
         ~event:(Hashtbl.find event_of (String.sub name (at + 1) (String.length name - at - 1))))
  in
  let env = Aig.of_circuit_comb (Seqprob.graph b) u ~source in
  let oracle = List.map (fun o -> env.Aig.of_signal.(o)) (Circuit.outputs u) in
  fst (Cec.check_problem_with_stats (get_ok (Seqprob.problem b ~outs1:shipped ~outs2:oracle)))

(* Random circuit whose enabled latches sit behind regular ones, so their
   enables are evaluated at shifts above 0, which {!Gen.acyclic} rarely
   builds. *)
let staged st ~name =
  let c = Circuit.create name in
  let pool = ref (List.init 3 (fun i -> Circuit.add_input c (Printf.sprintf "i%d" i))) in
  let gates k =
    for _ = 1 to k do
      pool := Gen.random_gate st c !pool :: !pool
    done
  in
  gates 6;
  let enabled =
    List.init 2 (fun _ ->
        Circuit.add_latch c ~enable:(Gen.pick st !pool) ~data:(Gen.pick st !pool) ())
  in
  pool := enabled @ !pool;
  gates 6;
  List.iter
    (fun l ->
      let r = Circuit.add_latch c ~data:(Circuit.add_gate c Xor [ l; Gen.pick st !pool ]) () in
      Circuit.mark_output c (Circuit.add_gate c Or [ r; Gen.pick st !pool ]))
    enabled;
  Circuit.check c;
  c

(* The shipped route and the netlist oracle must agree on every pair: the
   same verdict and the same info on each side, and on each side the same
   function.  Each random enabled-latch circuit is checked against its De
   Morgan rewrite (rule (5) on and off), its synthesized version (guard
   off and on), a seeded bug and an unrelated circuit. *)
let test_oracle_differential () =
  let st = Random.State.make [| 0xD1F |] in
  let info_fields (i : Edbf.info) = [ i.depth; i.variables; i.events; i.replication ] in
  let compare_routes what ?guard ~rewrite c1 c2 =
    let shipped, s1, s2 = edbf_check ?guard ~table:(Events.create ~rewrite ()) c1 c2 in
    let table = Events.create ~rewrite () in
    let u1, o1 = Edbf_oracle.unroll_netlist ?guard ~table c1 in
    let u2, o2 = Edbf_oracle.unroll_netlist ?guard ~table c2 in
    let oracle = fst (Cec.check_problem_with_stats (Cec.of_circuits u1 u2)) in
    Alcotest.(check string) (what ^ ": verdict") (verdict_class oracle)
      (verdict_class shipped);
    Alcotest.(check (list int)) (what ^ ": left info") (info_fields o1) (info_fields s1);
    Alcotest.(check (list int)) (what ^ ": right info") (info_fields o2) (info_fields s2);
    List.iter
      (fun c ->
        Alcotest.(check string) (what ^ ": same function") "EQ"
          (verdict_class (shipped_vs_oracle ?guard ~rewrite c)))
      [ c1; c2 ]
  in
  for i = 1 to 60 do
    let gen name =
      let name = Printf.sprintf "%s%d" name i in
      if i mod 2 = 0 then staged st ~name
      else Gen.acyclic st ~name ~inputs:3 ~gates:25 ~latches:4 ~outputs:2 ~enables:true
    in
    let c = gen "od" in
    let rewritten = Gen.demorganize c in
    let synthesized = Synth_script.delay_script c in
    compare_routes "rewrite, rule (5)" ~rewrite:true c rewritten;
    compare_routes "rewrite, no rule (5)" ~rewrite:false c rewritten;
    compare_routes "synthesis" ~rewrite:true c synthesized;
    compare_routes "synthesis, guarded" ~guard:true ~rewrite:true c synthesized;
    compare_routes "seeded bug" ~rewrite:true c (Gen.negate_one_output c);
    compare_routes "unrelated" ~rewrite:true c (gen "ou")
  done

let suite =
  suite @ [ Alcotest.test_case "shipped route = netlist oracle" `Quick test_oracle_differential ]

(* Fig. 7 is Fig. 8 with every event empty: on circuits whose hidden
   latches are regular, the EDBF route over a fresh table builds exactly
   the problem {!Cbf.unroll} builds, every variable a CBF time frame.  Both
   sides of a pair go into one builder, as {!Verify.check} puts them. *)
let test_enable_free_is_cbf () =
  let st = Random.State.make [| 0xCBF7 |] in
  let build unroll sides =
    let b = Seqprob.builder () in
    let outs = List.concat_map (fun (ex, c) -> unroll ~exposed:ex b c) sides in
    (b, outs)
  in
  let same_problem what sides =
    let cb, co =
      build (fun ~exposed b c -> fst (get_ok (Cbf.unroll ~exposed b c))) sides
    in
    let table = Events.create () in
    let eb, eo =
      build (fun ~exposed b c -> fst (get_ok (Edbf.unroll ~table ~exposed b c))) sides
    in
    let names b = Array.to_list (Array.map Seqprob.Var.to_string (Seqprob.builder_vars b)) in
    Alcotest.(check (list string)) (what ^ ": variable names") (names cb) (names eb);
    Alcotest.(check (list int)) (what ^ ": outputs") co eo;
    Alcotest.(check int) (what ^ ": AND count")
      (Aig.and_count (Seqprob.graph cb)) (Aig.and_count (Seqprob.graph eb));
    Alcotest.(check bool) (what ^ ": every variable a time frame") true
      (Array.for_all
         (fun (v : Seqprob.Var.t) ->
           match v.index with Seqprob.Var.Time _ -> true | Seqprob.Var.At _ -> false)
         (Seqprob.builder_vars eb))
  in
  let none _ = false in
  for i = 1 to 20 do
    let c =
      Gen.acyclic st ~name:(Printf.sprintf "ef%d" i) ~inputs:3 ~gates:30 ~latches:5
        ~outputs:2 ~enables:false
    in
    same_problem (Circuit.name c) [ (none, c); (none, Synth_script.delay_script c) ]
  done;
  List.iter
    (fun (name, a) ->
      let b, c = get_ok (Flow.circuits a) in
      let names =
        List.map (Circuit.signal_name a) (Feedback.plan_structural a).Feedback.exposed
      in
      let ex c = get_ok (Verify.exposed_pred c names) in
      same_problem (name ^ " B vs C") [ (ex b, b); (ex c, c) ])
    (Workloads.table1_suite_small ())

let suite =
  suite @ [ Alcotest.test_case "enable-free unroll is the CBF" `Quick test_enable_free_is_cbf ]
