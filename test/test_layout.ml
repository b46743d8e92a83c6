(* The partition layout against its reference (Layout_oracle): the shipped
   linear-time clustering and shared-walk extraction must reproduce the
   original layouts and sub-AIGs exactly.  Cluster boundaries and the
   extracted sub-problems' signatures are cache and store keys: if one
   moved, a warm store would silently go cold. *)

let problem_of = Test_cec.problem_of

(* every node of a graph, as its fanin pair ([(-1, -1)] for an input) *)
let shape g =
  List.init
    (Aig.node_count g - 1)
    (fun i ->
      let n = i + 1 in
      if Aig.is_input_node g n then (-1, -1) else Aig.fanins g n)

let cluster_roots (p : Seqprob.t) (cl : Cec.Layout.cluster) =
  let o1 = Array.of_list p.outs1 and o2 = Array.of_list p.outs2 in
  ( List.map (fun i -> o1.(i)) cl.members,
    List.map (fun i -> o2.(i)) cl.members )

(* [Layout.compute ~forced:true] gives the reference clusters,
   and when the adaptive layout partitions the problem, every cluster
   extracts to the reference sub-AIG: the same nodes in the same order,
   the same roots and the same input map.  (Extraction is only checked
   where a check would extract: the reference scans the whole graph per
   cluster, which on the confetti layouts of the big table-1 circuits
   costs more than the rest of this file.) *)
let check_against_reference name (p : Seqprob.t) =
  let got = Cec.Layout.compute ~forced:true p in
  let want = Cec.Layout.of_clusters ~forced:true (Layout_oracle.clusters p) in
  Alcotest.(check int)
    (name ^ ": cluster count")
    (List.length want.clusters) (List.length got.clusters);
  if got.clusters <> want.clusters then
    Alcotest.failf "%s: clusters differ from the reference" name;
  Alcotest.(check (float 0.))
    (name ^ ": total cost") want.total_cost got.total_cost;
  if not (Cec.Layout.compute p).monolithic then begin
    let walk = Aig.walk p.graph in
    List.iteri
      (fun k cl ->
        let r1, r2 = cluster_roots p cl in
        let ex = Aig.extract walk (r1 @ r2) in
        let sub, roots, inputs = Layout_oracle.extract p.graph (r1 @ r2) in
        if
          shape ex.Aig.sub <> shape sub
          || ex.Aig.roots <> roots
          || ex.Aig.sub_inputs <> inputs
        then Alcotest.failf "%s: cluster %d extracts differently" name k)
      got.clusters
  end

let fifo ?bug entries width style = Workloads.fifo ?bug ~entries ~width ~style ()
let alu style = Workloads.lane_alu ~lanes:64 ~width:8 ~stages:4 ~style ()
let fifo64x16 = lazy (problem_of (fifo 64 16 `Sop) (fifo 64 16 `Mux))
let alu64x8x4 = lazy (problem_of (alu `Ripple) (alu `Select))

(* the verify_large benchmark's five style pairs, and two of them with
   both sides resynthesized *)
let test_large_tier () =
  let resynth seed c = Hier.resynthesize ~seed c in
  List.iter
    (fun (name, p) -> check_against_reference name (Lazy.force p))
    [
      ("fifo32x16", lazy (problem_of (fifo 32 16 `Sop) (fifo 32 16 `Mux)));
      ("fifo64x16", fifo64x16);
      ("fifo128x8", lazy (problem_of (fifo 128 8 `Sop) (fifo 128 8 `Mux)));
      ("alu64x8x4", alu64x8x4);
      ( "fifo64x16_bug",
        lazy (problem_of (fifo 64 16 `Sop) (fifo ~bug:true 64 16 `Mux)) );
      ( "fifo64x16 resynthesized",
        lazy
          (problem_of
             (resynth 1 (fifo 64 16 `Sop))
             (resynth 2 (fifo 64 16 `Mux))) );
      ( "alu64x8x4 resynthesized",
        lazy (problem_of (resynth 3 (alu `Ripple)) (resynth 4 (alu `Select)))
      );
    ]

let test_table1_resynthesized () =
  List.iter
    (fun (name, a) ->
      check_against_reference name (problem_of a (Hier.resynthesize ~seed:1 a)))
    (Workloads.table1_suite ())

(* Fig. 19's B vs C, exposed as the flow exposes them: the left side's
   original structural plan *)
let test_table1_b_vs_c () =
  List.iter
    (fun (name, a) ->
      match Flow.circuits a with
      | Ok (b, c) ->
          let exposed =
            List.map (Circuit.signal_name a)
              (Feedback.plan_structural a).Feedback.exposed
          in
          check_against_reference (name ^ " B vs C") (problem_of ~exposed b c)
      | Error d -> Alcotest.fail (name ^ ": " ^ Seqprob.diagnosis_to_string d))
    (Workloads.table1_suite_small ())

let test_hier () =
  List.iter
    (fun (name, l, r, _) ->
      check_against_reference (name ^ " flat")
        (problem_of (Hier.flatten l) (Hier.flatten r));
      List.iter
        (fun m ->
          check_against_reference
            (name ^ " " ^ m)
            (problem_of (Hier.flatten_at l m) (Hier.flatten_at r m)))
        (Hier.module_order l))
    (Workloads.hier_suite ())

let digest (l : Cec.Layout.t) =
  let b = Buffer.create 4096 in
  List.iter
    (fun (c : Cec.Layout.cluster) ->
      Printf.bprintf b "%s|%d|%d|%.0f;"
        (String.concat "," (List.map string_of_int c.members))
        c.nodes c.depth c.cost)
    l.clusters;
  Printf.bprintf b "%b %.0f" l.monolithic l.total_cost;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Layouts of the two large-tier pairs as the original layout computed
   them, and each cluster's store key: the signature of its extracted
   sub-problem equals that of its roots in the shared graph. *)
let test_pinned_layouts_and_keys () =
  List.iter
    (fun (name, p, want) ->
      let p = Lazy.force p in
      let l = Cec.Layout.compute ~forced:true p in
      Alcotest.(check string) (name ^ ": layout digest") want (digest l);
      let walk = Aig.walk p.graph in
      let key g a b = Aig.cone_signature g ~input_label:(fun _ -> "") [ a; b ] in
      List.iteri
        (fun k cl ->
          let r1, r2 = cluster_roots p cl in
          let ex = Aig.extract walk (r1 @ r2) in
          let n = List.length r1 in
          let s1 = List.filteri (fun i _ -> i < n) ex.Aig.roots in
          let s2 = List.filteri (fun i _ -> i >= n) ex.Aig.roots in
          Alcotest.(check string)
            (Printf.sprintf "%s: cluster %d key" name k)
            (key p.graph r1 r2) (key ex.Aig.sub s1 s2))
        l.clusters)
    [
      ("fifo64x16", fifo64x16, "222b4049386f355df31d4bc99aa74ec7");
      ("alu64x8x4", alu64x8x4, "9eae2df5b302666bd2424f8c732b5bf4");
    ]

let suite =
  [
    Alcotest.test_case "reference: large-tier pairs" `Quick test_large_tier;
    Alcotest.test_case "reference: table-1 vs resynthesized" `Quick
      test_table1_resynthesized;
    Alcotest.test_case "reference: table-1-small B vs C" `Quick
      test_table1_b_vs_c;
    Alcotest.test_case "reference: hier pairs, flat and per module" `Quick
      test_hier;
    Alcotest.test_case "pinned layouts and store keys" `Quick
      test_pinned_layouts_and_keys;
  ]
