(* Tests for the Obs tracing/metrics layer: span nesting through the
   summary tree, attribute round-trips through the Chrome writer (parsed
   back with Sjson), counter tracks, counter merging across domains, and the
   disabled sink recording nothing. *)

(* Each test owns the global sink: enable+reset on entry, disable+reset on
   exit (also on failure), so no events leak into other suites. *)
let with_obs f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    f

(* ---- tests ---- *)

let find_node name nodes =
  List.find_opt (fun n -> n.Obs.Summary.name = name) nodes

let test_span_nesting () =
  with_obs (fun () ->
      Obs.span ~name:"outer" (fun () ->
          Obs.span ~name:"inner" (fun () -> ());
          Obs.span ~name:"inner" (fun () -> ()));
      Obs.span ~name:"outer" (fun () -> ());
      let tree = Obs.Summary.tree (Obs.collect ()) in
      match find_node "outer" tree with
      | None -> Alcotest.fail "no outer node"
      | Some outer ->
          Alcotest.(check int) "outer aggregated" 2 outer.Obs.Summary.count;
          Alcotest.(check bool)
            "outer total covers children" true
            (outer.Obs.Summary.total >= outer.Obs.Summary.self);
          (match find_node "inner" outer.Obs.Summary.children with
          | None -> Alcotest.fail "inner not nested under outer"
          | Some inner ->
              Alcotest.(check int) "inner aggregated" 2 inner.Obs.Summary.count);
          Alcotest.(check bool)
            "inner not at top level" true
            (find_node "inner" tree = None))

let test_exception_closes_span () =
  with_obs (fun () ->
      (try
         Obs.span ~name:"raises" (fun () -> failwith "boom")
       with Failure _ -> ());
      let begins, ends =
        List.fold_left
          (fun (b, e) ev ->
            match ev with
            | Obs.Begin { name = "raises"; _ } -> (b + 1, e)
            | Obs.End { name = "raises"; _ } -> (b, e + 1)
            | _ -> (b, e))
          (0, 0) (Obs.collect ())
      in
      Alcotest.(check (pair int int)) "begin/end balanced" (1, 1) (begins, ends))

let test_chrome_attrs_roundtrip () =
  with_obs (fun () ->
      Obs.span ~name:"attributed"
        ~attrs:
          [
            ("answer", Obs.Int 42);
            ("ratio", Obs.Float 0.5);
            ("ok", Obs.Bool true);
            ("who", Obs.String "a \"quoted\"\nname");
          ]
        (fun () -> ());
      Obs.instant ~attrs:[ ("k", Obs.Int 7) ] "blip";
      let text = Obs.Chrome.to_string (Obs.collect ()) in
      let j = Sjson.parse text in
      let events =
        match Sjson.member "traceEvents" j with
        | Some (Sjson.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let find ph name =
        List.find_opt
          (fun e ->
            Sjson.member "ph" e = Some (Sjson.String ph)
            && Sjson.member "name" e = Some (Sjson.String name))
          events
      in
      (match find "B" "attributed" with
      | None -> Alcotest.fail "no B event"
      | Some b -> (
          Alcotest.(check bool) "ts present" true (Sjson.member "ts" b <> None);
          match Sjson.member "args" b with
          | Some args ->
              Alcotest.(check bool) "int attr" true
                (Sjson.member "answer" args = Some (Sjson.Int 42));
              Alcotest.(check bool) "float attr" true
                (Sjson.member "ratio" args = Some (Sjson.Float 0.5));
              Alcotest.(check bool) "bool attr" true
                (Sjson.member "ok" args = Some (Sjson.Bool true));
              Alcotest.(check bool) "string attr round-trips" true
                (Sjson.member "who" args = Some (Sjson.String "a \"quoted\"\nname"))
          | None -> Alcotest.fail "no args on B event"));
      Alcotest.(check bool) "E event present" true (find "E" "attributed" <> None);
      match find "i" "blip" with
      | None -> Alcotest.fail "no instant event"
      | Some i ->
          Alcotest.(check bool) "instant attr" true
            (match Sjson.member "args" i with
            | Some args -> Sjson.member "k" args = Some (Sjson.Int 7)
            | None -> false))

let test_counter_merge_across_domains () =
  with_obs (fun () ->
      Obs.count "t.shared" 1;
      let ds =
        List.init 2 (fun i ->
            Domain.spawn (fun () ->
                Obs.span ~name:"t.domain" (fun () ->
                    Obs.count "t.shared" (10 * (i + 1));
                    Obs.count "t.own" 1)))
      in
      List.iter Domain.join ds;
      let evs = Obs.collect () in
      let doms =
        List.sort_uniq compare
          (List.filter_map
             (function Obs.Count { name = "t.shared"; dom; _ } -> Some dom | _ -> None)
             evs)
      in
      Alcotest.(check bool) "counted from >= 2 domains" true
        (List.length doms >= 2);
      let totals = Obs.Counters.totals evs in
      Alcotest.(check (option int)) "merged total" (Some 31)
        (List.assoc_opt "t.shared" totals);
      Alcotest.(check (option int)) "per-domain counter" (Some 2)
        (List.assoc_opt "t.own" totals);
      (* the two spans, one per domain, aggregate into one summary node *)
      match find_node "t.domain" (Obs.Summary.tree evs) with
      | None -> Alcotest.fail "no per-domain span node"
      | Some n -> Alcotest.(check int) "spans merged" 2 n.Obs.Summary.count)

let test_disabled_records_nothing () =
  Obs.reset ();
  Alcotest.(check bool) "disabled by default" false (Obs.enabled ());
  Obs.span ~name:"ghost" (fun () -> ());
  Obs.instant "ghost.i";
  Obs.count "ghost.c" 3;
  Obs.attr (fun () -> Alcotest.fail "attr thunk evaluated while disabled");
  let r, dt = Obs.timed_span ~name:"ghost.t" (fun () -> 17) in
  Alcotest.(check int) "timed_span still runs" 17 r;
  Alcotest.(check bool) "timed_span still measures" true (dt >= 0.);
  Alcotest.(check int) "no events recorded" 0 (List.length (Obs.collect ()));
  (* a trace of zero collected events is still valid JSON, carrying only
     the process-name metadata record *)
  match Sjson.member "traceEvents" (Sjson.parse (Obs.Chrome.to_string [])) with
  | Some (Sjson.List evs) ->
      Alcotest.(check bool) "only metadata in empty trace" true
        (List.for_all
           (fun e -> Sjson.member "ph" e = Some (Sjson.String "M"))
           evs)
  | _ -> Alcotest.fail "empty chrome trace is not an object with traceEvents"

(* Counter events become Chrome "C" records plotting the running total,
   one record per [count] call. *)
let test_chrome_counter_tracks () =
  with_obs (fun () ->
      Obs.count "c" 2;
      Obs.count "c" 3;
      let trace = Sjson.parse (Obs.Chrome.to_string (Obs.collect ())) in
      let events =
        match Sjson.member "traceEvents" trace with
        | Some (Sjson.List evs) -> evs
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let totals =
        List.filter_map
          (fun e ->
            if
              Sjson.member "ph" e = Some (Sjson.String "C")
              && Sjson.member "name" e = Some (Sjson.String "c")
            then Option.bind (Sjson.member "args" e) (Sjson.member "value")
            else None)
          events
      in
      Alcotest.(check bool) "running totals 2, then 5" true
        (totals = [ Sjson.Int 2; Sjson.Int 5 ]))

(* ---- live metrics: histograms, gauges, Prometheus exposition ---- *)

(* Each test owns the live-metrics switch the same way [with_obs] owns the
   tracing switch. *)
let with_counters f =
  Obs.reset ();
  Obs.enable_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable_counters ();
      Obs.reset ())
    f

let test_nearest_rank_pinned () =
  let nr = Obs.Histogram.nearest_rank in
  Alcotest.(check (float 0.)) "empty" 0. (nr [||] 0.5);
  (* the regression the bench percentile fix pins: rank = ceil (q*n), so
     p50 of two samples is the FIRST one, not the second *)
  Alcotest.(check (float 0.)) "p50 of [1;2]" 1. (nr [| 1.; 2. |] 0.5);
  Alcotest.(check (float 0.)) "p50 of [1;2;3]" 2. (nr [| 1.; 2.; 3. |] 0.5);
  let hundred = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.)) "p50 of 1..100" 50. (nr hundred 0.50);
  Alcotest.(check (float 0.)) "p95 of 1..100" 95. (nr hundred 0.95);
  Alcotest.(check (float 0.)) "p99 of 1..100" 99. (nr hundred 0.99);
  Alcotest.(check (float 0.)) "p100 clamps" 100. (nr hundred 1.0);
  Alcotest.(check (float 0.)) "p0 clamps" 1. (nr hundred 0.)

(* Four domains hammer one histogram concurrently; the merged snapshot
   must equal the single-domain sequential snapshot of the same samples
   (same count, same buckets; sum up to summation order). *)
let test_histogram_merge_across_domains () =
  with_counters (fun () ->
      let ndom = 4 and per = 500 in
      let sample i j = (float_of_int ((i * 97) + j) +. 1.) /. 17. in
      let ds =
        List.init ndom (fun i ->
            Domain.spawn (fun () ->
                for j = 0 to per - 1 do
                  Obs.observe "h.merge" (sample i j)
                done))
      in
      List.iter Domain.join ds;
      let merged =
        match Obs.Histogram.find "h.merge" with
        | Some s -> s
        | None -> Alcotest.fail "no merged histogram"
      in
      Obs.reset ();
      for i = 0 to ndom - 1 do
        for j = 0 to per - 1 do
          Obs.observe "h.merge" (sample i j)
        done
      done;
      let seq =
        match Obs.Histogram.find "h.merge" with
        | Some s -> s
        | None -> Alcotest.fail "no sequential histogram"
      in
      Alcotest.(check int) "count" seq.Obs.Histogram.count
        merged.Obs.Histogram.count;
      Alcotest.(check int) "total samples" (ndom * per)
        merged.Obs.Histogram.count;
      Alcotest.(check (float 1e-6)) "sum" seq.Obs.Histogram.sum
        merged.Obs.Histogram.sum;
      Alcotest.(check bool) "buckets identical" true
        (merged.Obs.Histogram.buckets = seq.Obs.Histogram.buckets))

(* Adversarial sample sets: every histogram quantile must sit within one
   bucket of the exact nearest-rank value — at the bucket's upper bound,
   never below the exact sample. *)
let test_quantile_bucket_bound () =
  let distributions =
    [
      ("all-equal", Array.make 1000 0.5);
      ("two-point", Array.init 1000 (fun i -> if i mod 2 = 0 then 1e-6 else 9.9));
      ("geometric", Array.init 200 (fun i -> Float.ldexp 1. ((i mod 25) - 15)));
      (* exact powers of two sit on bucket boundaries *)
      ("boundary-powers", [| 0.25; 0.5; 1.0; 2.0; 4.0; 8.0 |]);
      ("underflow-heavy", Array.init 100 (fun i -> if i < 90 then 1e-9 else 1.0));
    ]
  in
  let qs = [ 0.; 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ] in
  List.iter
    (fun (label, samples) ->
      with_counters (fun () ->
          Array.iter (Obs.observe "h.adv") samples;
          let s =
            match Obs.Histogram.find "h.adv" with
            | Some s -> s
            | None -> Alcotest.fail "no histogram"
          in
          let sorted = Array.copy samples in
          Array.sort compare sorted;
          List.iter
            (fun q ->
              let exact = Obs.Histogram.nearest_rank sorted q in
              let hq = Obs.Histogram.quantile s q in
              let _, hi = Obs.Histogram.bucket_bounds_of_value exact in
              if not (hq >= exact && hq <= hi) then
                Alcotest.failf
                  "%s q=%.2f: histogram %.9g outside (exact %.9g, bucket top \
                   %.9g]"
                  label q hq exact hi)
            qs))
    distributions

(* The exposition text must parse: HELP/TYPE per family, cumulative
   monotone buckets, a +Inf bucket equal to _count, and _sum matching. *)
let test_prom_round_trip () =
  with_counters (fun () ->
      Obs.count "prom.hits" 3;
      Obs.Gauge.set "prom.depth" 2.5;
      let samples = [ 0.0011; 0.0042; 0.0042; 0.093; 0.72; 1.9 ] in
      List.iter (Obs.observe "prom.lat seconds") samples;
      (* name needs sanitizing: space and dot both become '_' *)
      let text = Obs.Prom.to_string () in
      let lines =
        List.filter (fun l -> l <> "") (String.split_on_char '\n' text)
      in
      Alcotest.(check bool) "ends with newline" true
        (String.length text > 0 && text.[String.length text - 1] = '\n');
      let parse_sample line =
        (* "name value" or "name{le=\"x\"} value" *)
        match String.index_opt line ' ' with
        | None -> Alcotest.failf "unparseable sample line %S" line
        | Some i ->
            let name_part = String.sub line 0 i in
            let v =
              match
                float_of_string_opt
                  (String.sub line (i + 1) (String.length line - i - 1))
              with
              | Some v -> v
              | None -> Alcotest.failf "bad value in %S" line
            in
            let name, label =
              match String.index_opt name_part '{' with
              | None -> (name_part, None)
              | Some b ->
                  let base = String.sub name_part 0 b in
                  let le_val =
                    Scanf.sscanf
                      (String.sub name_part b
                         (String.length name_part - b))
                      "{le=%S}" Fun.id
                  in
                  (base, Some le_val)
            in
            (name, label, v)
      in
      let helps = Hashtbl.create 8 and types = Hashtbl.create 8 in
      let samples_seen = ref [] in
      List.iter
        (fun line ->
          if String.length line > 0 && line.[0] = '#' then
            Scanf.sscanf line "# %s %s" (fun kind name ->
                match kind with
                | "HELP" -> Hashtbl.replace helps name ()
                | "TYPE" -> Hashtbl.replace types name ()
                | k -> Alcotest.failf "unknown comment kind %s" k)
          else samples_seen := parse_sample line :: !samples_seen)
        lines;
      let samples_seen = List.rev !samples_seen in
      let value name =
        match
          List.find_opt (fun (n, l, _) -> n = name && l = None) samples_seen
        with
        | Some (_, _, v) -> v
        | None -> Alcotest.failf "missing sample %s" name
      in
      (* names: "seqver_" prefix, '.'/' ' sanitized, counters get _total *)
      Alcotest.(check (float 0.)) "counter" 3. (value "seqver_prom_hits_total");
      Alcotest.(check (float 0.)) "gauge" 2.5 (value "seqver_prom_depth");
      let h = "seqver_prom_lat_seconds" in
      let buckets =
        List.filter_map
          (function
            | n, Some le, v when n = h ^ "_bucket" -> Some (le, v) | _ -> None)
          samples_seen
      in
      Alcotest.(check bool) "has buckets" true (List.length buckets >= 2);
      (* cumulative counts never decrease; le bounds strictly increase *)
      let rec check_monotone = function
        | (le1, v1) :: ((le2, v2) :: _ as rest) ->
            Alcotest.(check bool)
              (Printf.sprintf "cumulative %s <= %s" le1 le2)
              true (v1 <= v2);
            if le2 <> "+Inf" then
              Alcotest.(check bool)
                (Printf.sprintf "le %s < %s" le1 le2)
                true
                (float_of_string le1 < float_of_string le2);
            check_monotone rest
        | _ -> ()
      in
      check_monotone buckets;
      (match List.rev buckets with
      | (le, v) :: _ ->
          Alcotest.(check string) "last bucket is +Inf" "+Inf" le;
          Alcotest.(check (float 0.)) "+Inf == _count" (value (h ^ "_count")) v
      | [] -> Alcotest.fail "no buckets");
      Alcotest.(check (float 0.)) "_count" 6. (value (h ^ "_count"));
      Alcotest.(check (float 1e-9)) "_sum"
        (List.fold_left ( +. ) 0. samples)
        (value (h ^ "_sum"));
      (* every exposed family carries HELP and TYPE *)
      List.iter
        (fun fam ->
          Alcotest.(check bool) (fam ^ " HELP") true (Hashtbl.mem helps fam);
          Alcotest.(check bool) (fam ^ " TYPE") true (Hashtbl.mem types fam))
        [ "seqver_prom_hits_total"; "seqver_prom_depth"; h ])

let test_buffer_cap_drops () =
  let original = Obs.buffer_cap () in
  Fun.protect
    ~finally:(fun () -> Obs.set_buffer_cap original)
    (fun () ->
      with_obs (fun () ->
          Obs.set_buffer_cap 10;
          for i = 1 to 100 do
            Obs.instant (Printf.sprintf "cap.%d" i)
          done;
          Alcotest.(check int) "buffer capped" 10
            (List.length (Obs.collect ()));
          Alcotest.(check int) "drops counted" 90 (Obs.dropped_events ());
          (* reset restarts the window and the drop counter *)
          Obs.reset ();
          Obs.instant "cap.fresh";
          Alcotest.(check int) "window restarts" 1
            (List.length (Obs.collect ()));
          Alcotest.(check int) "drop counter cleared" 0 (Obs.dropped_events ())))

(* The satellite regression: [reset] must be safe while another domain is
   emitting full tilt.  The old implementation zeroed the foreign domain's
   buffer length from the resetting domain, racing its in-flight append. *)
let test_reset_race_with_emitter () =
  Obs.reset ();
  Obs.enable ();
  Obs.enable_counters ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.disable_counters ();
      Obs.reset ())
    (fun () ->
      let stop = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            let n = ref 0 in
            while not (Atomic.get stop) do
              Obs.instant "race.i";
              Obs.count "race.c" 1;
              Obs.observe "race.h" 0.5;
              incr n
            done;
            !n)
      in
      for _ = 1 to 500 do
        Obs.reset ();
        ignore (Obs.collect ());
        ignore (Obs.Counters.snapshot ());
        ignore (Obs.Histogram.snapshot ())
      done;
      Atomic.set stop true;
      let n = Domain.join d in
      Alcotest.(check bool) "emitter made progress" true (n > 0);
      (* after a final reset the world is clean and fresh emissions land *)
      Obs.reset ();
      Obs.count "race.after" 2;
      Alcotest.(check (option int)) "fresh counter after reset" (Some 2)
        (List.assoc_opt "race.after" (Obs.Counters.snapshot ()));
      Alcotest.(check bool) "no resurrected events" true
        (List.for_all
           (function
             | Obs.Instant { name = "race.i"; _ } -> false | _ -> true)
           (Obs.collect ())))

let test_capture_semantics () =
  Obs.reset ();
  Alcotest.(check bool) "tracing stays disabled" false (Obs.enabled ());
  let r, evs =
    Obs.capture (fun () ->
        Obs.span ~name:"cap.s" (fun () -> Obs.instant "cap.i");
        42)
  in
  Alcotest.(check int) "capture returns the result" 42 r;
  let names =
    List.filter_map
      (function
        | Obs.Begin { name; _ } -> Some ("B:" ^ name)
        | Obs.End { name; _ } -> Some ("E:" ^ name)
        | Obs.Instant { name; _ } -> Some ("I:" ^ name)
        | Obs.Count _ -> None)
      evs
  in
  Alcotest.(check (list string)) "events in emission order"
    [ "B:cap.s"; "I:cap.i"; "E:cap.s" ]
    names;
  Alcotest.(check int) "nothing leaked to the global sink" 0
    (List.length (Obs.collect ()));
  (* nested captures shadow: the inner one takes the events *)
  let inner_evs, outer_evs =
    Obs.capture (fun () ->
        Obs.instant "outer.a";
        let _, inner = Obs.capture (fun () -> Obs.instant "inner.b") in
        Obs.instant "outer.c";
        inner)
  in
  let inst evs =
    List.filter_map
      (function Obs.Instant { name; _ } -> Some name | _ -> None)
      evs
  in
  Alcotest.(check (list string)) "inner capture took its events"
    [ "inner.b" ] (inst inner_evs);
  Alcotest.(check (list string)) "outer capture kept the rest"
    [ "outer.a"; "outer.c" ]
    (inst outer_evs);
  Obs.reset ()

let suite =
  [
    Alcotest.test_case "span nesting in summary tree" `Quick test_span_nesting;
    Alcotest.test_case "exception closes span" `Quick test_exception_closes_span;
    Alcotest.test_case "chrome attrs round-trip as JSON" `Quick
      test_chrome_attrs_roundtrip;
    Alcotest.test_case "counters merge across domains" `Quick
      test_counter_merge_across_domains;
    Alcotest.test_case "disabled sink records nothing" `Quick
      test_disabled_records_nothing;
    Alcotest.test_case "chrome counter tracks" `Quick test_chrome_counter_tracks;
    Alcotest.test_case "nearest-rank percentile pinned" `Quick
      test_nearest_rank_pinned;
    Alcotest.test_case "histogram merge across domains" `Quick
      test_histogram_merge_across_domains;
    Alcotest.test_case "quantile error within bucket bound" `Quick
      test_quantile_bucket_bound;
    Alcotest.test_case "prometheus exposition round-trips" `Quick
      test_prom_round_trip;
    Alcotest.test_case "buffer cap drops are counted" `Quick
      test_buffer_cap_drops;
    Alcotest.test_case "reset races a counting domain" `Quick
      test_reset_race_with_emitter;
    Alcotest.test_case "capture is request-scoped" `Quick
      test_capture_semantics;
  ]
