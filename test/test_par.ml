(* The domain pool: ordering, determinism, cancellation, exceptions. *)

let job_counts = [ 1; 2; 4 ]

let test_map_preserves_order () =
  List.iter
    (fun jobs ->
      Par.Pool.with_pool ~jobs (fun p ->
          let xs = List.init 100 Fun.id in
          let got = Par.Pool.map p (fun x -> x * x) xs in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d" jobs)
            (List.map (fun x -> x * x) xs)
            got;
          Alcotest.(check (list int)) "empty" [] (Par.Pool.map p (fun x -> x) []);
          Alcotest.(check (list int)) "singleton" [ 7 ] (Par.Pool.map p (fun x -> x) [ 7 ])))
    job_counts

let test_find_first_deterministic () =
  List.iter
    (fun jobs ->
      Par.Pool.with_pool ~jobs (fun p ->
          let xs = List.init 64 Fun.id in
          let f x = if x mod 7 = 3 then Some (x * 10) else None in
          (* smallest match is 3, independently of scheduling *)
          for _ = 1 to 5 do
            Alcotest.(check (option int))
              (Printf.sprintf "jobs=%d" jobs)
              (List.find_map f xs)
              (Par.Pool.find_first p f xs)
          done;
          Alcotest.(check (option int))
            "no match" None
            (Par.Pool.find_first p (fun _ -> None) xs)))
    job_counts

let test_find_first_cancels () =
  (* once the match at index 0 is recorded, the index guard must skip the
     rest of the sweep.  Deterministic formulation: tail tasks park until
     the match is published (via the [?found] flag), so the only tasks
     that can enter [f] before cancellation are the ones already running
     on a worker when the match landed — at most jobs-1 of them.  The
     submitter always executes index 0 itself, so the match is recorded
     without ever waiting on a worker (no deadlock against the gate). *)
  Par.Pool.with_pool ~jobs:4 (fun p ->
      let flag = Atomic.make false in
      let early = Atomic.make 0 in
      let n = 10_000 in
      let f i =
        if i = 0 then Some i
        else begin
          if not (Atomic.get flag) then Atomic.incr early;
          while not (Atomic.get flag) do
            Domain.cpu_relax ()
          done;
          None
        end
      in
      let r = Par.Pool.find_first ~found:flag p f (List.init n Fun.id) in
      Alcotest.(check (option int)) "found" (Some 0) r;
      Alcotest.(check bool)
        (Printf.sprintf "tail cancelled (early entries: %d)" (Atomic.get early))
        true
        (Atomic.get early < 4))

let test_find_first_found_flag () =
  (* the ?found flag is raised the moment any match is recorded — the hook
     long-running tasks poll for cooperative cancellation *)
  Par.Pool.with_pool ~jobs:2 (fun p ->
      let flag = Atomic.make false in
      let r =
        Par.Pool.find_first ~found:flag p
          (fun x -> if x = 5 then Some x else None)
          (List.init 32 Fun.id)
      in
      Alcotest.(check (option int)) "match found" (Some 5) r;
      Alcotest.(check bool) "flag set on match" true (Atomic.get flag);
      let clear = Atomic.make false in
      let none =
        Par.Pool.find_first ~found:clear p (fun _ -> None) (List.init 32 Fun.id)
      in
      Alcotest.(check (option int)) "no match" None none;
      Alcotest.(check bool) "flag untouched without a match" false (Atomic.get clear))

let test_exceptions_propagate () =
  List.iter
    (fun jobs ->
      Par.Pool.with_pool ~jobs (fun p ->
          match Par.Pool.map p (fun x -> if x = 13 then failwith "boom" else x) (List.init 20 Fun.id) with
          | _ -> Alcotest.fail (Printf.sprintf "jobs=%d: exception swallowed" jobs)
          | exception Failure m -> Alcotest.(check string) "message" "boom" m))
    job_counts

let test_pool_reuse_and_nesting () =
  (* many runs on one pool; pools created inside pool tasks *)
  Par.Pool.with_pool ~jobs:2 (fun outer ->
      for round = 1 to 20 do
        let xs = List.init 50 (fun i -> i + round) in
        let got =
          Par.Pool.map outer
            (fun x ->
              if x mod 17 = 0 then
                Par.Pool.with_pool ~jobs:2 (fun inner ->
                    List.fold_left ( + ) 0 (Par.Pool.map inner Fun.id [ x; x; x ]))
              else 3 * x)
            xs
        in
        Alcotest.(check (list int)) "nested" (List.map (fun x -> 3 * x) xs) got
      done)

let test_lazy_spawn () =
  (* workers are spawned on first use, never at creation, and never more
     than the run's task count warrants — a pool created for a check that
     turns out monolithic costs nothing *)
  Par.Pool.with_pool ~jobs:4 (fun p ->
      Alcotest.(check int) "creation spawns nothing" 0 (Par.Pool.spawned p);
      ignore (Par.Pool.map p Fun.id [ 42 ]);
      Alcotest.(check int) "a single task needs no worker" 0 (Par.Pool.spawned p);
      ignore (Par.Pool.map p Fun.id [ 1; 2 ]);
      Alcotest.(check int) "two tasks: one worker" 1 (Par.Pool.spawned p);
      ignore (Par.Pool.map p Fun.id (List.init 16 Fun.id));
      Alcotest.(check int) "capped at jobs-1 workers" 3 (Par.Pool.spawned p);
      (* workers persist once spawned; later small runs don't shrink *)
      ignore (Par.Pool.map p Fun.id [ 7 ]);
      Alcotest.(check int) "workers persist" 3 (Par.Pool.spawned p));
  Par.Pool.with_pool ~jobs:1 (fun p ->
      ignore (Par.Pool.map p Fun.id (List.init 16 Fun.id));
      Alcotest.(check int) "jobs=1 never spawns" 0 (Par.Pool.spawned p))

(* OCaml 5 runs at most 128 domains: a pool asked for more than 64 jobs
   is clamped to 64, without spawning anything *)
let test_jobs_clamped () =
  let p = Par.Pool.create ~jobs:1000 in
  Alcotest.(check int) "jobs" 64 (Par.Pool.jobs p);
  Alcotest.(check int) "nothing spawned" 0 (Par.Pool.spawned p);
  Par.Pool.shutdown p;
  Alcotest.(check int) "jobs 0 is 1" 1 (Par.Pool.jobs (Par.Pool.create ~jobs:0))

let test_effects_visible_after_run () =
  Par.Pool.with_pool ~jobs:4 (fun p ->
      let arr = Array.make 1000 0 in
      Par.Pool.run p 1000 (fun i -> arr.(i) <- i + 1);
      let ok = ref true in
      Array.iteri (fun i v -> if v <> i + 1 then ok := false) arr;
      Alcotest.(check bool) "all writes visible" true !ok)

(* ---- one pool, many submitting domains (the server's sharing shape) ---- *)

let test_concurrent_submitters () =
  (* several domains run interleaved map batches on ONE pool: each batch's
     results must be exactly its own (no cross-batch mixing), at every
     jobs level including 1 *)
  List.iter
    (fun jobs ->
      let p = Par.Pool.create ~jobs in
      let doms =
        List.init 4 (fun s ->
            Domain.spawn (fun () ->
                let ok = ref true in
                for round = 1 to 25 do
                  let xs =
                    List.init (10 + ((s + round) mod 17)) (fun i -> (s * 1000) + i)
                  in
                  let got = Par.Pool.map p (fun x -> (x * 2) + s) xs in
                  if got <> List.map (fun x -> (x * 2) + s) xs then ok := false
                done;
                !ok))
      in
      List.iter
        (fun d ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d batches intact" jobs)
            true (Domain.join d))
        doms;
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d worker cap held" jobs)
        true
        (Par.Pool.spawned p <= max 0 (jobs - 1));
      Par.Pool.shutdown p)
    [ 1; 2; 4 ]

exception Boom of int

let test_concurrent_exception_isolation () =
  (* one domain's batches keep failing while another's keep succeeding on
     the same pool: every exception must land in the batch that submitted
     the raising task (even when a helping sibling domain executed it),
     and the healthy batches must never observe it *)
  let p = Par.Pool.create ~jobs:4 in
  let good =
    Domain.spawn (fun () ->
        let ok = ref true in
        let expect = List.init 32 (fun x -> x + 1) in
        for _ = 1 to 50 do
          match Par.Pool.map p (fun x -> x + 1) (List.init 32 Fun.id) with
          | got -> if got <> expect then ok := false
          | exception _ -> ok := false
        done;
        !ok)
  in
  let bad =
    Domain.spawn (fun () ->
        let landed = ref 0 in
        for r = 1 to 50 do
          match Par.Pool.run p 8 (fun i -> if i = 5 then raise (Boom r)) with
          | () -> ()
          | exception Boom r' -> if r' = r then incr landed
        done;
        !landed)
  in
  Alcotest.(check bool) "healthy batches unaffected" true (Domain.join good);
  Alcotest.(check int) "exceptions land in the raising batch" 50
    (Domain.join bad);
  Par.Pool.shutdown p

let test_concurrent_find_first () =
  let p = Par.Pool.create ~jobs:4 in
  let doms =
    List.init 4 (fun s ->
        Domain.spawn (fun () ->
            let ok = ref true in
            for _ = 1 to 25 do
              let f x = if x mod 10 = s then Some (x, s) else None in
              (* lowest index matching this submitter's own predicate *)
              if Par.Pool.find_first p f (List.init 40 Fun.id) <> Some (s, s)
              then ok := false
            done;
            !ok))
  in
  List.iter
    (fun d ->
      Alcotest.(check bool) "find_first per-batch result" true (Domain.join d))
    doms;
  Par.Pool.shutdown p

let test_shutdown_races_batch () =
  (* shutdown while a batch may be mid-flight: the batch still completes
     (the submitter drains what the stopped workers leave), shutdown joins
     every worker, and the pool ends empty either way the race goes *)
  for _ = 1 to 10 do
    let p = Par.Pool.create ~jobs:4 in
    let count = Atomic.make 0 in
    let d =
      Domain.spawn (fun () ->
          Par.Pool.run p 64 (fun _ -> Atomic.incr count))
    in
    Par.Pool.shutdown p;
    Domain.join d;
    Alcotest.(check int) "every task of the racing batch ran" 64
      (Atomic.get count);
    Alcotest.(check int) "no workers left" 0 (Par.Pool.spawned p)
  done

let suite =
  [
    Alcotest.test_case "map preserves order" `Quick test_map_preserves_order;
    Alcotest.test_case "find_first deterministic" `Quick test_find_first_deterministic;
    Alcotest.test_case "find_first cancels tail" `Quick test_find_first_cancels;
    Alcotest.test_case "find_first found flag" `Quick test_find_first_found_flag;
    Alcotest.test_case "exceptions propagate" `Quick test_exceptions_propagate;
    Alcotest.test_case "pool reuse and nesting" `Quick test_pool_reuse_and_nesting;
    Alcotest.test_case "lazy spawn" `Quick test_lazy_spawn;
    Alcotest.test_case "task effects visible" `Quick test_effects_visible_after_run;
    Alcotest.test_case "concurrent submitters" `Quick test_concurrent_submitters;
    Alcotest.test_case "concurrent exception isolation" `Quick
      test_concurrent_exception_isolation;
    Alcotest.test_case "concurrent find_first" `Quick test_concurrent_find_first;
    Alcotest.test_case "shutdown races a batch" `Quick test_shutdown_races_batch;
    Alcotest.test_case "jobs clamped to 64" `Quick test_jobs_clamped;
  ]
