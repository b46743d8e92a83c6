(* Persistent verdict store: binary round-trip, LRU eviction, crash and
   corruption recovery, multi-handle sharing, and end-to-end verdict
   transfer through Cec at a different unrolling depth. *)

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "seqver_store_%d_%d" (Unix.getpid ()) !n)
    in
    if Sys.file_exists d then begin
      Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
      Unix.rmdir d
    end;
    d

let log_path dir = Filename.concat dir Store.file_name

let verdict_eq (a : Store.verdict) b = a = b

let check_verdict msg expected got =
  Alcotest.(check bool) msg true (Option.fold ~none:false ~some:(verdict_eq expected) got)

(* ---- CRC32 ---- *)

let test_crc32 () =
  (* the standard IEEE check value *)
  Alcotest.(check int) "crc32 check vector" 0xCBF43926 (Store.crc32 "123456789");
  Alcotest.(check int) "crc32 empty" 0 (Store.crc32 "");
  Alcotest.(check bool) "crc32 detects a flip" true
    (Store.crc32 "123456789" <> Store.crc32 "123456788")

(* ---- round trip ---- *)

let test_roundtrip () =
  let dir = fresh_dir () in
  let cex = [ (0, true); (3, false); (17, true) ] in
  let st = Store.open_ dir in
  Alcotest.(check bool) "fresh add" true (Store.add st "sig-eq" Store.Equivalent);
  Alcotest.(check bool) "fresh add cex" true (Store.add st "sig-ineq" (Store.Inequivalent cex));
  Alcotest.(check bool) "duplicate add is a no-op" false (Store.add st "sig-eq" Store.Equivalent);
  check_verdict "find before close" (Store.Inequivalent cex) (Store.find st "sig-ineq");
  Store.close st;
  let st = Store.open_ dir in
  let i = Store.info st in
  Alcotest.(check int) "entries survive reopen" 2 i.Store.entries;
  Alcotest.(check (option string)) "no quarantine" None i.Store.quarantined_to;
  check_verdict "equivalent round-trips" Store.Equivalent (Store.find st "sig-eq");
  check_verdict "cex round-trips" (Store.Inequivalent cex) (Store.find st "sig-ineq");
  Alcotest.(check (option string)) "miss" None
    (Option.map (fun _ -> "hit") (Store.find st "sig-absent"));
  let i = Store.info st in
  Alcotest.(check int) "hits counted" 2 i.Store.hits;
  Alcotest.(check int) "misses counted" 1 i.Store.misses;
  Store.close st;
  Alcotest.check_raises "use after close" (Invalid_argument "Store: store is closed")
    (fun () -> ignore (Store.find st "sig-eq"))

(* ---- LRU eviction at capacity ---- *)

let test_eviction () =
  let dir = fresh_dir () in
  let st = Store.open_ ~capacity:8 dir in
  for k = 0 to 7 do
    ignore (Store.add st (Printf.sprintf "k%d" k) Store.Equivalent)
  done;
  (* refresh k0 and k1 so the eviction pass must drop k2..k4 instead *)
  ignore (Store.find st "k0");
  ignore (Store.find st "k1");
  ignore (Store.add st "k8" Store.Equivalent);
  let i = Store.info st in
  Alcotest.(check int) "evicted down to 3/4 capacity" 6 i.Store.entries;
  Alcotest.(check int) "evictions counted" 3 i.Store.evictions;
  Alcotest.(check int) "one automatic compaction" 1 i.Store.compactions;
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " survives") true (Store.mem st k))
    [ "k0"; "k1"; "k5"; "k6"; "k7"; "k8" ];
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " evicted") false (Store.mem st k))
    [ "k2"; "k3"; "k4" ];
  Store.close st;
  (* recency was persisted by the compaction: the survivors reload *)
  let st = Store.open_ ~capacity:8 dir in
  Alcotest.(check int) "survivors reload" 6 (Store.info st).Store.entries;
  Store.close st

(* ---- two handles on one directory (the cross-process protocol) ---- *)

let test_two_handles () =
  let dir = fresh_dir () in
  let t1 = Store.open_ dir in
  let t2 = Store.open_ dir in
  ignore (Store.add t1 "from-1" Store.Equivalent);
  ignore (Store.add t2 "from-2" (Store.Inequivalent [ (1, true) ]));
  (* appends interleave in one log; each handle only indexes its own until
     a compaction merges the file *)
  Alcotest.(check bool) "t1 blind to t2 before merge" false (Store.mem t1 "from-2");
  Store.compact t1;
  Alcotest.(check bool) "t1 sees t2 after merge" true (Store.mem t1 "from-2");
  ignore (Store.add t2 "from-2-late" Store.Equivalent);
  Store.close t1;
  Store.close t2;
  (* t2 appended through t1's compaction rewrite; nothing may be lost *)
  let st = Store.open_ dir in
  Alcotest.(check int) "all writers merged" 3 (Store.info st).Store.entries;
  Alcotest.(check (option string)) "log stayed healthy" None
    (Store.info st).Store.quarantined_to;
  Store.close st

let test_concurrent_domains () =
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  let per = 40 in
  let writer w () =
    for k = 0 to per - 1 do
      ignore (Store.add st (Printf.sprintf "d%d-%d" w k) Store.Equivalent)
    done
  in
  let ds = List.init 4 (fun w -> Domain.spawn (writer w)) in
  List.iter Domain.join ds;
  Alcotest.(check int) "all writes indexed" (4 * per) (Store.info st).Store.entries;
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check int) "all writes durable" (4 * per) (Store.info st).Store.entries;
  Alcotest.(check (option string)) "no torn records" None
    (Store.info st).Store.quarantined_to;
  Store.close st

(* ---- corruption recovery ---- *)

let seed_store dir n =
  let st = Store.open_ dir in
  for k = 0 to n - 1 do
    ignore
      (Store.add st (Printf.sprintf "c%d" k) (Store.Inequivalent [ (k, true) ]))
  done;
  Store.close st

let quarantine_count dir =
  Array.fold_left
    (fun acc f ->
      if String.length f >= 10 && String.sub f 0 10 = "verdicts.b"
         && String.length f > String.length Store.file_name
      then acc + 1
      else acc)
    0 (Sys.readdir dir)

(* [seed_store dir 3] writes an 8-byte magic and three 28-byte records:
   a 92-byte log. *)
let magic_len = 8
let record_len = 28

let seeded_log () =
  let dir = fresh_dir () in
  seed_store dir 3;
  let log = In_channel.with_open_bin (log_path dir) In_channel.input_all in
  Alcotest.(check int) "seeded log size" (magic_len + (3 * record_len)) (String.length log);
  log

(* Opens a store whose whole log is [log], damaged at byte [offset], and
   checks what it salvaged: exactly the records wholly before [offset],
   each with the verdict written, and no key of the damaged record or a
   later one. *)
let check_damaged dir ~what ~offset ~quarantined log =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Out_channel.with_open_bin (log_path dir) (fun oc -> output_string oc log);
  let st = Store.open_ dir in
  let i = Store.info st in
  let whole = if offset < magic_len then 0 else (offset - magic_len) / record_len in
  Alcotest.(check int) (what ^ ": entries") whole i.Store.entries;
  Alcotest.(check bool) (what ^ ": quarantined") quarantined (i.Store.quarantined_to <> None);
  for k = 0 to 2 do
    let key = Printf.sprintf "c%d" k in
    if k < whole then
      check_verdict (what ^ ": salvaged " ^ key) (Store.Inequivalent [ (k, true) ])
        (Store.find st key)
    else
      Alcotest.(check bool) (what ^ ": lost " ^ key) true (Store.find st key = None)
  done;
  Store.close st

let test_truncated_log () =
  (* every truncation length: only a cut on a record boundary, or one that
     empties the file, leaves a healthy log *)
  let log = seeded_log () in
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  for len = 0 to String.length log - 1 do
    let boundary = len = 0 || (len >= magic_len && (len - magic_len) mod record_len = 0) in
    check_damaged dir ~what:(Printf.sprintf "cut at %d" len) ~offset:len
      ~quarantined:(not boundary) (String.sub log 0 len)
  done;
  let dir = fresh_dir () in
  seed_store dir 3;
  let path = log_path dir in
  let size = (Unix.stat path).Unix.st_size in
  Unix.truncate path (size - 3) (* tear the final record mid-payload *);
  let st = Store.open_ dir in
  let i = Store.info st in
  Alcotest.(check int) "valid prefix salvaged" 2 i.Store.entries;
  Alcotest.(check bool) "quarantine reported" true (i.Store.quarantined_to <> None);
  let q = Option.get i.Store.quarantined_to in
  Alcotest.(check bool) "quarantine file exists" true (Sys.file_exists q);
  check_verdict "salvaged record intact" (Store.Inequivalent [ (0, true) ])
    (Store.find st "c0");
  (* the store is live again: writes go to a fresh healthy log *)
  Alcotest.(check bool) "store writable after recovery" true
    (Store.add st "after" Store.Equivalent);
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check int) "recovered log reloads" 3 (Store.info st).Store.entries;
  Alcotest.(check (option string)) "second open is clean" None
    (Store.info st).Store.quarantined_to;
  Store.close st

let test_bit_flip () =
  (* every single-bit flip: the magic, a record length, a CRC or a payload
     byte; each one quarantines the log *)
  let log = seeded_log () in
  let dir = fresh_dir () in
  Unix.mkdir dir 0o755;
  for offset = 0 to String.length log - 1 do
    for bit = 0 to 7 do
      let b = Bytes.of_string log in
      Bytes.set b offset (Char.chr (Char.code log.[offset] lxor (1 lsl bit)));
      check_damaged dir ~what:(Printf.sprintf "flip %d.%d" offset bit) ~offset
        ~quarantined:true (Bytes.to_string b)
    done
  done;
  let dir = fresh_dir () in
  seed_store dir 3;
  let path = log_path dir in
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (size - 2) Unix.SEEK_SET);
  ignore (Unix.write fd (Bytes.make 1 '\xff') 0 1) (* flip payload bytes *);
  Unix.close fd;
  let st = Store.open_ dir in
  Alcotest.(check int) "crc rejects the damaged tail" 2 (Store.info st).Store.entries;
  Alcotest.(check bool) "damaged log quarantined" true
    ((Store.info st).Store.quarantined_to <> None);
  Store.close st

let test_bad_magic () =
  let dir = fresh_dir () in
  seed_store dir 2;
  let oc = open_out (log_path dir) in
  output_string oc "definitely not a verdict store";
  close_out oc;
  let st = Store.open_ dir in
  Alcotest.(check int) "cold start from bad magic" 0 (Store.info st).Store.entries;
  Alcotest.(check bool) "bad file quarantined" true
    ((Store.info st).Store.quarantined_to <> None);
  Alcotest.(check bool) "two quarantines never collide" true (quarantine_count dir >= 1);
  ignore (Store.add st "fresh" Store.Equivalent);
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check int) "fresh log after quarantine" 1 (Store.info st).Store.entries;
  Store.close st

(* ---- verdict transfer through Cec ---- *)

(* a fresh result cache backed by the store, as the CLI builds per check *)
let backed st = Cec.Cache.create ~store:st ()

(* [x] vs [x AND y] at unrolling depth [d]: inequivalent, cex x=1, y=0. *)
let xy_problem d =
  let b = Seqprob.builder () in
  let x = Seqprob.var_lit b (Seqprob.Var.time "x" d) in
  let y = Seqprob.var_lit b (Seqprob.Var.time "y" d) in
  let xy = Aig.and_ (Seqprob.graph b) x y in
  Result.get_ok (Seqprob.problem b ~outs1:[ x ] ~outs2:[ xy ])

let test_cex_replay_across_depths () =
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  let v0, s0 = Cec.check_problem_with_stats ~cache:(backed st) (xy_problem 0) in
  (match v0 with
  | Cec.Inequivalent _ -> ()
  | _ -> Alcotest.fail "cold check must find the counterexample");
  Alcotest.(check int) "cold check had no store hit" 0 s0.Cec.store_hits;
  Alcotest.(check int) "cold run wrote the verdict" 1 s0.Cec.store_writes;
  Store.close st;
  (* same cones, one unrolling step later: structurally identical, so the
     stored verdict transfers and the cex is rebased onto the new vars *)
  let st = Store.open_ dir in
  let p1 = xy_problem 1 in
  let v1, s1 = Cec.check_problem_with_stats ~cache:(backed st) p1 in
  Alcotest.(check int) "warm check answered from store" 1 s1.Cec.store_hits;
  Alcotest.(check int) "no solver work on the warm check" 0 s1.Cec.sat_calls;
  (match v1 with
  | Cec.Inequivalent cex ->
      Alcotest.(check bool) "replayed cex is valid at depth 1" true
        (Seqprob.cex_is_valid p1 cex);
      List.iter
        (fun ((v : Seqprob.Var.t), _) ->
          Alcotest.(check bool)
            ("cex variable rebased: " ^ Seqprob.Var.to_string v)
            true
            (v.Seqprob.Var.index = Seqprob.Var.Time 1))
        cex
  | _ -> Alcotest.fail "warm check must replay the counterexample");
  Store.close st

(* Table-1 B-vs-C checks (exposed + optimized against exposed): after the
   store is reopened, the warm check answers every partition from the log
   with no solver work and the same verdict. *)
let test_table1_warm_from_store () =
  List.iter
    (fun name ->
      let c = Workloads.by_name name in
      let b, copt = Result.get_ok (Flow.circuits c) in
      let exposed =
        List.map (Circuit.signal_name c) (Feedback.plan_structural c).Feedback.exposed
      in
      let check st = Result.get_ok (Verify.check ~jobs:2 ~cache:(backed st) ~exposed b copt) in
      let dir = fresh_dir () in
      let st = Store.open_ dir in
      let cold = check st in
      Store.close st;
      (match cold.Verify.verdict with
      | Verify.Equivalent -> ()
      | _ -> Alcotest.fail (name ^ ": cold B vs C not proven"));
      let st = Store.open_ dir in
      let warm = check st in
      Store.close st;
      let cec = warm.Verify.stats.Verify.cec in
      (match warm.Verify.verdict with
      | Verify.Equivalent -> ()
      | _ -> Alcotest.fail (name ^ ": warm verdict differs"));
      Alcotest.(check bool) (name ^ ": warm check has partitions") true
        (cec.Cec.partitions > 0);
      Alcotest.(check int) (name ^ ": every partition from the store")
        cec.Cec.partitions cec.Cec.store_hits;
      Alcotest.(check int) (name ^ ": no SAT calls") 0 cec.Cec.sat_calls)
    [ "minmax10"; "s953"; "s3330" ]

(* a parity miter (chain vs tree) under an already-expired deadline: the
   check gives up before any engine runs *)
let parity_pair n =
  let mk name tree =
    let c = Circuit.create name in
    let ins = List.init n (fun i -> Circuit.add_input c (Printf.sprintf "p%d" i)) in
    let out =
      if tree then begin
        let rec pair = function
          | a :: b :: tl -> Circuit.add_gate c Xor [ a; b ] :: pair tl
          | rest -> rest
        in
        let rec build = function [ x ] -> x | xs -> build (pair xs) in
        build ins
      end
      else
        List.fold_left
          (fun acc i -> Circuit.add_gate c Xor [ acc; i ])
          (List.hd ins) (List.tl ins)
    in
    Circuit.mark_output c out;
    Circuit.check c;
    c
  in
  (mk "uchain" false, mk "utree" true)

let test_undecided_never_persisted () =
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  let limits = { Cec.no_limits with seconds = Some 0.0 } in
  let c1, c2 = parity_pair 14 in
  let v, _ =
    Cec.check_problem_with_stats ~engine:Cec.Sat_engine ~limits
      ~cache:(backed st) (Cec.of_circuits c1 c2)
  in
  (match v with
  | Cec.Undecided _ -> ()
  | _ -> Alcotest.fail "expired deadline must yield Undecided");
  Alcotest.(check int) "nothing written" 0 (Store.info st).Store.writes;
  Store.close st;
  let st = Store.open_ dir in
  Alcotest.(check int) "store still empty" 0 (Store.info st).Store.entries;
  Store.close st

(* ---- record kinds ---- *)

let test_kinds () =
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  ignore (Store.add st "flatkey" Store.Equivalent);
  ignore (Store.add ~kind:"hier" st "hierkey1" Store.Equivalent);
  ignore (Store.add ~kind:"hier" st "hierkey2" (Store.Inequivalent [ (2, true) ]));
  let kinds st = (Store.info st).Store.kinds in
  Alcotest.(check (list (pair string int)))
    "per-kind counts"
    [ ("flat", 1); ("hier", 2) ]
    (kinds st);
  Store.close st;
  (* kinds and payloads survive reopen and compaction *)
  let st = Store.open_ dir in
  Alcotest.(check (list (pair string int)))
    "kinds after reopen"
    [ ("flat", 1); ("hier", 2) ]
    (kinds st);
  check_verdict "kinded cex round-trips"
    (Store.Inequivalent [ (2, true) ])
    (Store.find st "hierkey2");
  Store.compact st;
  Alcotest.(check (list (pair string int)))
    "kinds after compaction"
    [ ("flat", 1); ("hier", 2) ]
    (kinds st);
  Store.close st

(* A store holding only default-kind records must stay byte-compatible
   with the pre-kind format: record tags 0/1, no kind field.  (A pre-kind
   reader sees tags 2/3 as unknown — corruption — and quarantines into a
   cold start, which is the safe direction.) *)
let test_flat_records_legacy_framing () =
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  ignore (Store.add st "k" Store.Equivalent);
  ignore (Store.add st "k2" (Store.Inequivalent [ (0, false) ]));
  Store.close st;
  let ic = open_in_bin (log_path dir) in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* magic(8) | len(4) crc(4) payload... — payload byte 0 is the tag *)
  let tag1 = Char.code s.[16] in
  let len1 = Char.code s.[8] lor (Char.code s.[9] lsl 8) in
  let tag2 = Char.code s.[16 + 8 + len1] in
  Alcotest.(check int) "equivalent record uses legacy tag 0" 0 tag1;
  Alcotest.(check int) "inequivalent record uses legacy tag 1" 1 tag2

(* ---- close: idempotent, race-safe ---- *)

(* spin barrier: releases once [n] parties arrive *)
let barrier n =
  let c = Atomic.make n in
  fun () ->
    Atomic.decr c;
    while Atomic.get c > 0 do
      Domain.cpu_relax ()
    done

let test_close_idempotent () =
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  Alcotest.(check bool) "add" true (Store.add st "sig-a" Store.Equivalent);
  Store.close st;
  (* a second close is a no-op, not a double-free of the fd or channel *)
  Store.close st;
  Store.close st;
  let st2 = Store.open_ dir in
  Alcotest.(check int) "entries intact" 1 (Store.info st2).Store.entries;
  Store.close st2;
  (* two domains racing to close ONE handle: exactly one wins, none crash *)
  let st = Store.open_ dir in
  ignore (Store.add st "sig-b" Store.Equivalent);
  let bar = barrier 2 in
  let closer () =
    bar ();
    Store.close st;
    true
  in
  let d1 = Domain.spawn closer and d2 = Domain.spawn closer in
  Alcotest.(check bool) "both closers return" true (Domain.join d1 && Domain.join d2);
  let st3 = Store.open_ dir in
  Alcotest.(check int) "no entry lost to the racing close" 2
    (Store.info st3).Store.entries;
  Alcotest.(check (option string)) "no quarantine" None
    (Store.info st3).Store.quarantined_to;
  Store.close st3

let test_close_races_writer () =
  (* one domain streams unique-key adds while another closes the handle:
     every add either lands fully or raises the closed error — afterwards
     the log replays cleanly and holds exactly the successful adds *)
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  let bar = barrier 2 in
  let writer =
    Domain.spawn (fun () ->
        bar ();
        let landed = ref 0 in
        (try
           for i = 0 to 999 do
             if Store.add st (Printf.sprintf "race-%04d" i) Store.Equivalent
             then incr landed
           done
         with Invalid_argument _ -> ());
        !landed)
  in
  bar ();
  (* let the writer get some adds in, then pull the rug *)
  while (Store.info st).Store.writes = 0 do
    Domain.cpu_relax ()
  done;
  Store.close st;
  let landed = Domain.join writer in
  let st2 = Store.open_ dir in
  let i = Store.info st2 in
  Alcotest.(check (option string)) "log replays cleanly" None i.Store.quarantined_to;
  Alcotest.(check int) "exactly the successful adds survive" landed i.Store.entries;
  Alcotest.(check bool) "the race actually wrote something" true (landed > 0);
  Store.close st2

(* ---- two domains, one store handle, warm verification reads ---- *)

let test_two_domain_warm_reads () =
  (* seed the store with one cold check, then two domains replay the same
     problem concurrently through the SAME handle: both must be answered
     from the store without solver work — the server's steady state *)
  let dir = fresh_dir () in
  let st = Store.open_ dir in
  (match fst (Cec.check_problem_with_stats ~cache:(backed st) (xy_problem 0)) with
  | Cec.Inequivalent _ -> ()
  | _ -> Alcotest.fail "cold check must find the counterexample");
  let warm () =
    let _, s = Cec.check_problem_with_stats ~cache:(backed st) (xy_problem 0) in
    (s.Cec.store_hits, s.Cec.sat_calls)
  in
  let d1 = Domain.spawn warm and d2 = Domain.spawn warm in
  let h1, sat1 = Domain.join d1 in
  let h2, sat2 = Domain.join d2 in
  Alcotest.(check bool) "both domains hit the store" true (h1 > 0 && h2 > 0);
  Alcotest.(check int) "no solver work (domain 1)" 0 sat1;
  Alcotest.(check int) "no solver work (domain 2)" 0 sat2;
  Store.close st

let suite =
  [
    Alcotest.test_case "crc32" `Quick test_crc32;
    Alcotest.test_case "round trip" `Quick test_roundtrip;
    Alcotest.test_case "lru eviction" `Quick test_eviction;
    Alcotest.test_case "two handles, one directory" `Quick test_two_handles;
    Alcotest.test_case "concurrent domain writers" `Quick test_concurrent_domains;
    Alcotest.test_case "truncated log recovery" `Quick test_truncated_log;
    Alcotest.test_case "bit flip recovery" `Quick test_bit_flip;
    Alcotest.test_case "bad magic cold start" `Quick test_bad_magic;
    Alcotest.test_case "cex replay across depths" `Quick test_cex_replay_across_depths;
    Alcotest.test_case "table-1 checks warm from the store" `Quick test_table1_warm_from_store;
    Alcotest.test_case "undecided never persisted" `Quick test_undecided_never_persisted;
    Alcotest.test_case "record kinds" `Quick test_kinds;
    Alcotest.test_case "flat records keep legacy framing" `Quick test_flat_records_legacy_framing;
    Alcotest.test_case "close is idempotent" `Quick test_close_idempotent;
    Alcotest.test_case "close races a writer" `Quick test_close_races_writer;
    Alcotest.test_case "two-domain warm reads" `Quick test_two_domain_warm_reads;
  ]
