(* Seeded workload inputs.  Everything a run feeds the program — netlists,
   exposure lists, serve request lines — is derived from [--seed] and
   written to the run directory before any timing starts, and generation
   time (Flow.circuits, Hier.resynthesize included) is outside every
   metric.  The MD5 of the written bytes lets two runs show that they
   measured the same inputs. *)

type expect = Eq | Neq

let expect_name = function Eq -> "EQ" | Neq -> "NEQ"

(* independent, reproducible per-input seeds *)
let sub_seed seed k = Hashtbl.hash (seed, k)

type writer = { dir : string; digest : Buffer.t }

let writer dir = { dir; digest = Buffer.create 1024 }

let write w name text =
  let path = Filename.concat w.dir name in
  Out_channel.with_open_bin path (fun oc -> output_string oc text);
  Buffer.add_string w.digest name;
  Buffer.add_string w.digest (Digest.string text);
  path

let hash w = Digest.to_hex (Digest.string (Buffer.contents w.digest))

let exposure c =
  List.map (Circuit.signal_name c) (Feedback.plan_structural c).Feedback.exposed

(* ---- flow_table1: one resynthesized A per table-1 circuit ---- *)

(* A CLI run makes several passes, each over its own [variant] of the
   inputs, so one run averages over several resynthesis draws. *)

type flow_input = { f_name : string; f_path : string; f_text : string }

let flow_table1 w ~seed ~variant =
  List.mapi
    (fun i (name, a) ->
      let text = Netlist_io.to_string (Hier.resynthesize ~seed:(sub_seed seed (variant, i)) a) in
      {
        f_name = name;
        f_path = write w (Printf.sprintf "%s.v%d.net" name variant) text;
        f_text = text;
      })
    (Workloads.table1_suite_small ())

(* ---- verify_large: style pairs past and below the layout threshold ---- *)

type verify_input = {
  v_name : string;
  v_left : string;  (* paths *)
  v_right : string;
  v_left_text : string;
  v_right_text : string;
  v_exposed : string list;  (* structural plan of the left side *)
  v_expect : expect;
}

let verify_large w ~seed ~variant =
  let fifo ?bug entries width style =
    Workloads.fifo ?bug ~entries ~width ~style ()
  in
  let alu style = Workloads.lane_alu ~lanes:64 ~width:8 ~stages:4 ~style () in
  List.mapi
    (fun i (name, l, r, expect) ->
      let l = Hier.resynthesize ~seed:(sub_seed seed (variant, 2 * i)) l in
      let r = Hier.resynthesize ~seed:(sub_seed seed (variant, (2 * i) + 1)) r in
      let lt = Netlist_io.to_string l and rt = Netlist_io.to_string r in
      let exposed = exposure l in
      let file suffix = Printf.sprintf "%s.v%d%s" name variant suffix in
      ignore (write w (file ".exposed") (String.concat "," exposed));
      {
        v_name = name;
        v_left = write w (file "_l.net") lt;
        v_right = write w (file "_r.net") rt;
        v_left_text = lt;
        v_right_text = rt;
        v_exposed = exposed;
        v_expect = expect;
      })
    [
      ("fifo32x16", fifo 32 16 `Sop, fifo 32 16 `Mux, Eq);
      ("fifo64x16", fifo 64 16 `Sop, fifo 64 16 `Mux, Eq);
      ("fifo128x8", fifo 128 8 `Sop, fifo 128 8 `Mux, Eq);
      ("alu64x8x4", alu `Ripple, alu `Select, Eq);
      ("fifo64x16_bug", fifo 64 16 `Sop, fifo ~bug:true 64 16 `Mux, Neq);
    ]

(* ---- serve_mix: base pairs plus a seeded request stream ---- *)

(* One request: its line is [prefix ^ body], where [prefix] carries the
   id and [body] (shared by every request for the same pair text) the
   rest of the JSON object and the newline. *)
type request = {
  id : int;
  pair : int;  (* index into [pairs] *)
  fresh : bool;  (* right side is a never-seen revision *)
  prefix : string;
  body : string;
}

type serve_input = {
  pairs : (string * expect) array;
  cold : request array;  (* one per base pair, in order *)
  open_loop : (float * request) array;  (* due offset (s) from phase start *)
  closed : request array;
}

(* one request in every [fresh_window] is a fresh revision: 5%, an assumed
   mix rather than one observed in server traffic *)
let fresh_window = 20

let line_of r = r.prefix ^ r.body

(* The open and closed phases get [open_n] and [closed_n] requests rounded
   down to whole blocks of [fresh_window * pairs], so that every run sends
   each pair equally often as a repeat and as a fresh revision; the open
   phase keeps at least [open_min] requests (whole blocks again) and the
   closed one at least a block. *)
let serve_mix w ~seed ~open_n ~open_min ~rate ~closed_n =
  let fifo ?bug entries style = Workloads.fifo ?bug ~entries ~width:8 ~style () in
  let flow_pairs =
    List.mapi
      (fun i (name, a) ->
        match Flow.circuits (Hier.resynthesize ~seed:(sub_seed seed i) a) with
        | Ok (b, c) -> (name, b, c, Eq)
        | Error d ->
            failwith (name ^ ": " ^ Seqprob.diagnosis_to_string d))
      (Workloads.table1_suite_small ())
  in
  let style_pairs =
    List.mapi
      (fun i (name, l, r, e) ->
        let s k = sub_seed seed (100 + (2 * i) + k) in
        (name, Hier.resynthesize ~seed:(s 0) l, Hier.resynthesize ~seed:(s 1) r, e))
      [
        ("fifo8x8", fifo 8 `Sop, fifo 8 `Mux, Eq);
        ("fifo16x8", fifo 16 `Sop, fifo 16 `Mux, Eq);
        ("minmax8", Workloads.minmax ~width:8, Workloads.minmax ~width:8, Eq);
        ("fifo8x8_bug", fifo 8 `Sop, fifo ~bug:true 8 `Mux, Neq);
      ]
  in
  let base = Array.of_list (flow_pairs @ style_pairs) in
  (* the fields [seqver client check] sends, minus the leading "{" *)
  let body left right =
    let s =
      Sjson.to_string
        (Sjson.Obj
           [
             ("op", Sjson.String "check");
             ("left", Sjson.String left);
             ("right", Sjson.String right);
             ("exposed", Sjson.String "auto");
             ("engine", Sjson.String "sweep");
           ])
    in
    String.sub s 1 (String.length s - 1) ^ "\n"
  in
  let bodies =
    Array.mapi
      (fun i (name, l, r, _) ->
        let b = body (Netlist_io.to_string l) (Netlist_io.to_string r) in
        ignore (write w (Printf.sprintf "pair%02d_%s.json" i name) b);
        b)
      base
  in
  let next_id = ref 0 and fresh_n = ref 0 in
  let request pair fresh =
    incr next_id;
    let b =
      if not fresh then bodies.(pair)
      else begin
        incr fresh_n;
        let _, l, r, _ = base.(pair) in
        let r' = Hier.resynthesize ~seed:(sub_seed seed (1_000_000 + !fresh_n)) r in
        let b = body (Netlist_io.to_string l) (Netlist_io.to_string r') in
        ignore (write w (Printf.sprintf "fresh%04d.json" !fresh_n) b);
        b
      end
    in
    { id = !next_id; pair; fresh; prefix = Printf.sprintf "{\"id\":%d," !next_id; body = b }
  in
  (* The stream is stratified so that runs differ only in order, not in
     mix: repeats walk seeded permutations of the pairs (each pair once per
     block), exactly one request in every [fresh_window] is a
     fresh revision, and revisions walk their own permutations. *)
  let st = Random.State.make [| seed; 0x5e7e |] in
  let permutations () =
    let block = ref [||] and pos = ref 0 in
    fun () ->
      if !pos >= Array.length !block then begin
        let a = Array.init (Array.length base) Fun.id in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        block := a;
        pos := 0
      end;
      incr pos;
      !block.(!pos - 1)
  in
  let repeat_pair = permutations () and fresh_pair = permutations () in
  let drawn = ref 0 and fresh_slot = ref 0 in
  let draw () =
    if !drawn mod fresh_window = 0 then fresh_slot := Random.State.int st fresh_window;
    let fresh = !drawn mod fresh_window = !fresh_slot in
    incr drawn;
    if fresh then request (fresh_pair ()) true else request (repeat_pair ()) false
  in
  let cold = Array.init (Array.length base) (fun i -> request i false) in
  let block = fresh_window * Array.length base in
  let blocks ~at_least n = block * max ((at_least + block - 1) / block) (n / block) in
  let due = ref 0. in
  let open_loop =
    Array.init (blocks ~at_least:open_min open_n) (fun _ ->
        (* Poisson arrivals: exponential gaps at [rate] per second *)
        due := !due -. (log (1. -. Random.State.float st 1.) /. rate);
        (!due, draw ()))
  in
  let closed = Array.init (blocks ~at_least:1 closed_n) (fun _ -> draw ()) in
  let schedule = Buffer.create 4096 in
  let row phase due r =
    Printf.bprintf schedule "%s %.6f %d %d %b\n" phase due r.id r.pair r.fresh
  in
  Array.iter (row "cold" 0.) cold;
  Array.iter (fun (d, r) -> row "open" d r) open_loop;
  Array.iter (row "closed" 0.) closed;
  ignore (write w "serve_schedule.txt" (Buffer.contents schedule));
  {
    pairs = Array.map (fun (n, _, _, e) -> (n, e)) base;
    cold;
    open_loop;
    closed;
  }
