(* In-memory span log for the traced replay: one record per public layer
   call, made by the benchmark around the call (nothing inside lib/ is
   instrumented); [untraced] turns every span into a plain call.  The
   replay is sequential on the main domain, so spans nest strictly; pool
   work a call fans out stays inside its span.  A span's self time is its
   duration minus the time its direct children cover. *)

type span = {
  sid : int;
  name : string;
  check : int;  (* id of the check (input or request) it belongs to *)
  parent : int;  (* sid of the enclosing span; 0 at the root *)
  t0 : float;
  mutable t1 : float;
}

let log : span list ref = ref []
let stack : span list ref = ref []
let next_sid = ref 0
let current_check = ref 0
let enabled = ref true

let reset () =
  log := [];
  stack := [];
  next_sid := 0

let span name f =
  if not !enabled then f ()
  else begin
    incr next_sid;
    let parent = match !stack with s :: _ -> s.sid | [] -> 0 in
    let s =
      { sid = !next_sid; name; check = !current_check; parent; t0 = Obs.Clock.now (); t1 = nan }
    in
    stack := s :: !stack;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- Obs.Clock.now ();
        stack := List.tl !stack;
        log := s :: !log)
      f
  end

(* Runs [f] with every span a plain call: the same work, untraced. *)
let untraced f =
  enabled := false;
  Fun.protect ~finally:(fun () -> enabled := true) f

(* The root span of one check; every layer span below it carries [id]. *)
let check id f =
  current_check := id;
  span "check" f

let duration s = s.t1 -. s.t0

(* name -> (total self seconds, call count), over the spans of the checks
   [keep] selects *)
let self_times ?(keep = fun _ -> true) () =
  let covered = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt covered s.parent)))
    !log;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if keep s.check then
      let self = duration s -. Option.value ~default:0. (Hashtbl.find_opt covered s.sid) in
      let t, n = Option.value ~default:(0., 0) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (t +. self, n + 1))
    !log;
  by_name

let self_seconds tbl names =
  List.fold_left
    (fun acc n -> acc +. fst (Option.value ~default:(0., 0) (Hashtbl.find_opt tbl n)))
    0. names

(* Seconds covered by layer spans: spans outside any check (the store
   open) and the direct children of the per-check roots. *)
let covered () =
  let roots = Hashtbl.create 64 in
  List.iter (fun s -> if s.name = "check" then Hashtbl.replace roots s.sid ()) !log;
  List.fold_left
    (fun acc s ->
      if s.name <> "check" && (s.parent = 0 || Hashtbl.mem roots s.parent) then
        acc +. duration s
      else acc)
    0. !log

(* Summed duration of the per-check roots. *)
let checks_total () =
  List.fold_left (fun acc s -> if s.name = "check" then acc +. duration s else acc) 0. !log

(* Each span name's share of the kept checks' time, largest first; the
   roots' own self time is what no layer span covers. *)
let split ?keep () =
  let self = self_times ?keep () in
  let total = Hashtbl.fold (fun _ (t, _) acc -> acc +. t) self 0. in
  Hashtbl.fold
    (fun n (t, _) acc -> ((if n = "check" then "unattributed" else n), t /. total) :: acc)
    self []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.map (fun (n, f) -> Printf.sprintf "%s %.1f%%" n (100. *. f))
  |> String.concat ", "

let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":\"%s\",\"check\":%d,\"parent\":%d,\"start\":%.9f,\"end\":%.9f}\n"
            s.sid s.name s.check s.parent s.t0 s.t1)
        (List.rev !log))
