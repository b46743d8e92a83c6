(* Untraced serve_mix: a [seqver serve] daemon fed by this process over
   at most two Unix-socket connections.

   Phases: set-up (spawn a daemon on a fresh store and send one cold
   pass over the base pairs, repeated [setups] times — every daemon but
   the last is drained right away), an open loop (seeded Poisson
   arrivals, pipelined on both connections, each latency timed from the
   request's due time), a closed loop (one request outstanding per
   connection), a [stats] scrape, and a SIGTERM drain. *)

type conn = { fd : Unix.file_descr; ic : in_channel }

let reply_timeout = 60.

let connect sock ~deadline =
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO reply_timeout;
        { fd; ic = Unix.in_channel_of_descr fd }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Obs.Clock.now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.002;
        go ()
    | exception e ->
        Unix.close fd;
        raise e
  in
  go ()

let close c = close_in_noerr c.ic

let send c s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write c.fd b !off (n - !off)
  done

let send_request c (r : Inputs.request) =
  send c r.Inputs.prefix;
  send c r.Inputs.body

(* One reply line; [None] when the connection failed or timed out. *)
let read_reply c =
  match input_line c.ic with
  | line -> ( try Some (Sjson.parse line) with Sjson.Parse_error _ -> None)
  | exception (End_of_file | Sys_error _) -> None

type outcome = Ok_verdict | Wrong | Undecided | Shed | Error

let outcome_name = function
  | Ok_verdict -> "ok"
  | Wrong -> "wrong verdict"
  | Undecided -> "undecided"
  | Shed -> "shed"
  | Error -> "error"

let classify (inp : Inputs.serve_input) (r : Inputs.request) reply =
  let str k j = Option.bind (Sjson.member k j) Sjson.get_string in
  let _, expect = inp.Inputs.pairs.(r.Inputs.pair) in
  match reply with
  | None -> Error
  | Some j -> (
      match (Option.bind (Sjson.member "ok" j) Sjson.get_bool, str "verdict" j) with
      | Some true, Some "equivalent" -> if expect = Inputs.Eq then Ok_verdict else Wrong
      | Some true, Some "inequivalent" -> if expect = Inputs.Neq then Ok_verdict else Wrong
      | Some true, Some "undecided" ->
          if str "reason" j = Some "busy" || str "reason" j = Some "shutting down" then Shed
          else Undecided
      | _ -> Error)

type phase = {
  latency : float array;  (* per request, seconds; infinity unless Ok_verdict *)
  outcomes : outcome array;
  sat_calls : int array;  (* from each reply's counters *)
  partitions : int array;
  wall : float;
}

let counter reply k =
  let ( let* ) = Option.bind in
  Option.value ~default:0
    (let* j = reply in
     let* c = Sjson.member "counters" j in
     let* v = Sjson.member k c in
     Sjson.get_int v)

(* Closed loop: each connection keeps one request outstanding, drawing
   the next index from a shared counter. *)
let closed_loop inp conns (reqs : Inputs.request array) =
  let n = Array.length reqs in
  let latency = Array.make n infinity and outcomes = Array.make n Error in
  let sat_calls = Array.make n 0 and partitions = Array.make n 0 in
  let next = Atomic.make 0 in
  let worker c () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let t0 = Obs.Clock.now () in
        let reply =
          match send_request c reqs.(i) with
          | () -> read_reply c
          | exception Unix.Unix_error _ -> None
        in
        let dt = Obs.Clock.now () -. t0 in
        let o = classify inp reqs.(i) reply in
        outcomes.(i) <- o;
        sat_calls.(i) <- counter reply "sat_calls";
        partitions.(i) <- counter reply "partitions";
        if o = Ok_verdict then latency.(i) <- dt;
        go ()
      end
    in
    go ()
  in
  let t0 = Obs.Clock.now () in
  List.iter Thread.join (List.map (fun c -> Thread.create (worker c) ()) conns);
  { latency; outcomes; sat_calls; partitions; wall = Obs.Clock.now () -. t0 }

(* Open loop: the main thread sends request [i] on connection [i mod 2]
   at its due time whether or not earlier replies have arrived; one
   reader thread per connection matches replies by id.  Returns the
   phase and the generator lateness (send time minus due time) of every
   request. *)
let open_loop inp conns (sched : (float * Inputs.request) array) =
  let conns = Array.of_list conns in
  let k = Array.length conns in
  let n = Array.length sched in
  let pos = Hashtbl.create n in
  Array.iteri (fun i (_, (r : Inputs.request)) -> Hashtbl.replace pos r.Inputs.id i) sched;
  let received = Array.make n nan and outcomes = Array.make n Error in
  let lateness = Array.make n 0. in
  let reader ci () =
    let expected = (n - ci + k - 1) / k in
    let rec go got =
      if got < expected then
        match read_reply conns.(ci) with
        | None -> ()
        | Some j as reply -> (
            let t = Obs.Clock.now () in
            let id = Option.bind (Sjson.member "id" j) Sjson.get_int in
            match Option.bind id (Hashtbl.find_opt pos) with
            | Some i ->
                received.(i) <- t;
                outcomes.(i) <- classify inp (snd sched.(i)) reply;
                go (got + 1)
            | None -> go got)
    in
    go 0
  in
  let readers = Array.to_list (Array.mapi (fun ci _ -> Thread.create (reader ci) ()) conns) in
  let t0 = Obs.Clock.now () +. 0.01 in
  Array.iteri
    (fun i (due, r) ->
      let due = t0 +. due in
      let wait = due -. Obs.Clock.now () in
      if wait > 0. then Unix.sleepf wait;
      lateness.(i) <- Obs.Clock.now () -. due;
      try send_request conns.(i mod k) r with Unix.Unix_error _ -> ())
    sched;
  List.iter Thread.join readers;
  let latency =
    Array.mapi
      (fun i (due, _) ->
        if outcomes.(i) = Ok_verdict then received.(i) -. (t0 +. due) else infinity)
      sched
  in
  let zeros = Array.make n 0 in
  ( { latency; outcomes; sat_calls = zeros; partitions = zeros; wall = Obs.Clock.now () -. t0 },
    lateness )

type daemon = { pid : int; sock : string; t_spawn : float }

let spawn_daemon ~bin ~dir k =
  let f name = Filename.concat dir (Printf.sprintf "%s%d" name k) in
  let sock = f "d.sock" in
  let pid, t_spawn =
    Proc.spawn ~out:(f "daemon.out") ~err:(f "daemon.err") bin
      [
        "serve"; "--socket"; sock; "--executors"; "2"; "--jobs"; "2";
        "--cache-dir"; f "store";
      ]
  in
  { pid; sock; t_spawn }

(* SIGTERM, then reap: exit code, peak RSS (KiB, the daemon's VmHWM at
   exit), and whether the socket file is gone. *)
let drain d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  Proc.set_deadline d.pid 60.;
  let code, rss, timed_out = Proc.wait d.pid in
  let ok = code = 0 && (not timed_out) && not (Sys.file_exists d.sock) in
  (ok, rss)

type result = {
  setup_s : float list;
  cold : phase list;  (* one per set-up *)
  open_ : phase;
  lateness : float array;
  closed : phase;
  stats : Sjson.t option;
  drains_ok : bool;  (* every daemon drained: exit 0, socket removed *)
  rss_kb : int;  (* the timed daemon's peak *)
}

let run ~bin ~dir ~setups (inp : Inputs.serve_input) =
  let connect_all d =
    let deadline = Obs.Clock.now () +. 30. in
    [ connect d.sock ~deadline; connect d.sock ~deadline ]
  in
  let rec set_up k acc_s acc_cold acc_ok =
    let d = spawn_daemon ~bin ~dir k in
    let conns = connect_all d in
    let cold = closed_loop inp conns inp.Inputs.cold in
    let s = Obs.Clock.now () -. d.t_spawn in
    if k + 1 < setups then begin
      List.iter close conns;
      let ok, _ = drain d in
      set_up (k + 1) (s :: acc_s) (cold :: acc_cold) (acc_ok && ok)
    end
    else (d, conns, List.rev (s :: acc_s), List.rev (cold :: acc_cold), acc_ok)
  in
  let d, conns, setup_s, cold, ok = set_up 0 [] [] true in
  let open_, lateness = open_loop inp conns inp.Inputs.open_loop in
  let closed = closed_loop inp conns inp.Inputs.closed in
  let stats =
    match conns with
    | c :: _ -> (
        match send c "{\"id\":0,\"op\":\"stats\"}\n" with
        | () -> read_reply c
        | exception Unix.Unix_error _ -> None)
    | [] -> None
  in
  List.iter close conns;
  let drained, rss_kb = drain d in
  { setup_s; cold; open_; lateness; closed; stats; drains_ok = ok && drained; rss_kb }

(* A number in a stats reply, by field path. *)
let stat stats path =
  List.fold_left (fun j k -> Option.bind j (Sjson.member k)) stats path
  |> Fun.flip Option.bind Sjson.get_float

(* The daemon's tally must reconcile with ours: every check we sent was
   either completed or shed. *)
let reconcile r ~sent =
  let int path = Option.map int_of_float (stat r.stats path) in
  match (int [ "server"; "completed" ], int [ "server"; "shed" ]) with
  | Some completed, Some shed -> (completed + shed = sent, completed, shed)
  | _ -> (false, -1, -1)
