(* Child processes of the benchmark: spawned with their output sent to
   files, reaped together with their peak resident set, killed by a
   watchdog when their deadline passes, and killed and reaped by
   [kill_all] on every exit path. *)

external wait4 : int -> int * int = "perfbench_wait4"

type result = {
  code : int;  (** exit status, or minus the signal number *)
  seconds : float;  (** spawn to exit *)
  maxrss_kb : int;
  timed_out : bool;  (** killed by the watchdog *)
}

(* pid -> (deadline, fired); guarded by [m] *)
let live : (int, float * bool ref) Hashtbl.t = Hashtbl.create 8
let m = Mutex.create ()
let watchdog = ref None

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let rec watch () =
  Unix.sleepf 0.05;
  let now = Obs.Clock.now () in
  locked (fun () ->
      Hashtbl.iter
        (fun pid (deadline, fired) ->
          if (not !fired) && now > deadline then begin
            fired := true;
            try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ()
          end)
        live);
  watch ()

(* Returns the pid and the clock reading taken just before the spawn. *)
let spawn ?(timeout = infinity) ~out ~err prog args =
  if !watchdog = None then watchdog := Some (Thread.create watch ());
  let fd path =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644
  in
  let o = fd out and e = fd err in
  (* stdin is an empty pipe: a child that reads it sees end of file *)
  let i, w = Unix.pipe ~cloexec:true () in
  Unix.close w;
  let t0 = Obs.Clock.now () in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ i; o; e ])
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) i o e)
  in
  locked (fun () -> Hashtbl.replace live pid (t0 +. timeout, ref false));
  (pid, t0)

let set_deadline pid seconds =
  locked (fun () ->
      match Hashtbl.find_opt live pid with
      | Some (_, fired) ->
          Hashtbl.replace live pid (Obs.Clock.now () +. seconds, fired)
      | None -> ())

(* Reaps [pid]: (exit code, peak RSS in KiB, killed by the watchdog). *)
let wait pid =
  let code, rss = wait4 pid in
  locked (fun () ->
      let fired =
        match Hashtbl.find_opt live pid with Some (_, f) -> !f | None -> false
      in
      Hashtbl.remove live pid;
      (code, rss, fired))

let run ?timeout ~out ~err prog args =
  let pid, t0 = spawn ?timeout ~out ~err prog args in
  let code, maxrss_kb, timed_out = wait pid in
  { code; seconds = Obs.Clock.now () -. t0; maxrss_kb; timed_out }

let kill_all () =
  let pids = locked (fun () -> Hashtbl.fold (fun pid _ acc -> pid :: acc) live []) in
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (wait pid) with Failure _ -> ())
    pids

let rec remove_tree path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
