(* Untraced flow_table1 and verify_large: one seqver process per check,
   timed from spawn to exit, repeated in passes over the workload's
   checks until the run's seconds are spent. *)

type row = {
  name : string;
  seconds : float;
  verdict : string;  (* EQ / NEQ / UNDEC / ERR *)
  sat_calls : int option;  (* what the CLI printed, when it prints it *)
  partitions : int option;
  summary : string;  (* the flow line without its time, for the replay check *)
  rss_kb : int;
  ok : bool;  (* verdict and exit code match the known answer *)
}

let read_file path = try In_channel.with_open_bin path In_channel.input_all with Sys_error _ -> ""

let find_line prefix text =
  List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' text)

let check_timeout = 150.

let spawn_check ~bin ~dir args =
  let out = Filename.concat dir "check.out" and err = Filename.concat dir "check.err" in
  let r = Proc.run ~timeout:check_timeout ~out ~err bin args in
  (r, read_file out)

(* "NAME: A(...) ... verify=EQ 1.23s" -> everything before the time *)
let strip_time line =
  match String.rindex_opt line ' ' with Some i -> String.sub line 0 i | None -> line

(* the rest of [line] after the first occurrence of [key] *)
let after key line =
  let n = String.length key and m = String.length line in
  let rec go i =
    if i + n > m then None
    else if String.sub line i n = key then Some (String.sub line (i + n) (m - i - n))
    else go (i + 1)
  in
  go 0

let flow_check ~bin ~dir (inp : Inputs.flow_input) =
  let r, out = spawn_check ~bin ~dir [ "flow"; "--jobs"; "2"; inp.Inputs.f_path ] in
  let line = find_line (inp.Inputs.f_name ^ ": A(") out in
  let verdict =
    match Option.bind line (fun l -> after " verify=" (strip_time l)) with
    | Some v -> v
    | None -> "ERR"
  in
  {
    name = inp.Inputs.f_name;
    seconds = r.Proc.seconds;
    verdict;
    sat_calls = None;
    partitions = None;
    summary = Option.fold ~none:"" ~some:strip_time line;
    rss_kb = r.Proc.maxrss_kb;
    ok = r.Proc.code = 0 && (not r.Proc.timed_out) && verdict = "EQ";
  }

(* (C delay / D delay, C area / D area) from a flow summary line, as the
   CLI prints them *)
let qor summary =
  match after " C(" summary with
  | None -> invalid_arg ("no C/D metrics in: " ^ summary)
  | Some rest ->
      Scanf.sscanf rest "l=%_d a=%d d=%d) D(a=%d d=%d)" (fun ca cd da dd ->
          (float_of_int cd /. float_of_int dd, float_of_int ca /. float_of_int da))

let verify_check ~bin ~dir (inp : Inputs.verify_input) =
  let exposed =
    match inp.Inputs.v_exposed with
    | [] -> []
    | names -> [ "--exposed=" ^ String.concat "," names ]
  in
  let r, out =
    spawn_check ~bin ~dir
      ([ "verify"; "--jobs"; "2" ] @ exposed @ [ inp.Inputs.v_left; inp.Inputs.v_right ])
  in
  let verdict, want_code =
    match String.split_on_char '\n' out with
    | "EQUIVALENT" :: _ -> ("EQ", 0)
    | first :: _ when String.starts_with ~prefix:"NOT EQUIVALENT" first -> ("NEQ", 1)
    | first :: _ when String.starts_with ~prefix:"UNDECIDED" first -> ("UNDEC", 2)
    | _ -> ("ERR", -1)
  in
  let cec =
    Option.bind (find_line "cec: " out) (fun l ->
        try Scanf.sscanf l "cec: %d partitions, %d SAT calls" (fun p s -> Some (p, s))
        with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
  in
  {
    name = inp.Inputs.v_name;
    seconds = r.Proc.seconds;
    verdict;
    sat_calls = Option.map snd cec;
    partitions = Option.map fst cec;
    summary = "";
    rss_kb = r.Proc.maxrss_kb;
    ok =
      r.Proc.code = want_code && (not r.Proc.timed_out)
      && verdict = Inputs.expect_name inp.Inputs.v_expect;
  }

(* Start-up cost every check pays: spawn to exit of [seqver --version]. *)
let startup ~bin ~dir n =
  List.init n (fun _ -> (fst (spawn_check ~bin ~dir [ "--version" ])).Proc.seconds)

let print_row ~pass r =
  let opt = function Some n -> string_of_int n | None -> "-" in
  Printf.printf "row pass=%d %-14s %9.4fs %-5s sat_calls=%s partitions=%s rss=%dMB%s\n" pass
    r.name r.seconds r.verdict (opt r.sat_calls) (opt r.partitions) (r.rss_kb / 1024)
    (if r.ok then "" else "  FAILED")

type pass = { wall : float; rows : row list; startup : float list }

(* One pass per input set, each set its own variant of the workload, each
   preceded by [startup_samples] start-up spawns outside the pass wall. *)
let startup_samples = 11

let passes ~bin ~dir check sets =
  List.mapi
    (fun i inputs ->
      let startup = startup ~bin ~dir startup_samples in
      let t0 = Obs.Clock.now () in
      let rows = List.map check inputs in
      let wall = Obs.Clock.now () -. t0 in
      List.iter (print_row ~pass:(i + 1)) rows;
      { wall; rows; startup })
    sets
