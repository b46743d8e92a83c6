type import = { circuit : Circuit.t; warnings : string list }

(* ---------- parsing ---------- *)

type statement =
  | Model of string
  | Inputs of string list
  | Outputs of string list
  | Names of string list * (string * char) list (* signals (out last), rows *)
  | Latch of string * string * string option (* input, output, init *)
  | End

let tokenize text =
  (* join continuation lines, strip comments, split into token lists *)
  let lines = String.split_on_char '\n' text in
  let joined = ref [] in
  let pending = Buffer.create 80 in
  List.iter
    (fun raw ->
      let line =
        match String.index_opt raw '#' with
        | Some i -> String.sub raw 0 i
        | None -> raw
      in
      let line = String.trim line in
      if String.length line > 0 && line.[String.length line - 1] = '\\' then
        Buffer.add_string pending (String.sub line 0 (String.length line - 1) ^ " ")
      else begin
        Buffer.add_string pending line;
        joined := Buffer.contents pending :: !joined;
        Buffer.clear pending
      end)
    lines;
  if Buffer.length pending > 0 then joined := Buffer.contents pending :: !joined;
  List.rev_map
    (fun l -> List.filter (fun t -> t <> "") (String.split_on_char ' ' l))
    !joined
  |> List.filter (fun l -> l <> [])

let parse_statements tokens =
  (* group .names with their cover rows *)
  let rec go acc = function
    | [] -> List.rev acc
    | (".model" :: rest) :: tl ->
        go (Model (match rest with n :: _ -> n | [] -> "anonymous") :: acc) tl
    | (".inputs" :: names) :: tl -> go (Inputs names :: acc) tl
    | (".outputs" :: names) :: tl -> go (Outputs names :: acc) tl
    | (".latch" :: args) :: tl -> (
        match args with
        | [ i; o ] -> go (Latch (i, o, None) :: acc) tl
        | [ i; o; init ] -> go (Latch (i, o, Some init) :: acc) tl
        | [ i; o; _type; _clock ] -> go (Latch (i, o, None) :: acc) tl
        | [ i; o; _type; _clock; init ] -> go (Latch (i, o, Some init) :: acc) tl
        | _ -> invalid_arg "Blif.parse: malformed .latch")
    | (".names" :: signals) :: tl ->
        if signals = [] then invalid_arg "Blif.parse: .names without signals";
        let rec rows acc_rows = function
          | (tok :: _ as line) :: tl' when String.length tok > 0 && tok.[0] <> '.' ->
              let row =
                match line with
                | [ out ] when List.length signals = 1 ->
                    ("", (if out = "1" then '1' else '0'))
                | [ ins; out ] -> (ins, if out = "1" then '1' else '0')
                | _ -> invalid_arg "Blif.parse: malformed cover row"
              in
              rows (row :: acc_rows) tl'
          | rest -> (List.rev acc_rows, rest)
        in
        let cover, rest = rows [] tl in
        go (Names (signals, cover) :: acc) rest
    | (".end" :: _) :: tl -> go (End :: acc) tl
    | (".exdc" :: _) :: _ -> List.rev acc (* ignore external don't-care block *)
    | (tok :: _) :: _ when String.length tok > 0 && tok.[0] = '.' ->
        invalid_arg (Printf.sprintf "Blif.parse: unsupported construct %s" tok)
    | _ :: tl -> go acc tl
  in
  go [] tokens

let parse text =
  let statements = parse_statements (tokenize text) in
  let name =
    match List.find_map (function Model n -> Some n | _ -> None) statements with
    | Some n -> n
    | None -> "anonymous"
  in
  let c = Circuit.create name in
  let warnings = ref [] in
  (* pass 1: declare inputs first, then every other signal on first use *)
  List.iter
    (fun st ->
      match st with
      | Inputs names -> List.iter (fun n -> ignore (Circuit.add_input c n)) names
      | Model _ | Outputs _ | Names _ | Latch _ | End -> ())
    statements;
  let resolve n = Circuit.resolve c n ~pos:0 ~len:(String.length n) in
  (* declare every file-referenced name up front, so the helper gates
     created while expanding covers cannot steal a file name *)
  List.iter
    (fun st ->
      match st with
      | Model _ | Inputs _ | End -> ()
      | Outputs names -> List.iter (fun n -> ignore (resolve n)) names
      | Latch (i, o, _) ->
          ignore (resolve i);
          ignore (resolve o)
      | Names (signals, _) -> List.iter (fun n -> ignore (resolve n)) signals)
    statements;
  (* pass 2: build logic *)
  List.iter
    (fun st ->
      match st with
      | Model _ | Inputs _ | End -> ()
      | Outputs names -> List.iter (fun n -> Circuit.mark_output c (resolve n)) names
      | Latch (i, o, init) ->
          (match init with
          | Some ("3" | "2") | None -> ()
          | Some v ->
              warnings :=
                Printf.sprintf "latch %s: initial value %s ignored (power-up is non-deterministic)" o v
                :: !warnings);
          Circuit.set_latch c (resolve o) ~data:(resolve i) ()
      | Names (signals, cover) -> (
          let rec split_last acc = function
            | [] -> invalid_arg "Blif.parse: empty .names"
            | [ out ] -> (List.rev acc, out)
            | x :: tl -> split_last (x :: acc) tl
          in
          let ins, out = split_last [] signals in
          let in_sigs = List.map resolve ins in
          let out_sig = resolve out in
          (* build the single-output cover *)
          let on_rows = List.filter (fun (_, o) -> o = '1') cover in
          let off_rows = List.filter (fun (_, o) -> o = '0') cover in
          let build_rows rows =
            (* OR over rows of AND over literals *)
            let terms =
              List.map
                (fun (pattern, _) ->
                  if String.length pattern <> List.length ins then
                    invalid_arg "Blif.parse: cover row width mismatch";
                  let lits =
                    List.concat
                      (List.mapi
                         (fun i s ->
                           match pattern.[i] with
                           | '1' -> [ s ]
                           | '0' -> [ Circuit.add_gate c Not [ s ] ]
                           | '-' -> []
                           | ch ->
                               invalid_arg
                                 (Printf.sprintf "Blif.parse: bad cover char %c" ch))
                         in_sigs)
                  in
                  match lits with
                  | [] -> Circuit.const_true c
                  | [ one ] -> one
                  | many -> Circuit.add_gate c And many)
                rows
            in
            match terms with
            | [] -> Circuit.const_false c
            | [ one ] -> one
            | many -> Circuit.add_gate c Or many
          in
          match (on_rows, off_rows) with
          | [], [] -> Circuit.set_gate c out_sig (Const false) [||]
          | on_rows, [] ->
              let f = build_rows on_rows in
              Circuit.set_gate c out_sig Buf [| f |]
          | [], off_rows ->
              let f = build_rows off_rows in
              Circuit.set_gate c out_sig Not [| f |]
          | _ -> invalid_arg "Blif.parse: mixed on-set and off-set cover"))
    statements;
  Circuit.check c;
  { circuit = c; warnings = List.rev !warnings }

(* ---------- printing ---------- *)

let print ppf c =
  let sn = Circuit.signal_name c in
  Format.fprintf ppf ".model %s@." (Circuit.name c);
  (match Circuit.inputs c with
  | [] -> ()
  | ins -> Format.fprintf ppf ".inputs %s@." (String.concat " " (List.map sn ins)));
  (match Circuit.outputs c with
  | [] -> ()
  | outs -> Format.fprintf ppf ".outputs %s@." (String.concat " " (List.map sn outs)));
  List.iter
    (fun l ->
      let data, enable = Circuit.latch_info c l in
      match enable with
      | None -> Format.fprintf ppf ".latch %s %s 3@." (sn data) (sn l)
      | Some _ ->
          invalid_arg
            "Blif.print: load-enabled latches have no standard BLIF form; \
             model the enable explicitly first")
    (Circuit.latches c);
  let pattern bits = String.concat "" bits in
  let row ppf (bits, out) = Format.fprintf ppf "%s %c@." (pattern bits) out in
  let emit_gate g =
    match Circuit.driver c g with
    | Gate (fn, fs) -> (
        let names = Array.to_list (Array.map sn fs) in
        let head ins = Format.fprintf ppf ".names %s %s@." (String.concat " " ins) (sn g) in
        let n = Array.length fs in
        let dashes_except i ch = List.init n (fun j -> if i = j then ch else "-") in
        match fn with
        | Const b ->
            Format.fprintf ppf ".names %s@." (sn g);
            if b then Format.fprintf ppf "1@."
        | Buf ->
            head names;
            row ppf ([ "1" ], '1')
        | Not ->
            head names;
            row ppf ([ "0" ], '1')
        | And ->
            head names;
            row ppf (List.init n (fun _ -> "1"), '1')
        | Nand ->
            head names;
            row ppf (List.init n (fun _ -> "1"), '0')
        | Or ->
            head names;
            List.iteri (fun i _ -> row ppf (dashes_except i "1", '1')) names
        | Nor ->
            head names;
            row ppf (List.init n (fun _ -> "0"), '1')
        | Xor | Xnor ->
            (* enumerate the parity function; gates are small in practice *)
            if n > 10 then invalid_arg "Blif.print: xor arity too large";
            head names;
            for m = 0 to (1 lsl n) - 1 do
              let ones = ref 0 in
              let bits =
                List.init n (fun i ->
                    if m land (1 lsl i) <> 0 then begin
                      incr ones;
                      "1"
                    end
                    else "0")
              in
              let odd = !ones mod 2 = 1 in
              if (fn = Xor && odd) || (fn = Xnor && not odd) then row ppf (bits, '1')
            done
        | Mux ->
            head names;
            row ppf ([ "1"; "1"; "-" ], '1');
            row ppf ([ "0"; "-"; "1" ], '1'))
    | Undriven | Input | Latch _ -> assert false
  in
  List.iter emit_gate (Circuit.gates c);
  Format.fprintf ppf ".end@."

let to_string c = Format.asprintf "%a" print c
