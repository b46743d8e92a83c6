(* Reference netlist parser, kept as a test oracle for {!Netlist_io.parse}:
   a line list, String.trim, token lists and a find-then-declare per name.
   The shipped parser walks the text once by index and resolves each
   token with one probe, so the two must build the same circuit (every
   signal id, name and driver) or fail with the same message. *)

let fn_of_string = function
  | "const0" -> Circuit.Const false
  | "const1" -> Const true
  | "buf" -> Buf
  | "not" -> Not
  | "and" -> And
  | "or" -> Or
  | "nand" -> Nand
  | "nor" -> Nor
  | "xor" -> Xor
  | "xnor" -> Xnor
  | "mux" -> Mux
  | s -> invalid_arg (Printf.sprintf "Netlist_io: unknown gate function %S" s)

let parse text =
  let lines = String.split_on_char '\n' text in
  let c = ref (Circuit.create "anonymous") in
  let resolve s =
    match Circuit.find_signal !c s with
    | Some id -> id
    | None -> Circuit.declare !c ~name:s ()
  in
  let strip line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.trim line
  in
  let ended = ref false in
  List.iter
    (fun raw ->
      let line = strip raw in
      if line <> "" && not !ended then
        match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
        | ".model" :: rest ->
            let name = match rest with [ n ] -> n | _ -> "anonymous" in
            c := Circuit.create name
        | ".inputs" :: names ->
            List.iter (fun n -> ignore (Circuit.add_input !c n)) names
        | ".outputs" :: names ->
            List.iter (fun n -> Circuit.mark_output !c (resolve n)) names
        | [ ".latch"; q; d ] ->
            Circuit.set_latch !c (resolve q) ~data:(resolve d) ()
        | [ ".latche"; q; d; e ] ->
            Circuit.set_latch !c (resolve q) ~enable:(resolve e) ~data:(resolve d) ()
        | ".gate" :: fn :: out :: fanins ->
            Circuit.set_gate !c (resolve out) (fn_of_string fn)
              (Array.of_list (List.map resolve fanins))
        | [ ".end" ] -> ended := true
        | _ -> invalid_arg (Printf.sprintf "Netlist_io.parse: bad line %S" line))
    lines;
  Circuit.check !c;
  !c
