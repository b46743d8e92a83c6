(* The one-pass parser against the reference parser kept in
   netlist_io_oracle.ml: on every text both must build the same circuit
   (name, every signal id's name and driver, inputs, outputs) or fail
   with the same Invalid_argument message. *)

let outcome parse text =
  match parse text with
  | c -> Ok c
  | exception Invalid_argument msg -> Error msg

(* The first difference between two circuits, if any *)
let difference a b =
  let n = Circuit.signal_count a in
  if Circuit.name a <> Circuit.name b then
    Some (Printf.sprintf "name %S vs %S" (Circuit.name a) (Circuit.name b))
  else if n <> Circuit.signal_count b then
    Some (Printf.sprintf "%d vs %d signals" n (Circuit.signal_count b))
  else
    let rec first s =
      if s = n then
        if Circuit.inputs a <> Circuit.inputs b then Some "inputs"
        else if Circuit.outputs a <> Circuit.outputs b then Some "outputs"
        else None
      else if Circuit.signal_name a s <> Circuit.signal_name b s then
        Some
          (Printf.sprintf "signal %d named %S vs %S" s (Circuit.signal_name a s)
             (Circuit.signal_name b s))
      else if Circuit.driver a s <> Circuit.driver b s then
        Some (Printf.sprintf "driver of %s" (Circuit.signal_name a s))
      else first (s + 1)
    in
    first 0

(* Both parsers on [text]; the agreed outcome *)
let agree what text =
  match (outcome Netlist_io_oracle.parse text, outcome Netlist_io.parse text) with
  | Ok a, Ok b ->
      Option.iter (Alcotest.failf "%s: %s" what) (difference a b);
      Ok b
  | Error m, Error m' ->
      Alcotest.(check string) (what ^ ": message") m m';
      Error m
  | Ok _, Error m -> Alcotest.failf "%s: only the parser fails, with %S" what m
  | Error m, Ok _ -> Alcotest.failf "%s: only the reference fails, with %S" what m

let accepted what text =
  match agree what text with
  | Ok c -> c
  | Error m -> Alcotest.failf "%s: rejected with %S" what m

let rejected what text =
  match agree what text with
  | Ok _ -> Alcotest.failf "%s: accepted" what
  | Error m -> m

let test_registry () =
  let circuits =
    Workloads.table1_suite () @ Workloads.table2_suite ()
    @ List.map
        (fun n -> (n, Workloads.by_name n))
        [ "fifo64x16s"; "fifo64x16m"; "fifo128x8s"; "fifo128x8m"; "alu8x8x4r";
          "alu8x8x4s"; "alu64x8x4r"; "alu64x8x4s"; "fifo64x16m_bug" ]
  in
  List.iter (fun (name, c) -> ignore (accepted name (Netlist_io.to_string c))) circuits

(* Spaces, tabs at the ends, CRLF and comments around every line of [text] *)
let noisy st text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         let pad () = String.make (Random.State.int st 3) ' ' in
         let line = String.concat (pad () ^ " ") (String.split_on_char ' ' line) in
         let line =
           match Random.State.int st 4 with
           | 0 -> "\t" ^ line ^ " \t"
           | 1 -> line ^ " # note"
           | 2 -> line ^ "\r"
           | _ -> pad () ^ line
         in
         if Random.State.int st 8 = 0 then line ^ "\n# comment line\n" else line)
  |> String.concat "\n"

(* [text] with its .outputs, .latch and .gate lines in a random order
   after its .model and .inputs lines: the names of a line are then often
   all new, so the order in which a line resolves them shows in the
   signal ids *)
let shuffled st text =
  let head, body =
    String.split_on_char '\n' text
    |> List.filter (fun l -> l <> "" && l <> ".end")
    |> List.partition (fun l ->
           String.starts_with ~prefix:".model" l || String.starts_with ~prefix:".inputs" l)
  in
  let body = Array.of_list body in
  for i = Array.length body - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = body.(i) in
    body.(i) <- body.(j);
    body.(j) <- t
  done;
  String.concat "\n" (head @ Array.to_list body)

(* [text] with line [k] dropped or repeated *)
let damaged st text =
  let lines = String.split_on_char '\n' text in
  let k = Random.State.int st (List.length lines) in
  let repeat = Random.State.bool st in
  List.mapi (fun i l -> if i <> k then [ l ] else if repeat then [ l; l ] else []) lines
  |> List.concat |> String.concat "\n"

let test_random () =
  let st = Random.State.make [| 0x9A85E |] in
  for i = 1 to 200 do
    let c =
      Gen.acyclic st
        ~name:(Printf.sprintf "r%d" i)
        ~inputs:(1 + Random.State.int st 5)
        ~gates:(3 + Random.State.int st 40)
        ~latches:(Random.State.int st 8)
        ~outputs:(1 + Random.State.int st 4)
        ~enables:true
    in
    let text = Netlist_io.to_string c in
    let what = Circuit.name c in
    ignore (accepted what text);
    ignore (agree (what ^ " noisy") (noisy st text));
    ignore (agree (what ^ " shuffled") (shuffled st text));
    ignore (agree (what ^ " damaged") (damaged st text))
  done

let test_hand_written () =
  let ok what text = ignore (accepted what text) in
  ok "empty" "";
  ok "comments only" "# nothing\n   # at all\n";
  ok "comments and blank lines"
    ".model m # the model\n\n# a whole-line comment\n  \n\t\n.inputs a b # in\n\
     .outputs z\n.gate and z a b # and\n.end # done\n";
  ok "CRLF" ".model m\r\n.inputs a b\r\n.outputs z\r\n.gate or z a b\r\n.end\r\n";
  ok "tab and form feed at the ends" "\t.model m\t\n\012.inputs a\012\n.outputs a \t\r\n";
  ok "tab inside a name" ".model m\n.inputs a\n.outputs x\ty\n.gate buf x\ty a\n";
  ok "runs of spaces" ".model   m\n.inputs  a   b\n.outputs   z  \n.gate   and    z   a  b   \n";
  ok "model mid-file"
    ".model first\n.inputs a\n.outputs a\n.model second\n.inputs b c\n.outputs z\n\
     .gate xor z b c\n.end\n";
  ok "model without a name" ".model\n.inputs a\n.outputs a\n";
  ok "model with two names" ".model m n\n.inputs a\n.outputs a\n";
  ok "text after .end" ".model m\n.inputs a\n.outputs a\n.end\nnot parsed\n.gate frob x\n";
  ok "no .end" ".model m\n.inputs a\n.outputs a";
  ok "comment cuts a token" ".model m\n.inputs a\n.outputs z\n.gate and z a#b\n";
  ok "forward references"
    ".model fw\n.inputs a\n.outputs z\n.gate and z y a\n.gate not y q\n.latch q d\n\
     .gate buf d a\n.end\n";
  ok "all names new on a gate line"
    ".model g\n.inputs a\n.gate and x y w a\n.gate not y a\n.gate buf w a\n.outputs x\n";
  ok "all names new on a latch line"
    ".model l\n.inputs a\n.latch q d\n.gate buf d a\n.outputs q\n";
  ok ".latche" ".model le\n.inputs a en\n.outputs q\n.latche q d e\n.gate and d a q\n\
                .gate buf e en\n.end\n";
  ok "repeated output" ".model m\n.inputs a\n.outputs a a\n.outputs a\n";
  ok "every gate function"
    ".model g\n.inputs a b s\n.outputs k0 k1 b0 n0 a0 o0 na0 no0 x0 xn0 m0\n\
     .gate const0 k0\n.gate const1 k1\n.gate buf b0 a\n.gate not n0 a\n.gate and a0 a b s\n\
     .gate or o0 a b\n.gate nand na0 a b\n.gate nor no0 a\n.gate xor x0 a b s\n\
     .gate xnor xn0 a b\n.gate mux m0 s a b\n.end\n"

let test_malformed () =
  let bad what text expected =
    Alcotest.(check string) what expected (rejected what text)
  in
  let m body = ".model m\n.inputs a b\n.outputs z\n" ^ body ^ ".end\n" in
  bad "unknown gate" (m ".gate frobnicate z a\n")
    "Netlist_io: unknown gate function \"frobnicate\"";
  bad "wrong arity" (m ".gate not z a b\n") "Circuit.set_gate: bad arity for not";
  bad "mux arity" (m ".gate mux z a b\n") "Circuit.set_gate: bad arity for mux";
  bad ".gate without an output" (m ".gate and\n") "Netlist_io.parse: bad line \".gate and\"";
  bad ".latch with 2 names" (m ".latch z\n") "Netlist_io.parse: bad line \".latch z\"";
  bad ".latch with 4 names" (m ".latch z a b c\n")
    "Netlist_io.parse: bad line \".latch z a b c\"";
  bad ".latche with 3 names" (m ".latche z a\n") "Netlist_io.parse: bad line \".latche z a\"";
  bad "duplicate input" ".model m\n.inputs a a\n" "Circuit.declare: duplicate name \"a\"";
  bad "input after use" ".model m\n.outputs a\n.inputs a\n"
    "Circuit.declare: duplicate name \"a\"";
  bad "double drive" (m ".gate buf z a\n.gate not z b\n") "Circuit: signal z already driven";
  bad "latch on an input" (m ".latch a z\n.gate buf z b\n") "Circuit: signal a already driven";
  bad "undriven signal" (m ".gate and z a y\n") "Circuit.check: undriven signal y";
  bad "combinational cycle" (m ".gate and z y a\n.gate not y z\n")
    "Circuit: combinational cycle through z";
  bad "junk line" (m "  nonsense   line # with a comment\r\n")
    "Netlist_io.parse: bad line \"nonsense   line\"";
  bad ".end with an argument" (m ".end now\n") "Netlist_io.parse: bad line \".end now\"";
  bad "tab after a keyword" ".model m\n.inputs\ta\n" "Netlist_io.parse: bad line \".inputs\\ta\""

let suite =
  [
    Alcotest.test_case "registry texts: oracle agrees" `Quick test_registry;
    Alcotest.test_case "random texts: oracle agrees" `Quick test_random;
    Alcotest.test_case "hand-written texts: oracle agrees" `Quick test_hand_written;
    Alcotest.test_case "malformed texts: same message" `Quick test_malformed;
  ]
