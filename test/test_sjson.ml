(* The one JSON codec: the RFC 8259 number grammar, lossless round trips
   (an integral float stays a float) and the rendering of non-finite
   floats. *)

let parses text =
  match Sjson.parse text with
  | _ -> true
  | exception Sjson.Parse_error _ -> false

let test_number_grammar () =
  List.iter
    (fun text -> Alcotest.(check bool) (text ^ " rejected") false (parses text))
    [ "+1"; ".5"; "1."; "01"; "-.5"; "1.e5"; "1e" ];
  List.iter
    (fun (text, v) ->
      Alcotest.(check bool) (text ^ " accepted") true (Sjson.parse text = v))
    [ ("-0", Sjson.Int 0); ("0.5", Sjson.Float 0.5); ("1E+2", Sjson.Float 100.) ]

let smile = "\xf0\x9f\x98\x80" (* U+1F600, a surrogate pair in UTF-16 *)

let round_trip_value =
  Sjson.(
    Obj
      [
        ("ints", List [ Int 0; Int (-7); Int max_int; Int min_int ]);
        ( "floats",
          List
            [ Float 1.0; Float (-3.0); Float 1e16; Float 0.5; Float (-2.5e-7) ]
        );
        ( "strings",
          List
            [
              String "say \"hi\" \\ there";
              String "\x00\x01\b\t\n\r\x1f";
              String smile;
            ] );
        ("rest", Obj [ ("null", Null); ("bool", Bool false); ("empty", List []) ]);
      ])

let test_round_trip () =
  let v = round_trip_value in
  Alcotest.(check bool) "parse (to_string v) = v" true
    (Sjson.parse (Sjson.to_string v) = v);
  Alcotest.(check bool) "escaped surrogate pair decodes to UTF-8" true
    (Sjson.parse "\"\\ud83d\\ude00\"" = Sjson.String smile)

let test_float_printing () =
  Alcotest.(check string) "integral float keeps a fraction" "1.0"
    (Sjson.to_string (Sjson.Float 1.0));
  List.iter
    (fun f ->
      Alcotest.(check string) "non-finite prints null" "null"
        (Sjson.to_string (Sjson.Float f)))
    [ nan; infinity; neg_infinity ]

(* The run-copying string decoder against the per-byte oracle: the same
   value, or the same error message with its byte position, on every
   truncation and every single-byte substitution of a request line. *)
let outcome parse text =
  match parse text with v -> Ok v | exception Sjson.Parse_error msg -> Error msg

let first_disagreement text =
  let differs t = outcome Sjson.parse t <> outcome Sjson_oracle.parse t in
  let n = String.length text in
  let truncations = Seq.init (n + 1) (fun k -> String.sub text 0 k) in
  let substitutions =
    Seq.concat_map
      (fun i ->
        Seq.map
          (fun ch -> String.mapi (fun j x -> if j = i then ch else x) text)
          (List.to_seq [ '"'; '\\'; 'u'; '\x01'; '\xff'; 'n' ]))
      (Seq.init n Fun.id)
  in
  Seq.find differs (Seq.append truncations substitutions)

let test_decode_oracle () =
  (* a serve_mix-style check request: two inline netlists, exposure and
     engine, as [seqver client check] sends them *)
  let netlist style =
    Netlist_io.to_string (Workloads.fifo ~entries:2 ~width:2 ~style ())
  in
  let request =
    Sjson.(
      to_string
        (Obj
           [
             ("id", Int 17);
             ("op", String "check");
             ("left", String (netlist `Sop));
             ("right", String (netlist `Mux));
             ("exposed", String "auto");
             ("engine", String "sweep");
           ]))
  in
  List.iter
    (fun (name, text) ->
      Alcotest.(check (option string)) (name ^ ": parsers agree") None
        (first_disagreement text))
    [ ("request line", request); ("round-trip object", Sjson.to_string round_trip_value) ]

let suite =
  [
    Alcotest.test_case "numbers: RFC 8259 grammar" `Quick test_number_grammar;
    Alcotest.test_case "round trip" `Quick test_round_trip;
    Alcotest.test_case "float printing" `Quick test_float_printing;
    Alcotest.test_case "string decoding = per-byte oracle" `Quick test_decode_oracle;
  ]
