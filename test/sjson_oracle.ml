(* The per-byte JSON parser that {!Sjson.parse} replaced: every string
   byte is peeked, matched and appended on its own.  A test oracle for
   the shipped parser, which copies runs of plain string bytes at once
   and must return the same value, or raise the same [Parse_error]
   message, on every input. *)

open Sjson

let fail pos msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg pos))

type cursor = { s : string; mutable pos : int }

let peek c = if c.pos < String.length c.s then Some c.s.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance c;
        true
    | _ -> false
  do
    ()
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | _ -> fail c.pos (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.s && String.sub c.s c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail c.pos (Printf.sprintf "expected %s" word)

let hex_digit c ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail c.pos "bad hex digit in \\u escape"

let u16 c =
  if c.pos + 4 > String.length c.s then fail c.pos "truncated \\u escape";
  let v =
    (hex_digit c c.s.[c.pos] lsl 12)
    lor (hex_digit c c.s.[c.pos + 1] lsl 8)
    lor (hex_digit c c.s.[c.pos + 2] lsl 4)
    lor hex_digit c c.s.[c.pos + 3]
  in
  c.pos <- c.pos + 4;
  v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else if cp < 0x10000 then begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c.pos "unterminated string"
    | Some '"' ->
        advance c;
        Buffer.contents buf
    | Some '\\' -> (
        advance c;
        match peek c with
        | None -> fail c.pos "truncated escape"
        | Some e ->
            advance c;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                let hi = u16 c in
                if hi >= 0xD800 && hi <= 0xDBFF then begin
                  (* surrogate pair *)
                  expect c '\\';
                  expect c 'u';
                  let lo = u16 c in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail c.pos "unpaired surrogate";
                  add_utf8 buf
                    (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                end
                else if hi >= 0xDC00 && hi <= 0xDFFF then
                  fail c.pos "unpaired surrogate"
                else add_utf8 buf hi
            | _ -> fail (c.pos - 1) "bad escape");
            go ())
    | Some ch when Char.code ch < 0x20 -> fail c.pos "raw control character"
    | Some ch ->
        advance c;
        Buffer.add_char buf ch;
        go ()
  in
  go ()

(* RFC 8259: [-] (0 | [1-9][0-9]* ) [. [0-9]+] [(e|E) [+|-] [0-9]+] *)
let parse_number c =
  let start = c.pos in
  let digits () =
    let from = c.pos in
    while match peek c with Some '0' .. '9' -> true | _ -> false do
      advance c
    done;
    if c.pos = from then fail c.pos "expected digit"
  in
  if peek c = Some '-' then advance c;
  (match peek c with
  | Some '0' -> advance c
  | Some '1' .. '9' -> digits ()
  | _ -> fail start "expected number");
  let is_float = ref false in
  if peek c = Some '.' then begin
    is_float := true;
    advance c;
    digits ()
  end;
  (match peek c with
  | Some ('e' | 'E') ->
      is_float := true;
      advance c;
      (match peek c with Some ('+' | '-') -> advance c | _ -> ());
      digits ()
  | _ -> ());
  (* the grammar is a subset of OCaml's literal syntax, so both
     conversions accept every text that reaches them; an integer out of
     [int] range falls back to a float *)
  let text = String.sub c.s start (c.pos - start) in
  match if !is_float then None else int_of_string_opt text with
  | Some i -> Int i
  | None -> Float (float_of_string text)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c.pos "unexpected end of input"
  | Some '{' ->
      advance c;
      skip_ws c;
      if peek c = Some '}' then begin
        advance c;
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              members ((k, v) :: acc)
          | Some '}' ->
              advance c;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail c.pos "expected ',' or '}'"
        in
        members []
      end
  | Some '[' ->
      advance c;
      skip_ws c;
      if peek c = Some ']' then begin
        advance c;
        List []
      end
      else begin
        let rec items acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              advance c;
              items (v :: acc)
          | Some ']' ->
              advance c;
              List (List.rev (v :: acc))
          | _ -> fail c.pos "expected ',' or ']'"
        in
        items []
      end
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c

let parse s =
  let c = { s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c.pos "trailing garbage";
  v
