let fn_to_string : Circuit.gate_fn -> string = function
  | Const false -> "const0"
  | Const true -> "const1"
  | Buf -> "buf"
  | Not -> "not"
  | And -> "and"
  | Or -> "or"
  | Nand -> "nand"
  | Nor -> "nor"
  | Xor -> "xor"
  | Xnor -> "xnor"
  | Mux -> "mux"

let fns = Circuit.[ Const false; Const true; Buf; Not; And; Or; Nand; Nor; Xor; Xnor; Mux ]

let print ppf c =
  let sn = Circuit.signal_name c in
  Format.fprintf ppf ".model %s@." (Circuit.name c);
  (match Circuit.inputs c with
  | [] -> ()
  | ins ->
      Format.fprintf ppf ".inputs %s@." (String.concat " " (List.map sn ins)));
  (match Circuit.outputs c with
  | [] -> ()
  | outs ->
      Format.fprintf ppf ".outputs %s@." (String.concat " " (List.map sn outs)));
  List.iter
    (fun l ->
      let data, enable = Circuit.latch_info c l in
      match enable with
      | None -> Format.fprintf ppf ".latch %s %s@." (sn l) (sn data)
      | Some e -> Format.fprintf ppf ".latche %s %s %s@." (sn l) (sn data) (sn e))
    (Circuit.latches c);
  List.iter
    (fun g ->
      match Circuit.driver c g with
      | Gate (fn, fs) ->
          Format.fprintf ppf ".gate %s %s%s@." (fn_to_string fn) (sn g)
            (Array.fold_left (fun acc f -> acc ^ " " ^ sn f) "" fs)
      | Undriven | Input | Latch _ -> assert false)
    (Circuit.gates c);
  Format.fprintf ppf ".end@."

let to_string c = Format.asprintf "%a" print c

(* The parser walks the text once by index.  A line is cut at its first
   '#', trimmed of String.trim's whitespace and split on runs of ' ' into
   token bounds (a tab inside a line stays inside its token); tokens are
   compared and looked up in place, and only a new name is copied. *)

type line = {
  text : string;
  mutable lo : int; (* the line, comment cut and trimmed: [lo, hi) *)
  mutable hi : int;
  mutable starts : int array; (* token i is [starts.(i), starts.(i) + lens.(i)) *)
  mutable lens : int array;
  mutable count : int;
}

let push_token l pos len =
  if l.count = Array.length l.starts then begin
    let grow a = Array.append a (Array.make (Array.length a) 0) in
    l.starts <- grow l.starts;
    l.lens <- grow l.lens
  end;
  l.starts.(l.count) <- pos;
  l.lens.(l.count) <- len;
  l.count <- l.count + 1

let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

(* Reads the line that starts at [pos] into [l] and returns where the next
   line starts *)
let scan l pos =
  let text = l.text in
  let n = String.length text in
  let i = ref pos and cut = ref (-1) in
  while !i < n && String.unsafe_get text !i <> '\n' do
    if !cut < 0 && String.unsafe_get text !i = '#' then cut := !i;
    incr i
  done;
  let lo = ref pos and hi = ref (if !cut >= 0 then !cut else !i) in
  while !lo < !hi && is_space (String.unsafe_get text !lo) do
    incr lo
  done;
  while !hi > !lo && is_space (String.unsafe_get text (!hi - 1)) do
    decr hi
  done;
  l.lo <- !lo;
  l.hi <- !hi;
  l.count <- 0;
  let j = ref !lo in
  while !j < !hi do
    if String.unsafe_get text !j = ' ' then incr j
    else begin
      let t = !j in
      while !j < !hi && String.unsafe_get text !j <> ' ' do
        incr j
      done;
      push_token l t (!j - t)
    end
  done;
  !i + 1

let rec same_from text pos s i =
  i = String.length s
  || String.unsafe_get text (pos + i) = String.unsafe_get s i
     && same_from text pos s (i + 1)

let is l i s = l.lens.(i) = String.length s && same_from l.text l.starts.(i) s 0
let token l i = String.sub l.text l.starts.(i) l.lens.(i)

let rec fn_of_token l i = function
  | [] -> invalid_arg (Printf.sprintf "Netlist_io: unknown gate function %S" (token l i))
  | fn :: rest -> if is l i (fn_to_string fn) then fn else fn_of_token l i rest

let resolve c l i = Circuit.resolve c l.text ~pos:l.starts.(i) ~len:l.lens.(i)

(* One statement other than [.model] and [.end].  Names resolve in a fixed
   order, which fixes the signal ids (and through them the exposure plan
   and the unrolled AIG): a gate's fanins left to right, then its output;
   a latch's data and enable, then the latch. *)
let statement c l =
  let k = l.count in
  if is l 0 ".inputs" then
    for i = 1 to k - 1 do
      ignore (Circuit.add_input c (token l i))
    done
  else if is l 0 ".outputs" then
    for i = 1 to k - 1 do
      Circuit.mark_output c (resolve c l i)
    done
  else if k >= 3 && is l 0 ".gate" then begin
    let fanins = Array.make (k - 3) 0 in
    for i = 3 to k - 1 do
      fanins.(i - 3) <- resolve c l i
    done;
    let fn = fn_of_token l 1 fns in
    Circuit.set_gate c (resolve c l 2) fn fanins
  end
  else if k = 3 && is l 0 ".latch" then begin
    let data = resolve c l 2 in
    Circuit.set_latch c (resolve c l 1) ~data ()
  end
  else if k = 4 && is l 0 ".latche" then begin
    let data = resolve c l 2 in
    let enable = resolve c l 3 in
    Circuit.set_latch c (resolve c l 1) ~enable ~data ()
  end
  else
    invalid_arg
      (Printf.sprintf "Netlist_io.parse: bad line %S" (String.sub l.text l.lo (l.hi - l.lo)))

let parse text =
  (* about one signal per line, and a netlist line is rarely shorter *)
  let size = (String.length text / 24) + 64 in
  (* made by the first statement, so a leading [.model] drops nothing *)
  let current = ref None in
  let circuit () =
    match !current with
    | Some c -> c
    | None ->
        let c = Circuit.create ~size "anonymous" in
        current := Some c;
        c
  in
  let l = { text; lo = 0; hi = 0; starts = Array.make 16 0; lens = Array.make 16 0; count = 0 } in
  let pos = ref 0 and ended = ref false in
  while !pos < String.length text && not !ended do
    pos := scan l !pos;
    if l.count = 0 then ()
    else if is l 0 ".model" then
      current := Some (Circuit.create ~size (if l.count = 2 then token l 1 else "anonymous"))
    else if l.count = 1 && is l 0 ".end" then ended := true
    else statement (circuit ()) l
  done;
  let c = circuit () in
  Circuit.check c;
  c
