type signal = int

type gate_fn =
  | Const of bool
  | Buf
  | Not
  | And
  | Or
  | Nand
  | Nor
  | Xor
  | Xnor
  | Mux

type driver =
  | Undriven
  | Input
  | Gate of gate_fn * signal array
  | Latch of { data : signal; enable : signal option }

type t = {
  cname : string;
  drivers : driver Vgraph.Vec.t;
  names : string Vgraph.Vec.t;
  mutable index : int array; (* name index: signal ids by name, -1 empty *)
  mutable index_bits : int; (* Array.length index = 2^index_bits *)
  mutable inputs_rev : signal list;
  mutable outputs_rev : signal list;
  mutable out_set : (signal, unit) Hashtbl.t;
  mutable c0 : signal; (* shared constants, -1 if absent *)
  mutable c1 : signal;
}

let index_bits_for size =
  let bits = ref 4 in
  while 1 lsl !bits < 2 * size do
    incr bits
  done;
  !bits

let create ?(size = 64) cname =
  let size = max size 1 in
  let bits = index_bits_for size in
  {
    cname;
    drivers = Vgraph.Vec.create ~capacity:size ~dummy:Undriven ();
    names = Vgraph.Vec.create ~capacity:size ~dummy:"" ();
    index = Array.make (1 lsl bits) (-1);
    index_bits = bits;
    inputs_rev = [];
    outputs_rev = [];
    out_set = Hashtbl.create 16;
    c0 = -1;
    c1 = -1;
  }

let name c = c.cname
let signal_count c = Vgraph.Vec.length c.drivers
let driver c s = Vgraph.Vec.get c.drivers s
let signal_name c s = Vgraph.Vec.get c.names s

(* The name index is open addressing with linear probing over signal ids,
   kept at most half full.  It hashes a name given as a slice of a larger
   string, so a parser looks a token up without copying it. *)
let hash_sub s pos len =
  let h = ref 0 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h

let rec same_from n s pos i len =
  i = len
  || String.unsafe_get n i = String.unsafe_get s (pos + i)
     && same_from n s pos (i + 1) len

(* The index slot holding the signal named [String.sub s pos len], or the
   empty slot where its probe ends *)
let probe c s pos len =
  let idx = c.index in
  let mask = Array.length idx - 1 in
  let i = ref ((hash_sub s pos len * 0x278DDE6E5FD29F05) lsr (Sys.int_size - c.index_bits)) in
  while
    let id = Array.unsafe_get idx !i in
    id >= 0
    &&
    let n = Vgraph.Vec.get c.names id in
    not (String.length n = len && same_from n s pos 0 len)
  do
    i := (!i + 1) land mask
  done;
  !i

(* Make room for one more name, so a slot found by [probe] stays valid *)
let reserve c =
  if 2 * (signal_count c + 1) > Array.length c.index then begin
    c.index_bits <- c.index_bits + 1;
    c.index <- Array.make (1 lsl c.index_bits) (-1);
    Vgraph.Vec.iteri
      (fun id n -> c.index.(probe c n 0 (String.length n)) <- id)
      c.names
  end

(* A new undriven signal named [n], filed at the free index slot [slot] *)
let add_signal c n slot =
  let id = Vgraph.Vec.push c.drivers Undriven in
  ignore (Vgraph.Vec.push c.names n);
  c.index.(slot) <- id;
  id

let find_signal c n =
  let id = c.index.(probe c n 0 (String.length n)) in
  if id >= 0 then Some id else None

let declare c ?name () =
  let n =
    match name with
    | None ->
        let id = signal_count c in
        let rec fresh k =
          let cand = if k = 0 then Printf.sprintf "n%d" id else Printf.sprintf "n%d_%d" id k in
          if find_signal c cand <> None then fresh (k + 1) else cand
        in
        fresh 0
    | Some n -> n
  in
  reserve c;
  let slot = probe c n 0 (String.length n) in
  if c.index.(slot) >= 0 then
    invalid_arg (Printf.sprintf "Circuit.declare: duplicate name %S" n);
  add_signal c n slot

let resolve c s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Circuit.resolve: bad slice";
  reserve c;
  let slot = probe c s pos len in
  let id = c.index.(slot) in
  if id >= 0 then id else add_signal c (String.sub s pos len) slot

let arity_ok fn n =
  match fn with
  | Const _ -> n = 0
  | Buf | Not -> n = 1
  | And | Or | Nand | Nor | Xor | Xnor -> n >= 1
  | Mux -> n = 3

let fn_name = function
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

let set_driver c s d =
  (match Vgraph.Vec.get c.drivers s with
  | Undriven -> ()
  | _ ->
      invalid_arg
        (Printf.sprintf "Circuit: signal %s already driven" (signal_name c s)));
  Vgraph.Vec.set c.drivers s d

let check_signal c s =
  if s < 0 || s >= signal_count c then invalid_arg "Circuit: bad signal id"

let set_gate c s fn fanins =
  check_signal c s;
  for i = 0 to Array.length fanins - 1 do
    check_signal c fanins.(i)
  done;
  if not (arity_ok fn (Array.length fanins)) then
    invalid_arg (Printf.sprintf "Circuit.set_gate: bad arity for %s" (fn_name fn));
  set_driver c s (Gate (fn, fanins))

let set_latch c s ?enable ~data () =
  check_signal c s;
  check_signal c data;
  Option.iter (check_signal c) enable;
  set_driver c s (Latch { data; enable })

let add_input c n =
  let s = declare c ~name:n () in
  set_driver c s Input;
  c.inputs_rev <- s :: c.inputs_rev;
  s

let add_gate c ?name fn fanins =
  let s = declare c ?name () in
  set_gate c s fn (Array.of_list fanins);
  s

let add_latch c ?name ?enable ~data () =
  let s = declare c ?name () in
  set_latch c s ?enable ~data ();
  s

let mark_output c s =
  check_signal c s;
  Hashtbl.replace c.out_set s ();
  c.outputs_rev <- s :: c.outputs_rev

let const_false c =
  if c.c0 >= 0 then c.c0
  else begin
    let s = add_gate c (Const false) [] in
    c.c0 <- s;
    s
  end

let const_true c =
  if c.c1 >= 0 then c.c1
  else begin
    let s = add_gate c (Const true) [] in
    c.c1 <- s;
    s
  end

let inputs c = List.rev c.inputs_rev
let outputs c = List.rev c.outputs_rev
let is_output c s = Hashtbl.mem c.out_set s

let latches c =
  let acc = ref [] in
  for s = signal_count c - 1 downto 0 do
    match driver c s with Latch _ -> acc := s :: !acc | _ -> ()
  done;
  !acc

let latch_info c s =
  match driver c s with
  | Latch { data; enable } -> (data, enable)
  | Undriven | Input | Gate _ ->
      invalid_arg (Printf.sprintf "Circuit.latch_info: %s is not a latch" (signal_name c s))

let gates c =
  let acc = ref [] in
  for s = signal_count c - 1 downto 0 do
    match driver c s with Gate _ -> acc := s :: !acc | _ -> ()
  done;
  !acc

let fanins c s =
  match driver c s with
  | Undriven | Input -> []
  | Gate (_, fs) -> Array.to_list fs
  | Latch { data; enable } -> (
      match enable with None -> [ data ] | Some e -> [ data; e ])

let fanout_counts c =
  let n = signal_count c in
  let counts = Array.make n 0 in
  for s = 0 to n - 1 do
    List.iter (fun f -> counts.(f) <- counts.(f) + 1) (fanins c s)
  done;
  List.iter (fun s -> counts.(s) <- counts.(s) + 1) (outputs c);
  counts

(* Depth-first over gate-to-gate dependencies from every signal in id
   order (inputs and latch outputs are sources), calling [finish] on each
   gate after its fanins. *)
let comb_dfs c finish =
  let n = signal_count c in
  let state = Bytes.make n '\000' in
  (* '\000' unvisited, '\001' on stack, '\002' done *)
  let rec visit s =
    match driver c s with
    | Undriven | Input | Latch _ -> ()
    | Gate (_, fs) ->
        if Bytes.get state s = '\001' then
          invalid_arg
            (Printf.sprintf "Circuit: combinational cycle through %s" (signal_name c s));
        if Bytes.get state s = '\000' then begin
          Bytes.set state s '\001';
          Array.iter visit fs;
          Bytes.set state s '\002';
          finish s
        end
  in
  for s = 0 to n - 1 do
    visit s
  done

let comb_topo c =
  let order = ref [] in
  comb_dfs c (fun s -> order := s :: !order);
  List.rev !order

let check c =
  let n = signal_count c in
  for s = 0 to n - 1 do
    match driver c s with
    | Undriven ->
        invalid_arg (Printf.sprintf "Circuit.check: undriven signal %s" (signal_name c s))
    | Input | Latch _ | Gate _ -> ()
  done;
  comb_dfs c ignore

let cone c roots =
  let marked = Array.make (signal_count c) false in
  let rec visit s =
    if not marked.(s) then begin
      marked.(s) <- true;
      match driver c s with
      | Undriven | Input | Latch _ -> ()
      | Gate (_, fs) -> Array.iter visit fs
    end
  in
  List.iter visit roots;
  marked

let seq_cone c roots =
  let marked = Array.make (signal_count c) false in
  let rec visit s =
    if not marked.(s) then begin
      marked.(s) <- true;
      List.iter visit (fanins c s)
    end
  in
  List.iter visit roots;
  marked

let gate_cost = function Const _ | Buf -> 0 | Not | And | Or | Nand | Nor | Xor | Xnor | Mux -> 1

let fn_cost = gate_cost

let depth_levels c =
  let lev = Array.make (signal_count c) 0 in
  List.iter
    (fun s ->
      match driver c s with
      | Gate (fn, fs) ->
          let m = Array.fold_left (fun acc f -> max acc lev.(f)) 0 fs in
          lev.(s) <- m + gate_cost fn
      | Undriven | Input | Latch _ -> ())
    (comb_topo c);
  lev

let delay c =
  let lev = depth_levels c in
  let at = List.fold_left (fun acc s -> max acc lev.(s)) 0 in
  let out_delay = at (outputs c) in
  let latch_delay =
    List.fold_left
      (fun acc l ->
        let data, enable = latch_info c l in
        let acc = max acc lev.(data) in
        match enable with None -> acc | Some e -> max acc lev.(e))
      0 (latches c)
  in
  max out_delay latch_delay

let area c =
  List.fold_left
    (fun acc s ->
      match driver c s with
      | Gate (fn, _) -> acc + gate_cost fn
      | Undriven | Input | Latch _ -> acc)
    0 (gates c)

let latch_count c = List.length (latches c)

let copy ?name c =
  let cname = Option.value name ~default:c.cname in
  {
    cname;
    drivers = Vgraph.Vec.copy c.drivers;
    names = Vgraph.Vec.copy c.names;
    index = Array.copy c.index;
    index_bits = c.index_bits;
    inputs_rev = c.inputs_rev;
    outputs_rev = c.outputs_rev;
    out_set = Hashtbl.copy c.out_set;
    c0 = c.c0;
    c1 = c.c1;
  }

let extract c ~keep_outputs =
  let marked = seq_cone c keep_outputs in
  let nc = create (c.cname ^ "_xt") in
  let map = Hashtbl.create 64 in
  (* create signals in id order to keep determinism *)
  for s = 0 to signal_count c - 1 do
    if marked.(s) then begin
      let ns = declare nc ~name:(signal_name c s) () in
      Hashtbl.replace map s ns
    end
  done;
  let get s = Hashtbl.find map s in
  for s = 0 to signal_count c - 1 do
    if marked.(s) then begin
      match driver c s with
      | Undriven -> ()
      | Input ->
          Vgraph.Vec.set nc.drivers (get s) Input;
          nc.inputs_rev <- get s :: nc.inputs_rev
      | Gate (fn, fs) -> set_gate nc (get s) fn (Array.map get fs)
      | Latch { data; enable } ->
          set_latch nc (get s) ?enable:(Option.map get enable) ~data:(get data) ()
    end
  done;
  List.iter (fun s -> if marked.(s) then mark_output nc (get s)) keep_outputs;
  let assoc = Hashtbl.fold (fun k v acc -> (k, v) :: acc) map [] in
  (nc, List.sort compare assoc)

let stats_pp ppf c =
  Format.fprintf ppf "%s: %d in, %d out, %d latches, area %d, delay %d"
    c.cname (List.length (inputs c)) (List.length (outputs c)) (latch_count c)
    (area c) (delay c)
