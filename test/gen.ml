(* Shared random-circuit generators for the test suite.  All generators are
   deterministic given the Random.State. *)

let gate_fn_of_int n : Circuit.gate_fn =
  match n mod 9 with
  | 0 -> And
  | 1 -> Or
  | 2 -> Nand
  | 3 -> Nor
  | 4 -> Xor
  | 5 -> Xnor
  | 6 -> Not
  | 7 -> Buf
  | _ -> Mux

let arity (fn : Circuit.gate_fn) =
  match fn with Const _ -> 0 | Not | Buf -> 1 | Mux -> 3 | _ -> 2

let pick st pool = List.nth pool (Random.State.int st (List.length pool))

let random_gate st c pool =
  let fn = gate_fn_of_int (Random.State.int st 9) in
  Circuit.add_gate c fn (List.init (arity fn) (fun _ -> pick st pool))

(* Pure combinational circuit. *)
let comb st ~name ~inputs ~gates ~outputs =
  let c = Circuit.create name in
  let pool = ref [] in
  for i = 0 to inputs - 1 do
    pool := Circuit.add_input c (Printf.sprintf "i%d" i) :: !pool
  done;
  for _ = 1 to gates do
    pool := random_gate st c !pool :: !pool
  done;
  for _ = 1 to outputs do
    Circuit.mark_output c (pick st !pool)
  done;
  Circuit.check c;
  c

(* Acyclic sequential circuit (latches inserted on the fly, no feedback). *)
let acyclic st ~name ~inputs ~gates ~latches ~outputs ~enables =
  let c = Circuit.create name in
  let pool = ref [] in
  for i = 0 to inputs - 1 do
    pool := Circuit.add_input c (Printf.sprintf "i%d" i) :: !pool
  done;
  let total = gates + latches in
  for k = 1 to total do
    if k mod (total / max 1 latches) = 0 && Circuit.latch_count c < latches then begin
      let enable = if enables && Random.State.bool st then Some (pick st !pool) else None in
      pool := Circuit.add_latch c ?enable ~data:(pick st !pool) () :: !pool
    end
    else pool := random_gate st c !pool :: !pool
  done;
  for _ = 1 to outputs do
    Circuit.mark_output c (pick st !pool)
  done;
  Circuit.check c;
  c

(* Sequential circuit with feedback: latches declared first so their outputs
   can appear anywhere in the logic. *)
let feedback st ~name ~inputs ~gates ~latches ~outputs =
  let c = Circuit.create name in
  let ins = List.init inputs (fun i -> Circuit.add_input c (Printf.sprintf "i%d" i)) in
  let qs = List.init latches (fun i -> Circuit.declare c ~name:(Printf.sprintf "q%d" i) ()) in
  let pool = ref (ins @ qs) in
  for _ = 1 to gates do
    pool := random_gate st c !pool :: !pool
  done;
  List.iter (fun q -> Circuit.set_latch c q ~data:(pick st !pool) ()) qs;
  for _ = 1 to outputs do
    Circuit.mark_output c (pick st !pool)
  done;
  Circuit.check c;
  c

(* Structure-perturbing, function-preserving rewrite (uses De Morgan and
   mux expansion); keeps input names and output order. *)
let demorganize c =
  let nc = Circuit.create (Circuit.name c ^ "_dm") in
  let map = Hashtbl.create 64 in
  let get s = Hashtbl.find map s in
  List.iter
    (fun s -> Hashtbl.replace map s (Circuit.add_input nc (Circuit.signal_name c s)))
    (Circuit.inputs c);
  (* declare latch outputs first to allow feedback *)
  List.iter
    (fun l -> Hashtbl.replace map l (Circuit.declare nc ~name:(Circuit.signal_name c l) ()))
    (Circuit.latches c);
  List.iter
    (fun s ->
      match Circuit.driver c s with
      | Gate (fn, fs) ->
          let ins = Array.to_list (Array.map get fs) in
          let out =
            match (fn, ins) with
            | Circuit.And, ins -> Circuit.add_gate nc Not [ Circuit.add_gate nc Nand ins ]
            | Or, ins ->
                Circuit.add_gate nc Nand (List.map (fun i -> Circuit.add_gate nc Not [ i ]) ins)
            | Nand, ins ->
                Circuit.add_gate nc Or (List.map (fun i -> Circuit.add_gate nc Not [ i ]) ins)
            | Nor, ins -> Circuit.add_gate nc Not [ Circuit.add_gate nc Or ins ]
            | Not, [ a ] -> Circuit.add_gate nc Nand [ a; a ]
            | Buf, [ a ] -> Circuit.add_gate nc And [ a; a ]
            | Xor, [ a; b ] ->
                Circuit.add_gate nc Or
                  [
                    Circuit.add_gate nc And [ a; Circuit.add_gate nc Not [ b ] ];
                    Circuit.add_gate nc And [ Circuit.add_gate nc Not [ a ]; b ];
                  ]
            | Xnor, [ a; b ] ->
                Circuit.add_gate nc Not
                  [
                    Circuit.add_gate nc Or
                      [
                        Circuit.add_gate nc And [ a; Circuit.add_gate nc Not [ b ] ];
                        Circuit.add_gate nc And [ Circuit.add_gate nc Not [ a ]; b ];
                      ];
                  ]
            | Mux, [ s; t; e ] ->
                Circuit.add_gate nc Or
                  [
                    Circuit.add_gate nc And [ s; t ];
                    Circuit.add_gate nc And [ Circuit.add_gate nc Not [ s ]; e ];
                  ]
            | fn, ins -> Circuit.add_gate nc fn ins
          in
          Hashtbl.replace map s out
      | Undriven | Input | Latch _ -> ())
    (Circuit.comb_topo c);
  List.iter
    (fun l ->
      let data, enable = Circuit.latch_info c l in
      Circuit.set_latch nc (get l) ?enable:(Option.map get enable) ~data:(get data) ())
    (Circuit.latches c);
  List.iter (fun o -> Circuit.mark_output nc (get o)) (Circuit.outputs c);
  Circuit.check nc;
  nc

(* Structure-preserving copy with every input renamed; cone signatures
   computed with a blank [input_label] must not see the difference. *)
let rename_inputs ?(prefix = "r_") c =
  let nc = Circuit.create (Circuit.name c ^ "_ren") in
  let map = Hashtbl.create 64 in
  let get s = Hashtbl.find map s in
  List.iter
    (fun s ->
      Hashtbl.replace map s (Circuit.add_input nc (prefix ^ Circuit.signal_name c s)))
    (Circuit.inputs c);
  List.iter
    (fun l -> Hashtbl.replace map l (Circuit.declare nc ~name:(Circuit.signal_name c l) ()))
    (Circuit.latches c);
  List.iter
    (fun s ->
      match Circuit.driver c s with
      | Gate (fn, fs) ->
          Hashtbl.replace map s (Circuit.add_gate nc fn (Array.to_list (Array.map get fs)))
      | Undriven | Input | Latch _ -> ())
    (Circuit.comb_topo c);
  List.iter
    (fun l ->
      let data, enable = Circuit.latch_info c l in
      Circuit.set_latch nc (get l) ?enable:(Option.map get enable) ~data:(get data) ())
    (Circuit.latches c);
  List.iter (fun o -> Circuit.mark_output nc (get o)) (Circuit.outputs c);
  Circuit.check nc;
  nc

(* Copy of [c] whose output [i] is [f nc i o] instead, for [o] its copy in
   the new circuit [nc]. *)
let map_outputs ~suffix c f =
  let nc = Circuit.create (Circuit.name c ^ suffix) in
  let map = Hashtbl.create 64 in
  let get s = Hashtbl.find map s in
  List.iter
    (fun s -> Hashtbl.replace map s (Circuit.add_input nc (Circuit.signal_name c s)))
    (Circuit.inputs c);
  List.iter
    (fun l -> Hashtbl.replace map l (Circuit.declare nc ~name:(Circuit.signal_name c l) ()))
    (Circuit.latches c);
  List.iter
    (fun s ->
      match Circuit.driver c s with
      | Gate (fn, fs) ->
          Hashtbl.replace map s (Circuit.add_gate nc fn (Array.to_list (Array.map get fs)))
      | Undriven | Input | Latch _ -> ())
    (Circuit.comb_topo c);
  List.iter
    (fun l ->
      let data, enable = Circuit.latch_info c l in
      Circuit.set_latch nc (get l) ?enable:(Option.map get enable) ~data:(get data) ())
    (Circuit.latches c);
  List.iteri (fun i o -> Circuit.mark_output nc (f nc i (get o))) (Circuit.outputs c);
  Circuit.check nc;
  nc

(* Copy with a single output negated (a seeded bug). *)
let negate_one_output c =
  map_outputs ~suffix:"_bug" c (fun nc i o -> if i = 0 then Circuit.add_gate nc Not [ o ] else o)

let random_inputs st c ~cycles =
  let ni = List.length (Circuit.inputs c) in
  List.init cycles (fun _ -> Array.init ni (fun _ -> Random.State.bool st))
