module Var = struct
  type index = Time of int | At of { shift : int; event : Events.event }
  type t = { base : string; index : index }

  let time base d = { base; index = Time d }
  let at base ~shift ~event =
    if event = Events.empty then time base shift
    else { base; index = At { shift; event } }

  let delay v = match v.index with Time d -> d | At { shift; _ } -> shift
  let equal (a : t) (b : t) = a = b

  let to_string v =
    match v.index with
    | Time d -> Printf.sprintf "%s@%d" v.base d
    | At { shift; event } -> Printf.sprintf "%s@%d~e%d" v.base shift event

  let of_string s =
    let fallback = { base = s; index = Time 0 } in
    match String.rindex_opt s '@' with
    | None -> fallback
    | Some i -> (
        let base = String.sub s 0 i in
        let suffix = String.sub s (i + 1) (String.length s - i - 1) in
        match String.index_opt suffix '~' with
        | None -> (
            match int_of_string_opt suffix with
            | Some d -> { base; index = Time d }
            | None -> fallback)
        | Some j -> (
            let shift = String.sub suffix 0 j in
            let ev = String.sub suffix (j + 1) (String.length suffix - j - 1) in
            match (int_of_string_opt shift, ev) with
            | Some shift, ev
              when String.length ev > 1
                   && ev.[0] = 'e'
                   && int_of_string_opt (String.sub ev 1 (String.length ev - 1))
                      <> None ->
                let event =
                  Option.get
                    (int_of_string_opt (String.sub ev 1 (String.length ev - 1)))
                in
                at base ~shift ~event
            | _ -> fallback))
end

type diagnosis =
  | Non_exposed_cycle of { circuit : string; signal : string }
  | Hidden_enabled_latch of { circuit : string; latch : string }
  | Infeasible_period of { circuit : string; period : int }
  | Output_arity_mismatch of { left : int; right : int }
  | No_such_latch of { circuit : string; name : string }

let pp_diagnosis ppf = function
  | Non_exposed_cycle { circuit; signal } ->
      Format.fprintf ppf
        "circuit %s: sequential cycle through %s has no exposed latch (no \
         CBF/EDBF exists)"
        circuit signal
  | Hidden_enabled_latch { circuit; latch } ->
      Format.fprintf ppf
        "circuit %s: latch %s is load-enabled; only regular latches are \
         supported here"
        circuit latch
  | Infeasible_period { circuit; period } ->
      Format.fprintf ppf "circuit %s: no retiming achieves clock period %d"
        circuit period
  | Output_arity_mismatch { left; right } ->
      Format.fprintf ppf
        "output counts differ (%d vs %d): sides cannot be compared \
         positionally"
        left right
  | No_such_latch { circuit; name } ->
      Format.fprintf ppf "circuit %s: no latch named %s" circuit name

let diagnosis_to_string d = Format.asprintf "%a" pp_diagnosis d

exception Error of diagnosis

type t = {
  graph : Aig.t;
  vars : Var.t array;
  outs1 : Aig.lit list;
  outs2 : Aig.lit list;
}

let and_nodes p = Aig.and_count p.graph

let cone_and_count g roots =
  let seen = Array.make (Aig.node_count g) false in
  let cnt = ref 0 in
  let rec visit n =
    if not seen.(n) then begin
      seen.(n) <- true;
      if n > 0 && not (Aig.is_input_node g n) then begin
        incr cnt;
        let f0, f1 = Aig.fanins g n in
        visit (Aig.node_of f0);
        visit (Aig.node_of f1)
      end
    end
  in
  List.iter (fun l -> visit (Aig.node_of l)) roots;
  !cnt

let side_replication p =
  (cone_and_count p.graph p.outs1, cone_and_count p.graph p.outs2)

let cex_is_valid p cex =
  let idx = Hashtbl.create 64 in
  Array.iteri (fun i v -> Hashtbl.replace idx v i) p.vars;
  let words = Array.make (Array.length p.vars) 0L in
  List.iter
    (fun (v, b) ->
      match Hashtbl.find_opt idx v with
      | Some i -> words.(i) <- (if b then -1L else 0L)
      | None -> ())
    cex;
  let vals = Aig.simulate p.graph words in
  List.exists2
    (fun a b ->
      Int64.logand (Int64.logxor (Aig.sim_lit vals a) (Aig.sim_lit vals b)) 1L
      = 1L)
    p.outs1 p.outs2

type builder = {
  g : Aig.t;
  tbl : (Var.t, Aig.lit) Hashtbl.t;
  mutable rev_vars : Var.t list;
  mutable n : int;
}

let builder () =
  { g = Aig.create (); tbl = Hashtbl.create 256; rev_vars = []; n = 0 }

let graph b = b.g

let var_lit b v =
  match Hashtbl.find_opt b.tbl v with
  | Some l -> l
  | None ->
      let l = Aig.input b.g in
      Hashtbl.add b.tbl v l;
      b.rev_vars <- v :: b.rev_vars;
      b.n <- b.n + 1;
      l

let builder_vars b = Array.of_list (List.rev b.rev_vars)

let problem b ~outs1 ~outs2 =
  let left = List.length outs1 and right = List.length outs2 in
  if left <> right then Result.Error (Output_arity_mismatch { left; right })
  else
    Ok { graph = b.g; vars = Array.of_list (List.rev b.rev_vars); outs1; outs2 }

let of_circuits c1 c2 =
  let b = builder () in
  let compile c =
    let env =
      Aig.of_circuit_comb b.g c ~source:(fun s ->
          var_lit b (Var.time (Circuit.signal_name c s) 0))
    in
    List.map (fun s -> env.Aig.of_signal.(s)) (Circuit.outputs c)
  in
  let outs1 = compile c1 in
  let outs2 = compile c2 in
  problem b ~outs1 ~outs2
