(* ROBDD with hash-consed nodes.  Node 0 is the constant false, node 1 the
   constant true.  Internal nodes satisfy low <> high and var(node) <
   var(children) (terminals have var = max_int). *)

type t = int

type man = {
  var_of : int Vgraph.Vec.t; (* node -> variable *)
  low_of : int Vgraph.Vec.t;
  high_of : int Vgraph.Vec.t;
  unique : (int * int * int, int) Hashtbl.t; (* (var, low, high) -> node *)
  ite_cache : (int * int * int, int) Hashtbl.t;
  quant_cache : (int * int * bool, int) Hashtbl.t; (* (f, var-set id, exist?) *)
  compose_cache : (int * int * int, int) Hashtbl.t; (* (f, var, g) *)
  mutable nvars : int;
  mutable quant_set_id : int; (* distinguishes quantification sets in cache *)
}

let terminal_var = max_int

(* initial size of the unique table and the ITE cache *)
let table_size = 1 lsl 14

let man () =
  let m =
    {
      var_of = Vgraph.Vec.create ~dummy:0 ();
      low_of = Vgraph.Vec.create ~dummy:0 ();
      high_of = Vgraph.Vec.create ~dummy:0 ();
      unique = Hashtbl.create table_size;
      ite_cache = Hashtbl.create table_size;
      quant_cache = Hashtbl.create 256;
      compose_cache = Hashtbl.create 256;
      nvars = 0;
      quant_set_id = 0;
    }
  in
  (* terminals 0 and 1 *)
  ignore (Vgraph.Vec.push m.var_of terminal_var);
  ignore (Vgraph.Vec.push m.low_of 0);
  ignore (Vgraph.Vec.push m.high_of 0);
  ignore (Vgraph.Vec.push m.var_of terminal_var);
  ignore (Vgraph.Vec.push m.low_of 1);
  ignore (Vgraph.Vec.push m.high_of 1);
  m

let zero _ = 0
let one _ = 1
let is_zero _ f = f = 0
let equal (a : t) (b : t) = a = b
let id (a : t) = a

let var_of m n = Vgraph.Vec.get m.var_of n
let low_of m n = Vgraph.Vec.get m.low_of n
let high_of m n = Vgraph.Vec.get m.high_of n

let mk m v lo hi =
  if lo = hi then lo
  else
    let key = (v, lo, hi) in
    match Hashtbl.find_opt m.unique key with
    | Some n -> n
    | None ->
        let n = Vgraph.Vec.push m.var_of v in
        ignore (Vgraph.Vec.push m.low_of lo);
        ignore (Vgraph.Vec.push m.high_of hi);
        Hashtbl.add m.unique key n;
        n

let var m i =
  if i < 0 then invalid_arg "Bdd.var: negative index";
  if i >= m.nvars then m.nvars <- i + 1;
  mk m i 0 1

let node_count m = Vgraph.Vec.length m.var_of

(* Shannon expansion of ITE with standard terminal cases. *)
let rec ite m f g h =
  if f = 1 then g
  else if f = 0 then h
  else if g = h then g
  else if g = 1 && h = 0 then f
  else
    let key = (f, g, h) in
    match Hashtbl.find_opt m.ite_cache key with
    | Some r -> r
    | None ->
        let vf = var_of m f and vg = var_of m g and vh = var_of m h in
        let v = min vf (min vg vh) in
        let cof n vn = if vn = v then (low_of m n, high_of m n) else (n, n) in
        let f0, f1 = cof f vf in
        let g0, g1 = cof g vg in
        let h0, h1 = cof h vh in
        let lo = ite m f0 g0 h0 in
        let hi = ite m f1 g1 h1 in
        let r = mk m v lo hi in
        Hashtbl.replace m.ite_cache key r;
        r

let not_ m f = ite m f 0 1
let and_ m f g = ite m f g 0
let or_ m f g = ite m f 1 g
let xor_ m f g = ite m f (not_ m g) g
let nand_ m f g = not_ m (and_ m f g)
let nor_ m f g = not_ m (or_ m f g)
let xnor_ m f g = not_ m (xor_ m f g)

let and_list m = List.fold_left (and_ m) 1
let or_list m = List.fold_left (or_ m) 0

let apply_fn m (fn : Circuit.gate_fn) ins =
  match fn with
  | Const b -> if b then 1 else 0
  | Buf -> ins.(0)
  | Not -> not_ m ins.(0)
  | And -> Array.fold_left (and_ m) 1 ins
  | Nand -> not_ m (Array.fold_left (and_ m) 1 ins)
  | Or -> Array.fold_left (or_ m) 0 ins
  | Nor -> not_ m (Array.fold_left (or_ m) 0 ins)
  | Xor -> Array.fold_left (xor_ m) 0 ins
  | Xnor -> not_ m (Array.fold_left (xor_ m) 0 ins)
  | Mux -> ite m ins.(0) ins.(1) ins.(2)

let rec cofactor m f ~var b =
  if f <= 1 then f
  else
    let v = var_of m f in
    if v > var then f
    else if v = var then if b then high_of m f else low_of m f
    else
      (* v < var: rebuild. Use compose cache keyed by (f, var, b as 0/1+2) *)
      let key = (f, var, if b then -2 else -3) in
      match Hashtbl.find_opt m.compose_cache key with
      | Some r -> r
      | None ->
          let r =
            mk m v (cofactor m (low_of m f) ~var b) (cofactor m (high_of m f) ~var b)
          in
          Hashtbl.replace m.compose_cache key r;
          r

let rec compose m f ~var g =
  if f <= 1 then f
  else
    let v = var_of m f in
    if v > var then f
    else if v = var then ite m g (high_of m f) (low_of m f)
    else
      let key = (f, var, g) in
      match Hashtbl.find_opt m.compose_cache key with
      | Some r -> r
      | None ->
          let lo = compose m (low_of m f) ~var g in
          let hi = compose m (high_of m f) ~var g in
          (* the top variable of lo/hi may now be <= v, so use ite on var v *)
          let r = ite m (mk m v 0 1) hi lo in
          Hashtbl.replace m.compose_cache key r;
          r

let quantify m vars ~exist f =
  m.quant_set_id <- m.quant_set_id + 1;
  let set_id = m.quant_set_id in
  let in_set = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_set v ()) vars;
  let max_var = List.fold_left max (-1) vars in
  let rec go f =
    if f <= 1 then f
    else
      let v = var_of m f in
      if v > max_var then f
      else
        let key = (f, set_id, exist) in
        match Hashtbl.find_opt m.quant_cache key with
        | Some r -> r
        | None ->
            let lo = go (low_of m f) in
            let hi = go (high_of m f) in
            let r =
              if Hashtbl.mem in_set v then
                if exist then or_ m lo hi else and_ m lo hi
              else mk m v lo hi
            in
            Hashtbl.replace m.quant_cache key r;
            r
  in
  go f

let exists m vars f = quantify m vars ~exist:true f
let forall m vars f = quantify m vars ~exist:false f

let fold (type a) m f ~(const : bool -> a) ~(node : int -> a -> a -> a) : a =
  let memo : (int, a) Hashtbl.t = Hashtbl.create 64 in
  let rec go n =
    if n = 0 then const false
    else if n = 1 then const true
    else
      match Hashtbl.find_opt memo n with
      | Some r -> r
      | None ->
          let r = node (var_of m n) (go (low_of m n)) (go (high_of m n)) in
          Hashtbl.replace memo n r;
          r
  in
  go f

let support m f =
  let module IS = Set.Make (Int) in
  let s = fold m f ~const:(fun _ -> IS.empty) ~node:(fun v lo hi -> IS.add v (IS.union lo hi)) in
  IS.elements s

let depends_on m f v = List.mem v (support m f)

let size m f =
  let seen = Hashtbl.create 64 in
  let rec go n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      if n > 1 then begin
        go (low_of m n);
        go (high_of m n)
      end
    end
  in
  go f;
  Hashtbl.length seen

let eval m f env =
  let rec go n =
    if n = 0 then false
    else if n = 1 then true
    else if env (var_of m n) then go (high_of m n)
    else go (low_of m n)
  in
  go f

let any_sat m f =
  if f = 0 then None
  else begin
    let rec go n acc =
      if n = 1 then acc
      else begin
        assert (n <> 0);
        let v = var_of m n in
        if high_of m n <> 0 then go (high_of m n) ((v, true) :: acc)
        else go (low_of m n) ((v, false) :: acc)
      end
    in
    Some (List.rev (go f []))
  end

let sat_count m f ~nvars =
  (* cnt(n) counts assignments of variables strictly below var(n); the level
     of a terminal is [nvars]. *)
  let lvl v = if v = terminal_var then nvars else v in
  let c, v =
    fold m f
      ~const:(fun b -> ((if b then 1.0 else 0.0), terminal_var))
      ~node:(fun v (clo, vlo) (chi, vhi) ->
        let c =
          (clo *. ldexp 1.0 (lvl vlo - v - 1))
          +. (chi *. ldexp 1.0 (lvl vhi - v - 1))
        in
        (c, v))
  in
  c *. ldexp 1.0 (lvl v)

let leq m f g = ite m f g 1 = 1

let is_positive_unate m f ~var =
  leq m (cofactor m f ~var false) (cofactor m f ~var true)

let is_negative_unate m f ~var =
  leq m (cofactor m f ~var true) (cofactor m f ~var false)
