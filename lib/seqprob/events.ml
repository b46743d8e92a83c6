type event = int

type table = {
  bman : Bdd.man Lazy.t; (* created by the first enable crossed *)
  rewrite : bool;
  vars : (string * int, int) Hashtbl.t; (* (source, shift) -> bdd var index *)
  interned : (int list, int) Hashtbl.t; (* predicate-id list -> event id *)
  contents : int list Vgraph.Vec.t; (* event id -> predicate-id list *)
  pred_ids : (int, Bdd.t) Hashtbl.t; (* canonical BDD id -> handle *)
}

(* Predicate identity: BDD nodes are hash-consed, so the BDD handle itself
   (an int) is a canonical id. *)

let create ?(rewrite = true) () =
  let t =
    {
      bman = lazy (Bdd.man ());
      rewrite;
      vars = Hashtbl.create 64;
      interned = Hashtbl.create 64;
      contents = Vgraph.Vec.create ~dummy:[] ();
      pred_ids = Hashtbl.create 256;
    }
  in
  ignore (Vgraph.Vec.push t.contents []); (* event 0 = empty *)
  Hashtbl.replace t.interned [] 0;
  t

let man t = Lazy.force t.bman

let empty = 0

let pred_var t ~source ~shift =
  let key = (source, shift) in
  let idx =
    match Hashtbl.find_opt t.vars key with
    | Some i -> i
    | None ->
        let i = Hashtbl.length t.vars in
        Hashtbl.replace t.vars key i;
        i
  in
  Bdd.var (man t) idx

(* We need a stable int per distinct predicate BDD.  The BDD handle is such
   an int already (hash-consing), so store lists of raw handles. *)
let intern t lst =
  match Hashtbl.find_opt t.interned lst with
  | Some id -> id
  | None ->
      let id = Vgraph.Vec.push t.contents lst in
      Hashtbl.replace t.interned lst id;
      id

(* Predicate identity: hash-consed BDD ids are canonical per manager, and
   every table owns its manager. *)
let pred_key t (b : Bdd.t) : int =
  let k = Bdd.id b in
  Hashtbl.replace t.pred_ids k b;
  k

let pred_of_key t k = Hashtbl.find t.pred_ids k

let push t ~pred e =
  let lst = Vgraph.Vec.get t.contents e in
  let keep_existing =
    t.rewrite
    &&
    match lst with
    | [] -> false
    | qk :: _ ->
        let q = pred_of_key t qk in
        (* rule (5): q ⇒ p makes the new head redundant *)
        Bdd.leq (man t) q pred
  in
  if keep_existing then e else intern t (pred_key t pred :: lst)

let elements t e = List.map (pred_of_key t) (Vgraph.Vec.get t.contents e)

let count t = Vgraph.Vec.length t.contents

let to_string t e =
  let lst = Vgraph.Vec.get t.contents e in
  match lst with
  | [] -> "now"
  | lst -> String.concat "." (List.map string_of_int lst)

let var_source t i =
  let found = ref None in
  Hashtbl.iter (fun k v -> if v = i then found := Some k) t.vars;
  match !found with Some k -> k | None -> raise Not_found

let decompose t e =
  match Vgraph.Vec.get t.contents e with
  | [] -> None
  | hd :: tl -> Some (pred_of_key t hd, intern t tl)
