type 'a slot = { value : 'a; mutable stamp : int }

type 'a t = {
  tbl : (string, 'a slot) Hashtbl.t;
  m : Mutex.t;
  capacity : int;
  mutable gen : int; (* logical clock of hits and insertions *)
}

let create ~capacity =
  { tbl = Hashtbl.create 256; m = Mutex.create (); capacity = max 1 capacity; gen = 0 }

(* m held *)
let tick t =
  let g = t.gen in
  t.gen <- g + 1;
  g

(* m held.  Batch-evict oldest-stamp entries down to 3/4 capacity;
   returns the number dropped. *)
let evict_locked t =
  let n = Hashtbl.length t.tbl in
  if n <= t.capacity then 0
  else begin
    let arr = Array.make n ("", 0) in
    let i = ref 0 in
    Hashtbl.iter
      (fun k s ->
        arr.(!i) <- (k, s.stamp);
        incr i)
      t.tbl;
    Array.sort (fun (_, a) (_, b) -> compare (a : int) b) arr;
    let drop = n - max 1 (t.capacity * 3 / 4) in
    for j = 0 to drop - 1 do
      Hashtbl.remove t.tbl (fst arr.(j))
    done;
    drop
  end

let find t key =
  Mutex.protect t.m @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some s ->
      s.stamp <- tick t;
      Some s.value
  | None -> None

let add t key value =
  Mutex.protect t.m @@ fun () ->
  if Hashtbl.mem t.tbl key then None
  else begin
    Hashtbl.add t.tbl key { value; stamp = tick t };
    Some (evict_locked t)
  end

let clear t = Mutex.protect t.m @@ fun () -> Hashtbl.reset t.tbl
let size t = Mutex.protect t.m @@ fun () -> Hashtbl.length t.tbl
