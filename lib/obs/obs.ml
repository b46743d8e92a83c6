module Clock = struct
  external now : unit -> float = "obs_clock_monotonic_s"
end

type value = Int of int | Float of float | Bool of bool | String of string

type attrs = (string * value) list

type event =
  | Begin of { name : string; t : float; dom : int; attrs : attrs }
  | End of { name : string; t : float; dom : int; attrs : attrs }
  | Instant of { name : string; t : float; dom : int; attrs : attrs }
  | Count of { name : string; t : float; dom : int; n : int }

let time_of = function
  | Begin { t; _ } | End { t; _ } | Instant { t; _ } | Count { t; _ } -> t

let dom_of = function
  | Begin { dom; _ } | End { dom; _ } | Instant { dom; _ } | Count { dom; _ }
    ->
      dom

let dummy = Count { name = ""; t = 0.; dom = 0; n = 0 }

(* ---------- histogram bucket layout ---------- *)

(* Log-linear buckets: base-2 octaves, each split into [h_sub] linear
   sub-buckets, covering [2^h_emin, 2^(h_emax+1)) plus an underflow and
   an overflow bucket.  A finite bucket's width is 2^e / h_sub, i.e. at
   most 1/h_sub of the value itself — the quantile error bound. *)
let h_sub = 8
let h_emin = -20 (* lowest octave: [2^-20, 2^-19) — ~0.95us in seconds *)
let h_emax = 9 (* highest octave: [2^9, 2^10) = [512s, 1024s) *)
let h_nbuckets = ((h_emax - h_emin + 1) * h_sub) + 2
let h_underflow_bound = Float.ldexp 1. h_emin
let h_overflow_lower = Float.ldexp 1. (h_emax + 1)

let h_index v =
  if Float.is_nan v || v < h_underflow_bound then 0
  else if v >= h_overflow_lower then h_nbuckets - 1
  else begin
    let m, p = Float.frexp v in
    (* v = m * 2^p with m in [0.5, 1), so v = (2m) * 2^(p-1), 2m in [1,2) *)
    let e = p - 1 in
    let sub = int_of_float (((m *. 2.) -. 1.) *. float_of_int h_sub) in
    let sub = if sub >= h_sub then h_sub - 1 else if sub < 0 then 0 else sub in
    1 + ((e - h_emin) * h_sub) + sub
  end

(* Inclusive upper bound of bucket [i] (the value reported by quantile
   estimation and rendered as the Prometheus [le] label). *)
let h_bound i =
  if i <= 0 then h_underflow_bound
  else if i >= h_nbuckets - 1 then infinity
  else begin
    let j = i - 1 in
    let e = h_emin + (j / h_sub) and s = j mod h_sub in
    Float.ldexp (1. +. (float_of_int (s + 1) /. float_of_int h_sub)) e
  end

let h_lower i = if i <= 0 then 0. else h_bound (i - 1)

(* per-domain histogram accumulator *)
type hacc = { mutable h_count : int; mutable h_sum : float; h_buckets : int array }

let fresh_hacc () =
  { h_count = 0; h_sum = 0.; h_buckets = Array.make h_nbuckets 0 }

(* ---------- per-domain buffers ---------- *)

(* Bumped by [reset]; a buffer whose [epoch] lags is logically empty and
   is abandoned (length zeroed) by its owner on the next emit.  This is
   what makes [reset] safe concurrently with emitters: no foreign domain
   ever writes a buffer's length, so an in-flight append cannot
   resurrect pre-reset events. *)
let generation = Atomic.make 0

(* Per-domain event buffer.  Only the owning domain appends; [len] is
   published with a release store so a collector on another domain sees
   every slot below the length it reads.  Growth replaces [arr] (the old
   array stays valid for concurrent readers holding it). *)
type buf = {
  dom : int;
  mutable arr : event array;
  len : int Atomic.t;
  epoch : int Atomic.t; (* generation this buffer's contents belong to *)
  mutable dropped : int; (* events discarded by the cap, this epoch *)
  mutable cap : (int * event list) ref option;
      (* active request-scoped capture, owner-domain only *)
  (* open spans of this domain, innermost first; each cell accumulates the
     attrs to be carried on the span's End event.  Owner-domain only. *)
  mutable open_spans : (string * attrs ref) list;
  (* live counter/histogram accumulators (see [enable_counters]); written
     by the owning domain, read by snapshots on any domain — both under
     [counts_m].  The per-buf mutex is uncontended except during a
     snapshot, so the owner's increment stays cheap. *)
  counts : (string, int ref) Hashtbl.t;
  hists : (string, hacc) Hashtbl.t;
  counts_m : Mutex.t;
}

let registry : buf list ref = ref []
let registry_m = Mutex.create ()

let buf_key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          dom = (Domain.self () :> int);
          arr = Array.make 256 dummy;
          len = Atomic.make 0;
          epoch = Atomic.make (Atomic.get generation);
          dropped = 0;
          cap = None;
          open_spans = [];
          counts = Hashtbl.create 16;
          hists = Hashtbl.create 16;
          counts_m = Mutex.create ();
        }
      in
      Mutex.lock registry_m;
      registry := b :: !registry;
      Mutex.unlock registry_m;
      b)

let on = Atomic.make false
let enabled () = Atomic.get on
let enable () = Atomic.set on true
let disable () = Atomic.set on false

(* Live counters are a separate, cheaper switch: no event buffering, just
   per-domain accumulators a server can scrape at any time. *)
let counters_on = Atomic.make false
let counters_enabled () = Atomic.get counters_on
let enable_counters () = Atomic.set counters_on true
let disable_counters () = Atomic.set counters_on false

(* nonzero while any domain has a [capture] in flight; keeps the
   no-tracing fast path at two atomic loads *)
let ncaptures = Atomic.make 0
let capture_event_cap = 10_000

let default_buffer_cap = 1_000_000
let event_cap = Atomic.make default_buffer_cap
let set_buffer_cap n = Atomic.set event_cap (max 1 n)
let buffer_cap () = Atomic.get event_cap

(* gauges are a single shared table: writes are control-path-frequency
   (queue depth on admit/complete), not hot-path *)
let gauges : (string, float) Hashtbl.t = Hashtbl.create 16
let gauges_m = Mutex.create ()

let hook : (event -> unit) option ref = ref None
let set_hook h = hook := h

(* Owner-side: abandon a stale (pre-reset) buffer before appending. *)
let roll_if_stale b =
  let g = Atomic.get generation in
  if Atomic.get b.epoch <> g then begin
    Atomic.set b.len 0;
    b.dropped <- 0;
    b.open_spans <- [];
    Atomic.set b.epoch g
  end

let reset () =
  Atomic.incr generation;
  Mutex.lock registry_m;
  let bufs = !registry in
  Mutex.unlock registry_m;
  List.iter
    (fun b ->
      Mutex.lock b.counts_m;
      Hashtbl.reset b.counts;
      Hashtbl.reset b.hists;
      Mutex.unlock b.counts_m)
    bufs;
  Mutex.lock gauges_m;
  Hashtbl.reset gauges;
  Mutex.unlock gauges_m;
  roll_if_stale (Domain.DLS.get buf_key)

let push b e =
  roll_if_stale b;
  let n = Atomic.get b.len in
  if n >= Atomic.get event_cap then b.dropped <- b.dropped + 1
  else begin
    if n = Array.length b.arr then begin
      let bigger = Array.make (2 * n) dummy in
      Array.blit b.arr 0 bigger 0 n;
      b.arr <- bigger
    end;
    b.arr.(n) <- e;
    Atomic.set b.len (n + 1)
  end;
  match !hook with None -> () | Some f -> f e

(* Every buffered emission funnels through here: the event goes to the
   domain's active capture (if any) and, when the global sink is on, to
   the global buffer. *)
let emit b e =
  (match b.cap with
  | Some r ->
      let n, l = !r in
      if n < capture_event_cap then r := (n + 1, e :: l)
  | None -> ());
  if Atomic.get on then push b e

let dropped_events () =
  let g = Atomic.get generation in
  Mutex.lock registry_m;
  let bufs = !registry in
  Mutex.unlock registry_m;
  List.fold_left
    (fun acc b -> if Atomic.get b.epoch = g then acc + b.dropped else acc)
    0 bufs

let collect () =
  let g = Atomic.get generation in
  Mutex.lock registry_m;
  let bufs = !registry in
  Mutex.unlock registry_m;
  let evs =
    List.concat_map
      (fun b ->
        if Atomic.get b.epoch <> g then [] (* logically emptied by reset *)
        else begin
          let n = Atomic.get b.len in
          let a = b.arr in
          (* if a stale (pre-growth) array is read, expose its prefix only *)
          let n = min n (Array.length a) in
          List.init n (fun i -> a.(i))
        end)
      bufs
  in
  (* stable: within one domain timestamps are non-decreasing, so each
     domain's own event order survives the merge *)
  List.stable_sort (fun e1 e2 -> Float.compare (time_of e1) (time_of e2)) evs

let capture f =
  let b = Domain.DLS.get buf_key in
  let saved = b.cap in
  let r = ref (0, []) in
  b.cap <- Some r;
  Atomic.incr ncaptures;
  let x =
    Fun.protect
      ~finally:(fun () ->
        b.cap <- saved;
        Atomic.decr ncaptures)
      f
  in
  (x, List.rev (snd !r))

(* ---------- emitting ---------- *)

(* fast path: some sink might want events / this domain's sink is live *)
let armed () = Atomic.get on || Atomic.get ncaptures > 0
let live b = Atomic.get on || b.cap <> None

let span ~name ?(attrs = []) f =
  if not (armed ()) then f ()
  else begin
    let b = Domain.DLS.get buf_key in
    if not (live b) then f ()
    else begin
      let cell = ref [] in
      b.open_spans <- (name, cell) :: b.open_spans;
      emit b (Begin { name; t = Clock.now (); dom = b.dom; attrs });
      Fun.protect
        ~finally:(fun () ->
          (match b.open_spans with
          | (_, c) :: rest when c == cell -> b.open_spans <- rest
          | _ -> () (* imbalanced by an enable-toggle mid-span; tolerate *));
          emit b (End { name; t = Clock.now (); dom = b.dom; attrs = !cell }))
        f
    end
  end

let timed_span ~name ?attrs f =
  let t0 = Clock.now () in
  let r = span ~name ?attrs f in
  (r, Clock.now () -. t0)

let attr fattrs =
  if armed () then begin
    let b = Domain.DLS.get buf_key in
    if live b then
      match b.open_spans with
      | (_, cell) :: _ -> cell := !cell @ fattrs ()
      | [] -> ()
  end

let instant ?(attrs = []) name =
  if armed () then begin
    let b = Domain.DLS.get buf_key in
    if live b then emit b (Instant { name; t = Clock.now (); dom = b.dom; attrs })
  end

let count name n =
  if Atomic.get counters_on then begin
    let b = Domain.DLS.get buf_key in
    Mutex.lock b.counts_m;
    (match Hashtbl.find_opt b.counts name with
    | Some r -> r := !r + n
    | None -> Hashtbl.add b.counts name (ref n));
    Mutex.unlock b.counts_m
  end;
  if armed () then begin
    let b = Domain.DLS.get buf_key in
    if live b then emit b (Count { name; t = Clock.now (); dom = b.dom; n })
  end

let observe name v =
  if Atomic.get counters_on then begin
    let b = Domain.DLS.get buf_key in
    Mutex.lock b.counts_m;
    let h =
      match Hashtbl.find_opt b.hists name with
      | Some h -> h
      | None ->
          let h = fresh_hacc () in
          Hashtbl.add b.hists name h;
          h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    let i = h_index v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1;
    Mutex.unlock b.counts_m
  end

(* ---------- live metrics ---------- *)

module Histogram = struct
  type snap = {
    name : string;
    count : int;
    sum : float;
    buckets : (float * int) list;
  }

  let bucket_bounds_of_value v =
    let i = h_index v in
    (h_lower i, h_bound i)

  let snapshot () =
    Mutex.lock registry_m;
    let bufs = !registry in
    Mutex.unlock registry_m;
    let tbl : (string, hacc) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun b ->
        Mutex.lock b.counts_m;
        Hashtbl.iter
          (fun k h ->
            let acc =
              match Hashtbl.find_opt tbl k with
              | Some a -> a
              | None ->
                  let a = fresh_hacc () in
                  Hashtbl.add tbl k a;
                  a
            in
            acc.h_count <- acc.h_count + h.h_count;
            acc.h_sum <- acc.h_sum +. h.h_sum;
            Array.iteri
              (fun i n -> acc.h_buckets.(i) <- acc.h_buckets.(i) + n)
              h.h_buckets)
          b.hists;
        Mutex.unlock b.counts_m)
      bufs;
    Hashtbl.fold
      (fun name a l ->
        let buckets = ref [] in
        for i = h_nbuckets - 1 downto 0 do
          if a.h_buckets.(i) > 0 then
            buckets := (h_bound i, a.h_buckets.(i)) :: !buckets
        done;
        { name; count = a.h_count; sum = a.h_sum; buckets = !buckets } :: l)
      tbl []
    |> List.sort (fun s1 s2 -> compare s1.name s2.name)

  let find name = List.find_opt (fun s -> s.name = name) (snapshot ())

  let quantile s q =
    if s.count = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank =
        max 1 (min s.count (int_of_float (Float.ceil (q *. float_of_int s.count))))
      in
      let rec go cum = function
        | [] -> h_overflow_lower
        | (bound, n) :: rest ->
            if cum + n >= rank then
              if Float.is_finite bound then bound else h_overflow_lower
            else go (cum + n) rest
      in
      go 0 s.buckets
    end

  let nearest_rank sorted q =
    let n = Array.length sorted in
    if n = 0 then 0.
    else begin
      let q = Float.max 0. (Float.min 1. q) in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      sorted.(max 0 (min (n - 1) (rank - 1)))
    end
end

module Gauge = struct
  let set name v =
    if Atomic.get counters_on then begin
      Mutex.lock gauges_m;
      Hashtbl.replace gauges name v;
      Mutex.unlock gauges_m
    end

  let snapshot () =
    Mutex.lock gauges_m;
    let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) gauges [] in
    Mutex.unlock gauges_m;
    List.sort (fun (a, _) (b, _) -> compare (a : string) b) l
end

(* ---------- sinks ---------- *)

module Counters = struct
  let totals evs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (function
        | Count { name; n; _ } ->
            Hashtbl.replace tbl name
              (n + Option.value ~default:0 (Hashtbl.find_opt tbl name))
        | _ -> ())
      evs;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

  let snapshot () =
    Mutex.lock registry_m;
    let bufs = !registry in
    Mutex.unlock registry_m;
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun b ->
        Mutex.lock b.counts_m;
        Hashtbl.iter
          (fun k r ->
            Hashtbl.replace tbl k
              (!r + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
          b.counts;
        Mutex.unlock b.counts_m)
      bufs;
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)
end

module Prom = struct
  let sanitize name =
    let s =
      String.map
        (fun c ->
          match c with
          | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
          | _ -> '_')
        name
    in
    if s = "" then "_"
    else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

  let to_buffer buf () =
    let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
    List.iter
      (fun (name, n) ->
        let m = "seqver_" ^ sanitize name ^ "_total" in
        p "# HELP %s Live counter %s.\n" m name;
        p "# TYPE %s counter\n" m;
        p "%s %d\n" m n)
      (Counters.snapshot ());
    let d = dropped_events () in
    p "# HELP %s Trace events discarded by the per-domain buffer cap.\n"
      "seqver_obs_dropped_events_total";
    p "# TYPE seqver_obs_dropped_events_total counter\n";
    p "seqver_obs_dropped_events_total %d\n" d;
    List.iter
      (fun (name, v) ->
        let m = "seqver_" ^ sanitize name in
        p "# HELP %s Gauge %s.\n" m name;
        p "# TYPE %s gauge\n" m;
        p "%s %.9g\n" m v)
      (Gauge.snapshot ());
    List.iter
      (fun (s : Histogram.snap) ->
        let m = "seqver_" ^ sanitize s.name in
        p "# HELP %s Histogram %s.\n" m s.name;
        p "# TYPE %s histogram\n" m;
        let cum = ref 0 in
        List.iter
          (fun (bound, n) ->
            cum := !cum + n;
            if Float.is_finite bound then
              p "%s_bucket{le=\"%.9g\"} %d\n" m bound !cum)
          s.buckets;
        p "%s_bucket{le=\"+Inf\"} %d\n" m s.count;
        p "%s_sum %.9g\n" m s.sum;
        p "%s_count %d\n" m s.count)
      (Histogram.snapshot ())

  let to_string () =
    let buf = Buffer.create 4096 in
    to_buffer buf ();
    Buffer.contents buf
end

module Chrome = struct
  let json_of_value = function
    | Int i -> Sjson.Int i
    | Float f -> Sjson.Float f
    | Bool b -> Sjson.Bool b
    | String s -> Sjson.String s

  let args attrs =
    Sjson.Obj (List.map (fun (k, v) -> (k, json_of_value v)) attrs)

  let metadata name ~tid label =
    Sjson.Obj
      [
        ("name", Sjson.String name);
        ("ph", Sjson.String "M");
        ("pid", Sjson.Int 1);
        ("tid", Sjson.Int tid);
        ("args", Sjson.Obj [ ("name", Sjson.String label) ]);
      ]

  let to_string evs =
    let buf = Buffer.create 4096 in
    let base = List.fold_left (fun m e -> min m (time_of e)) infinity evs in
    let base = if Float.is_finite base then base else 0. in
    let record ?(scope = []) name ~cat ~ph ~dom ~t args =
      Sjson.Obj
        ([
           ("name", Sjson.String name);
           ("cat", Sjson.String cat);
           ("ph", Sjson.String ph);
         ]
        @ scope
        @ [
            ("pid", Sjson.Int 1);
            ("tid", Sjson.Int dom);
            ("ts", Sjson.Float ((t -. base) *. 1e6));
            ("args", args);
          ])
    in
    (* one event per line *)
    let line j =
      Buffer.add_string buf ",\n";
      Buffer.add_string buf (Sjson.to_string j)
    in
    Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    Buffer.add_string buf
      (Sjson.to_string (metadata "process_name" ~tid:0 "seqver"));
    (* one named track per domain *)
    List.iter
      (fun d ->
        line (metadata "thread_name" ~tid:d (Printf.sprintf "domain %d" d)))
      (List.sort_uniq compare (List.map dom_of evs));
    (* counter tracks plot running totals *)
    let totals = Hashtbl.create 8 in
    List.iter
      (function
        | Begin { name; t; dom; attrs } ->
            line (record name ~cat:"span" ~ph:"B" ~dom ~t (args attrs))
        | End { name; t; dom; attrs } ->
            line (record name ~cat:"span" ~ph:"E" ~dom ~t (args attrs))
        | Instant { name; t; dom; attrs } ->
            line
              (record name ~cat:"event" ~ph:"i"
                 ~scope:[ ("s", Sjson.String "t") ]
                 ~dom ~t (args attrs))
        | Count { name; t; dom; n } ->
            let total =
              n + Option.value ~default:0 (Hashtbl.find_opt totals name)
            in
            Hashtbl.replace totals name total;
            line
              (record name ~cat:"counter" ~ph:"C" ~dom ~t
                 (Sjson.Obj [ ("value", Sjson.Int total) ])))
      evs;
    Buffer.add_string buf "]}\n";
    Buffer.contents buf

  let write oc evs = output_string oc (to_string evs)
end

module Summary = struct
  type node = {
    name : string;
    count : int;
    total : float;
    self : float;
    children : node list;
  }

  (* aggregation cell: one per (parent path, name) *)
  type acc = {
    mutable a_count : int;
    mutable a_total : float;
    mutable a_child : float;
    a_children : (string, acc) Hashtbl.t;
  }

  let fresh_acc () =
    { a_count = 0; a_total = 0.; a_child = 0.; a_children = Hashtbl.create 4 }

  let tree evs =
    let root = fresh_acc () in
    (* split back into per-domain streams (collect preserved their order) *)
    let by_dom = Hashtbl.create 8 in
    List.iter
      (fun e ->
        let d = dom_of e in
        let l =
          match Hashtbl.find_opt by_dom d with
          | Some l -> l
          | None ->
              let l = ref [] in
              Hashtbl.add by_dom d l;
              l
        in
        l := e :: !l)
      evs;
    let close stack t =
      (* close every span still open at [t], charging parents *)
      List.fold_left
        (fun inner_dur (a, t0) ->
          let d = t -. t0 in
          a.a_count <- a.a_count + 1;
          a.a_total <- a.a_total +. d;
          a.a_child <- a.a_child +. inner_dur;
          d)
        0. stack
      |> ignore
    in
    Hashtbl.iter
      (fun _dom levs ->
        let levs = List.rev !levs in
        let last_t = List.fold_left (fun m e -> max m (time_of e)) 0. levs in
        let stack = ref [] in
        List.iter
          (fun e ->
            match e with
            | Begin { name; t; _ } ->
                let tbl =
                  match !stack with
                  | (a, _) :: _ -> a.a_children
                  | [] -> root.a_children
                in
                let a =
                  match Hashtbl.find_opt tbl name with
                  | Some a -> a
                  | None ->
                      let a = fresh_acc () in
                      Hashtbl.add tbl name a;
                      a
                in
                stack := (a, t) :: !stack
            | End { t; _ } -> (
                match !stack with
                | [] -> () (* unmatched end *)
                | (a, t0) :: rest ->
                    let d = t -. t0 in
                    a.a_count <- a.a_count + 1;
                    a.a_total <- a.a_total +. d;
                    (match rest with
                    | (parent, _) :: _ -> parent.a_child <- parent.a_child +. d
                    | [] -> ());
                    stack := rest)
            | Instant _ | Count _ -> ())
          levs;
        close !stack last_t)
      by_dom;
    let rec nodes_of acc =
      Hashtbl.fold
        (fun name a l ->
          {
            name;
            count = a.a_count;
            total = a.a_total;
            self = Float.max 0. (a.a_total -. a.a_child);
            children = nodes_of a;
          }
          :: l)
        acc.a_children []
      |> List.sort (fun n1 n2 -> Float.compare n2.total n1.total)
    in
    nodes_of root

  let pp ppf evs =
    let t = tree evs in
    Format.fprintf ppf "%-46s %7s %10s %10s@." "span" "count" "total" "self";
    let rec go depth n =
      Format.fprintf ppf "%-46s %7d %9.3fs %9.3fs@."
        (String.make (2 * depth) ' ' ^ n.name)
        n.count n.total n.self;
      List.iter (go (depth + 1)) n.children
    in
    List.iter (go 0) t;
    match Counters.totals evs with
    | [] -> ()
    | cts ->
        Format.fprintf ppf "counters:@.";
        List.iter
          (fun (name, n) -> Format.fprintf ppf "  %-44s %7d@." name n)
          cts
end
