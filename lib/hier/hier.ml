(* Hierarchical compositional SEC: module overlay, glue-circuit builder,
   flattening, signatures, adversarial resynthesis and the leaf-first
   planner.  See hier.mli for the conventions and the soundness argument. *)

type module_def = {
  mod_name : string;
  glue : Circuit.t;
  ports_in : string list;
  out_count : int;
  instances : (string * string) list;
}

type design = { design_name : string; top : string; modules : module_def list }

(* ---------- glue builder ---------- *)

module Build = struct
  type t = {
    b_name : string;
    b_glue : Circuit.t;
    mutable b_ports : string list;  (* reversed *)
    mutable b_outs : Circuit.signal list;  (* reversed *)
    mutable b_insts : (string * module_def * Circuit.signal list) list;
        (* reversed; obligation signals in child port order *)
    mutable b_done : bool;
  }

  let create name =
    {
      b_name = name;
      b_glue = Circuit.create name;
      b_ports = [];
      b_outs = [];
      b_insts = [];
      b_done = false;
    }

  let glue b = b.b_glue

  let sealed b = if b.b_done then invalid_arg "Hier.Build: module already finished"

  let input b port =
    sealed b;
    b.b_ports <- port :: b.b_ports;
    Circuit.add_input b.b_glue port

  let inst b ~name ~child ~inputs =
    sealed b;
    if List.exists (fun (n, _, _) -> n = name) b.b_insts then
      invalid_arg (Printf.sprintf "Hier.Build.inst: duplicate instance %S" name);
    if List.length inputs <> List.length child.ports_in then
      invalid_arg
        (Printf.sprintf
           "Hier.Build.inst: %s expects %d inputs for %s, got %d" name
           (List.length child.ports_in) child.mod_name (List.length inputs));
    b.b_insts <- (name, child, inputs) :: b.b_insts;
    List.init child.out_count (fun k ->
        Circuit.add_input b.b_glue (Printf.sprintf "%s.o%d" name k))

  let output b s =
    sealed b;
    b.b_outs <- s :: b.b_outs

  let finish b =
    sealed b;
    b.b_done <- true;
    let insts = List.rev b.b_insts in
    List.iter (fun s -> Circuit.mark_output b.b_glue s) (List.rev b.b_outs);
    List.iter
      (fun (_, _, obligations) ->
        List.iter (fun s -> Circuit.mark_output b.b_glue s) obligations)
      insts;
    Circuit.check b.b_glue;
    {
      mod_name = b.b_name;
      glue = b.b_glue;
      ports_in = List.rev b.b_ports;
      out_count = List.length b.b_outs;
      instances = List.map (fun (n, c, _) -> (n, c.mod_name)) insts;
    }
end

(* ---------- design table ---------- *)

let find_module d name =
  match List.find_opt (fun m -> m.mod_name = name) d.modules with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "Hier: no module %S in design %s" name d.design_name)

let make_design ~name ~top modules =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem seen m.mod_name then
        invalid_arg (Printf.sprintf "Hier.make_design: duplicate module %S" m.mod_name);
      Hashtbl.add seen m.mod_name ())
    modules;
  let d = { design_name = name; top; modules } in
  (* reachability, child presence and acyclicity in one DFS *)
  let visiting = Hashtbl.create 8 in
  let visited = Hashtbl.create 8 in
  let rec visit mn =
    if Hashtbl.mem visiting mn then
      invalid_arg (Printf.sprintf "Hier.make_design: instance cycle through %S" mn);
    if not (Hashtbl.mem visited mn) then begin
      Hashtbl.add visiting mn ();
      List.iter (fun (_, child) -> visit child) (find_module d mn).instances;
      Hashtbl.remove visiting mn;
      Hashtbl.add visited mn ()
    end
  in
  visit top;
  d

let module_order d =
  let visited = Hashtbl.create 8 in
  let order = ref [] in
  let rec visit mn =
    if not (Hashtbl.mem visited mn) then begin
      Hashtbl.add visited mn ();
      List.iter (fun (_, child) -> visit child) (find_module d mn).instances;
      order := mn :: !order
    end
  in
  visit d.top;
  List.rev !order

let invalidation_set d name =
  ignore (find_module d name);
  (* a module is invalidated iff [name] is in its instance subtree *)
  let contains = Hashtbl.create 8 in
  let rec mark mn =
    match Hashtbl.find_opt contains mn with
    | Some b -> b
    | None ->
        let b =
          mn = name
          || List.exists (fun (_, child) -> mark child) (find_module d mn).instances
        in
        Hashtbl.add contains mn b;
        b
  in
  List.filter mark (module_order d)

(* ---------- flattening ---------- *)

let cutpoint_name inst k = Printf.sprintf "%s.o%d" inst k

let signal_of c name =
  match Circuit.find_signal c name with
  | Some s -> s
  | None ->
      invalid_arg
        (Printf.sprintf "Hier: circuit %s has no signal %S" (Circuit.name c) name)

(* Inline [m] (and recursively its instances) into [c].  [inputs] are the
   already-built signals feeding the module's input ports, positionally;
   returns the module's output signals.  Inner latch names get the
   instance-path [prefix], so a flattened pair built from same-shaped
   hierarchies shares its latch names (the exposure cut lines up). *)
let rec instantiate c d ~prefix m inputs =
  let g = m.glue in
  let map = Array.make (Circuit.signal_count g) (-1) in
  let bind s v = map.(s) <- v in
  let get s =
    if map.(s) < 0 then
      invalid_arg
        (Printf.sprintf "Hier.flatten: unmapped signal %s in %s"
           (Circuit.signal_name g s) m.mod_name);
    map.(s)
  in
  List.iter2 (fun port v -> bind (signal_of g port) v) m.ports_in inputs;
  (* cut-points become placeholders, connected to child outputs below *)
  let cut_sigs =
    List.map
      (fun (iname, cname) ->
        let child = find_module d cname in
        ( iname,
          child,
          List.init child.out_count (fun k ->
              let ph = Circuit.declare c () in
              bind (signal_of g (cutpoint_name iname k)) ph;
              ph) ))
      m.instances
  in
  (* glue latches keep their names under the instance path *)
  let glue_latches = Circuit.latches g in
  List.iter
    (fun l ->
      bind l (Circuit.declare c ~name:(prefix ^ Circuit.signal_name g l) ()))
    glue_latches;
  List.iter
    (fun s ->
      match Circuit.driver g s with
      | Circuit.Gate (fn, fanins) ->
          bind s (Circuit.add_gate c fn (List.map get (Array.to_list fanins)))
      | _ -> ())
    (Circuit.comb_topo g);
  List.iter
    (fun l ->
      let data, enable = Circuit.latch_info g l in
      Circuit.set_latch c map.(l) ?enable:(Option.map get enable) ~data:(get data) ())
    glue_latches;
  (* recurse: each instance reads its obligation outputs, placeholders
     buffer its results back into the glue *)
  let outs = Array.of_list (Circuit.outputs g) in
  let obligation_base = ref m.out_count in
  List.iter
    (fun (iname, child, placeholders) ->
      let n_in = List.length child.ports_in in
      let drivers =
        List.init n_in (fun k -> get outs.(!obligation_base + k))
      in
      obligation_base := !obligation_base + n_in;
      let child_outs =
        instantiate c d ~prefix:(prefix ^ iname ^ "/") child drivers
      in
      List.iter2
        (fun ph o -> Circuit.set_gate c ph Circuit.Buf [ o ])
        placeholders child_outs)
    cut_sigs;
  List.init m.out_count (fun k -> get outs.(k))

let flatten ?name d =
  let top = find_module d d.top in
  let c = Circuit.create (Option.value name ~default:d.design_name) in
  let inputs = List.map (fun p -> Circuit.add_input c p) top.ports_in in
  let outs = instantiate c d ~prefix:"" top inputs in
  List.iter (fun o -> Circuit.mark_output c o) outs;
  Circuit.check c;
  c

let flatten_at d name =
  ignore (find_module d name);
  flatten ~name:(d.design_name ^ ":" ^ name)
    { d with top = name; design_name = d.design_name ^ ":" ^ name }

(* ---------- signatures ---------- *)

let circuit_signature c = Digest.to_hex (Digest.string (Netlist_io.to_string c))

let subtree_signatures d =
  let memo = Hashtbl.create 8 in
  let rec go mn =
    match Hashtbl.find_opt memo mn with
    | Some s -> s
    | None ->
        let m = find_module d mn in
        let children =
          List.map (fun (iname, child) -> iname ^ "=" ^ go child) m.instances
        in
        let s =
          Digest.to_hex
            (Digest.string
               (circuit_signature m.glue ^ "|" ^ String.concat ";" children))
        in
        Hashtbl.add memo mn s;
        s
  in
  List.iter (fun mn -> ignore (go mn)) (module_order d);
  memo

let subtree_signature d name =
  ignore (find_module d name);
  Hashtbl.find (subtree_signatures d) name

let boundary_signature d name =
  let m = find_module d name in
  let iface m =
    Printf.sprintf "in:%s/out:%d" (String.concat "," m.ports_in) m.out_count
  in
  let insts =
    List.map
      (fun (iname, cname) ->
        Printf.sprintf "%s:%s[%s]" iname cname (iface (find_module d cname)))
      m.instances
  in
  Digest.to_hex (Digest.string (iface m ^ "|" ^ String.concat ";" insts))

let store_kind = "hier"

let module_key ~left ~right name =
  Printf.sprintf "hier|%s|%s|%s"
    (subtree_signature left name)
    (subtree_signature right name)
    (boundary_signature left name)

(* ---------- adversarial resynthesis ---------- *)

(* Rebuilds [c] gate by gate through [rewrite] (identity by default),
   preserving input/latch names and output positions — the shared
   machinery of [resynthesize] and [break_output]. *)
let rebuild ?(rewrite = fun c fn ins -> Circuit.add_gate c fn ins)
    ?(final = fun _ _ s -> s) c =
  let out = Circuit.create (Circuit.name c) in
  let map = Array.make (Circuit.signal_count c) (-1) in
  let get s = map.(s) in
  List.iter
    (fun i -> map.(i) <- Circuit.add_input out (Circuit.signal_name c i))
    (Circuit.inputs c);
  let latches = Circuit.latches c in
  List.iter
    (fun l -> map.(l) <- Circuit.declare out ~name:(Circuit.signal_name c l) ())
    latches;
  List.iter
    (fun s ->
      match Circuit.driver c s with
      | Circuit.Gate (fn, fanins) ->
          map.(s) <- rewrite out fn (List.map get (Array.to_list fanins))
      | _ -> ())
    (Circuit.comb_topo c);
  List.iter
    (fun l ->
      let data, enable = Circuit.latch_info c l in
      Circuit.set_latch out map.(l)
        ?enable:(Option.map get enable)
        ~data:(get data) ())
    latches;
  List.iteri (fun i o -> Circuit.mark_output out (final out i (get o))) (Circuit.outputs c);
  Circuit.check out;
  out

let resynthesize ?(seed = 0) c =
  let st = Random.State.make [| seed; 0x5EC7; Hashtbl.hash (Circuit.name c) |] in
  let rewrite out fn ins =
    let g f l = Circuit.add_gate out f l in
    let flip = Random.State.bool st in
    match ((fn : Circuit.gate_fn), ins) with
    | And, [ a; b ] when flip ->
        if Random.State.bool st then g Not [ g Nand [ a; b ] ]
        else g Nor [ g Not [ a ]; g Not [ b ] ]
    | Or, [ a; b ] when flip ->
        if Random.State.bool st then g Not [ g Nor [ a; b ] ]
        else g Nand [ g Not [ a ]; g Not [ b ] ]
    | Xor, [ a; b ] when flip -> g Mux [ a; g Not [ b ]; b ]
    | Xnor, [ a; b ] when flip -> g Mux [ a; b; g Not [ b ] ]
    | Nand, [ a; b ] when flip -> g Not [ g And [ a; b ] ]
    | Nor, [ a; b ] when flip -> g Not [ g Or [ a; b ] ]
    | Not, [ a ] when flip -> g Nand [ a; a ]
    | Mux, [ s; t; e ] when flip ->
        g Or [ g And [ s; t ]; g And [ g Not [ s ]; e ] ]
    | (And | Or | Xor | Xnor | Nand | Nor), [ a; b ] -> g fn [ b; a ]
    | _ -> g fn ins
  in
  rebuild ~rewrite c

let break_output ?(output = 0) c =
  let n = List.length (Circuit.outputs c) in
  if output < 0 || output >= n then
    invalid_arg (Printf.sprintf "Hier.break_output: output %d of %d" output n);
  rebuild
    ~final:(fun out i s ->
      if i = output then Circuit.add_gate out Circuit.Not [ s ] else s)
    c

let map_module d ~name ~f =
  let m = find_module d name in
  let glue' = f m.glue in
  let iface_ok =
    List.for_all
      (fun p ->
        match Circuit.find_signal glue' p with
        | Some s -> Circuit.driver glue' s = Circuit.Input
        | None -> false)
      m.ports_in
    && List.length (Circuit.outputs glue') = List.length (Circuit.outputs m.glue)
  in
  if not iface_ok then
    invalid_arg
      (Printf.sprintf "Hier.map_module: %s's interface changed" name);
  {
    d with
    modules =
      List.map
        (fun md -> if md.mod_name = name then { md with glue = glue' } else md)
        d.modules;
  }

(* ---------- the planner ---------- *)

type mode = Leaf | Blackbox | Flat
type source = Checked | Store_hit
type module_verdict = M_equivalent | M_inequivalent | M_undecided of string

type module_report = {
  rm_module : string;
  rm_mode : mode;
  rm_source : source;
  rm_verdict : module_verdict;
  rm_seconds : float;
}

type verdict =
  | Equivalent
  | Inequivalent of { offending : string; cex : Cec.counterexample option }
  | Undecided of { module_ : string; reason : string }

type report = {
  verdict : verdict;
  modules : module_report list;
  store_hits : int;
  checked : int;
  flat_fallbacks : int;
  seconds : float;
}

let mode_str = function Leaf -> "leaf" | Blackbox -> "blackbox" | Flat -> "flat"

(* One Verify.check of a circuit pair, exposure cut from the left side's
   structural feedback plan (the repo-wide "auto" convention); with a
   store, the check gets a fresh cache backed by it, so surviving cone
   verdicts are reused. *)
let run_pair ?jobs ?limits ?store l r =
  let exposed =
    List.map (Circuit.signal_name l) (Feedback.plan_structural l).Feedback.exposed
  in
  let cache = Option.map (fun store -> Cec.Cache.create ~store ()) store in
  match Verify.check ?jobs ?limits ?cache ~exposed l r with
  | Ok o -> (
      match o.Verify.verdict with
      | Verify.Equivalent -> (M_equivalent, None)
      | Verify.Inequivalent cex -> (M_inequivalent, cex)
      | Verify.Undecided reason -> (M_undecided reason, None))
  | Error d -> (M_undecided (Seqprob.diagnosis_to_string d), None)

let boundaries_compatible (dl : design) (dr : design) name =
  match List.find_opt (fun m -> m.mod_name = name) dr.modules with
  | None -> false
  | Some r ->
      let l = find_module dl name in
      l.ports_in = r.ports_in && l.out_count = r.out_count
      && l.instances = r.instances

let check ?jobs ?limits ?store dl dr =
  Obs.span ~name:"hier.check"
    ~attrs:
      [ ("left", Obs.String dl.design_name); ("right", Obs.String dr.design_name) ]
  @@ fun () ->
  let t0 = Obs.Clock.now () in
  let reports = ref [] in
  let store_hits = ref 0 and checked = ref 0 and fallbacks = ref 0 in
  let finish verdict =
    {
      verdict;
      modules = List.rev !reports;
      store_hits = !store_hits;
      checked = !checked;
      flat_fallbacks = !fallbacks;
      seconds = Obs.Clock.now () -. t0;
    }
  in
  let record rm = reports := rm :: !reports in
  let timed_pair ~mod_name ~mode l r =
    Obs.count "hier.module_checked" 1;
    incr checked;
    let (v, cex), secs =
      Obs.timed_span ~name:"hier.module"
        ~attrs:
          [ ("module", Obs.String mod_name); ("mode", Obs.String (mode_str mode)) ]
        (fun () -> run_pair ?jobs ?limits ?store l r)
    in
    (v, cex, secs)
  in
  let order = module_order dl in
  let hierarchies_match =
    dl.top = dr.top && List.for_all (boundaries_compatible dl dr) order
  in
  if not hierarchies_match then begin
    (* no usable module pairing: one flat check of the whole design pair *)
    Obs.instant "hier.hierarchy_mismatch";
    incr fallbacks;
    Obs.count "hier.flat_fallback" 1;
    let v, cex, secs =
      timed_pair ~mod_name:dl.top ~mode:Flat (flatten dl) (flatten dr)
    in
    record
      {
        rm_module = dl.top;
        rm_mode = Flat;
        rm_source = Checked;
        rm_verdict = v;
        rm_seconds = secs;
      };
    finish
      (match v with
      | M_equivalent -> Equivalent
      | M_inequivalent -> Inequivalent { offending = dl.top; cex }
      | M_undecided reason -> Undecided { module_ = dl.top; reason })
  end
  else begin
    let result = ref None in
    let rec go = function
      | [] -> ()
      | mn :: rest when !result = None ->
          let l = find_module dl mn and r = find_module dr mn in
          let key = module_key ~left:dl ~right:dr mn in
          let mode = if l.instances = [] then Leaf else Blackbox in
          (match Option.bind store (fun st -> Store.find st key) with
          | Some Store.Equivalent ->
              incr store_hits;
              Obs.count "hier.module_store_hits" 1;
              record
                {
                  rm_module = mn;
                  rm_mode = mode;
                  rm_source = Store_hit;
                  rm_verdict = M_equivalent;
                  rm_seconds = 0.;
                }
          | Some (Store.Inequivalent _) ->
              incr store_hits;
              Obs.count "hier.module_store_hits" 1;
              record
                {
                  rm_module = mn;
                  rm_mode = mode;
                  rm_source = Store_hit;
                  rm_verdict = M_inequivalent;
                  rm_seconds = 0.;
                };
              result := Some (Inequivalent { offending = mn; cex = None })
          | None ->
              let persist v =
                match (store, v) with
                | Some st, M_equivalent ->
                    ignore (Store.add ~kind:store_kind st key Store.Equivalent)
                | Some st, M_inequivalent ->
                    ignore (Store.add ~kind:store_kind st key (Store.Inequivalent []))
                | _ -> ()
              in
              let conclude ~rm_mode ~secs v cex =
                record
                  {
                    rm_module = mn;
                    rm_mode;
                    rm_source = Checked;
                    rm_verdict = v;
                    rm_seconds = secs;
                  };
                persist v;
                match v with
                | M_equivalent -> ()
                | M_inequivalent ->
                    result := Some (Inequivalent { offending = mn; cex })
                | M_undecided reason ->
                    result := Some (Undecided { module_ = mn; reason })
              in
              let v, cex, secs = timed_pair ~mod_name:mn ~mode l.glue r.glue in
              (match (mode, v) with
              | _, M_equivalent | (Leaf | Flat), _ ->
                  conclude ~rm_mode:mode ~secs v cex
              | Blackbox, (M_inequivalent | M_undecided _) ->
                  (* free cut-points over-approximate the children: a glue
                     refutation proves nothing, so decide the subtree flat *)
                  incr fallbacks;
                  Obs.count "hier.flat_fallback" 1;
                  let v', cex', secs' =
                    timed_pair ~mod_name:mn ~mode:Flat (flatten_at dl mn)
                      (flatten_at dr mn)
                  in
                  conclude ~rm_mode:Flat ~secs:(secs +. secs') v' cex'));
          go rest
      | _ -> ()
    in
    go order;
    finish (match !result with Some v -> v | None -> Equivalent)
  end
