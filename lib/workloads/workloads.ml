(* All generators are deterministic in their parameters (fixed seeds). *)

(* Array-backed signal pool: O(1) pick (list pools are quadratic at the
   industrial sizes of Table 2). *)
type pool = { mutable data : Circuit.signal array; mutable len : int }

let pool_of_list l =
  let data = Array.of_list l in
  { data = (if Array.length data = 0 then Array.make 4 0 else data); len = Array.length data }

let pool_add p s =
  if p.len = Array.length p.data then begin
    let d = Array.make (2 * p.len) 0 in
    Array.blit p.data 0 d 0 p.len;
    p.data <- d
  end;
  p.data.(p.len) <- s;
  p.len <- p.len + 1

let pick st p = p.data.(Random.State.int st p.len)

let random_gate st c pool =
  let fn : Circuit.gate_fn =
    match Random.State.int st 8 with
    | 0 -> And
    | 1 -> Or
    | 2 -> Nand
    | 3 -> Nor
    | 4 | 5 -> Xor
    | 6 -> Not
    | _ -> Mux
  in
  let arity = match fn with Not -> 1 | Mux -> 3 | _ -> 2 in
  Circuit.add_gate c fn (List.init arity (fun _ -> pick st pool))

(* A block of [n] random gates over [ins]; returns [outs] freshly picked
   from the created gates (so depth grows with n). *)
let logic_block st c ~ins ~gates ~outs =
  let p = pool_of_list ins in
  let created = pool_of_list [] in
  for _ = 1 to gates do
    let g = random_gate st c p in
    pool_add p g;
    pool_add created g
  done;
  let deep = if created.len = 0 then p else created in
  List.init outs (fun _ -> pick st deep)

(* ---- minmax ---- *)

(* Tree comparator (log depth): true iff a < b (unsigned, a.(0) = LSB). *)
let tree_less c a b =
  let w = Array.length a in
  (* per-bit (lt, eq) pairs, combined pairwise: MSB side dominates *)
  let bits =
    List.init w (fun i ->
        let j = w - 1 - i in
        (* list is MSB-first *)
        let na = Circuit.add_gate c Not [ a.(j) ] in
        let lt = Circuit.add_gate c And [ na; b.(j) ] in
        let eq = Circuit.add_gate c Xnor [ a.(j); b.(j) ] in
        (lt, eq))
  in
  let combine (lt_hi, eq_hi) (lt_lo, eq_lo) =
    let lt = Circuit.add_gate c Or [ lt_hi; Circuit.add_gate c And [ eq_hi; lt_lo ] ] in
    let eq = Circuit.add_gate c And [ eq_hi; eq_lo ] in
    (lt, eq)
  in
  let rec reduce = function
    | [] -> (Circuit.const_false c, Circuit.const_true c)
    | [ x ] -> x
    | xs ->
        let rec pair = function
          | x :: y :: rest -> combine x y :: pair rest
          | rest -> rest
        in
        reduce (pair xs)
  in
  fst (reduce bits)

let minmax ~width =
  let c = Circuit.create (Printf.sprintf "minmax%d" width) in
  let din = Array.init width (fun i -> Circuit.add_input c (Printf.sprintf "in%d" i)) in
  let reset = Circuit.add_input c "reset" in
  (* Input conditioning: a deep, unbalanced mixing chain in front of the
     input registers.  It is purely combinational, so the latch count stays
     at 3*width, but its depth dwarfs the (log-depth) comparator loop —
     min-period retiming recovers the slack by moving the input bank into
     the chain (the delay gains of the paper's minmax rows). *)
  let cond = Array.make width din.(0) in
  let acc = ref din.(0) in
  for pass = 0 to 1 do
    for i = 0 to width - 1 do
      acc := Circuit.add_gate c Xor [ !acc; din.(i) ];
      let mixed = Circuit.add_gate c Xnor [ !acc; din.((i + pass + 1) mod width) ] in
      cond.(i) <-
        Circuit.add_gate c And
          [ mixed; Circuit.add_gate c Or [ (if pass = 0 then din.(i) else cond.(i)); !acc ] ]
    done
  done;
  (* input register bank *)
  let inreg = Array.map (fun d -> Circuit.add_latch c ~data:d ()) cond in
  (* min and max feedback registers *)
  let minreg = Array.init width (fun i -> Circuit.declare c ~name:(Printf.sprintf "min%d" i) ()) in
  let maxreg = Array.init width (fun i -> Circuit.declare c ~name:(Printf.sprintf "max%d" i) ()) in
  let lt_min = tree_less c inreg minreg in
  let gt_max = tree_less c maxreg inreg in
  let nreset = Circuit.add_gate c Not [ reset ] in
  let upd_min = Circuit.add_gate c Or [ lt_min; reset ] in
  let upd_max = Circuit.add_gate c Or [ gt_max; reset ] in
  ignore nreset;
  Array.iteri
    (fun i m ->
      let next = Circuit.add_gate c Mux [ upd_min; inreg.(i); m ] in
      Circuit.set_latch c m ~data:next ())
    minreg;
  Array.iteri
    (fun i m ->
      let next = Circuit.add_gate c Mux [ upd_max; inreg.(i); m ] in
      Circuit.set_latch c m ~data:next ())
    maxreg;
  (* outputs: min, max and a comparison flag *)
  Array.iter (fun m -> Circuit.mark_output c m) minreg;
  Array.iter (fun m -> Circuit.mark_output c m) maxreg;
  Circuit.mark_output c (tree_less c minreg maxreg);
  Circuit.check c;
  c

(* ---- pipeline ---- *)

let pipeline ~name ~width ~stages ~imbalance ~seed =
  let st = Random.State.make [| seed; 0x9e3779 |] in
  let c = Circuit.create name in
  let ins = List.init width (fun i -> Circuit.add_input c (Printf.sprintf "in%d" i)) in
  let bus = ref ins in
  for stage = 1 to stages do
    let gates = if stage mod 2 = 0 then width * imbalance else max 2 (width / 2) in
    let outs = logic_block st c ~ins:!bus ~gates ~outs:width in
    bus := List.map (fun o -> Circuit.add_latch c ~data:o ()) outs
  done;
  let final = logic_block st c ~ins:!bus ~gates:width ~outs:(max 1 (width / 2)) in
  List.iter (Circuit.mark_output c) final;
  Circuit.check c;
  c

(* ---- conditional-update and toggle registers (Figs. 14, 15) ----

   Their control and data come from a shallow prefix of the pool (control
   signals are decoded near the inputs in real designs), which also keeps
   the unateness analysis cones small. *)

let shallow_prefix pool = { pool with len = min pool.len 64 }

(* q' = cond ? d : q  — positive unate in q, convertible *)
let conditional_register st c pool =
  let shallow = shallow_prefix pool in
  let q = Circuit.declare c () in
  let cond = random_gate st c shallow in
  let d = random_gate st c shallow in
  let next = Circuit.add_gate c Mux [ cond; d; q ] in
  Circuit.set_latch c q ~data:next ();
  q

(* q' = cond ? ~q : q  — toggle, NOT unate in q, must be exposed *)
let toggle_register st c pool =
  let shallow = shallow_prefix pool in
  let q = Circuit.declare c () in
  let cond = random_gate st c shallow in
  let nq = Circuit.add_gate c Not [ q ] in
  let next = Circuit.add_gate c Mux [ cond; nq; q ] in
  Circuit.set_latch c q ~data:next ();
  q

(* ---- deep pipelined datapath (retiming stress) ---- *)

let deep_datapath ~name ~width ~stages ~seed =
  let st = Random.State.make [| seed; 0xDEE9 |] in
  let c = Circuit.create name in
  let ins = Array.init width (fun i -> Circuit.add_input c (Printf.sprintf "in%d" i)) in
  let bus = ref ins in
  for stage = 1 to stages do
    let b = !bus in
    (* Depth sawtooth: most stages are one gate per lane, every eighth is a
       deep per-lane chain.  The slack sits in long stretches between deep
       stages, so min-period retiming has to drag registers across many
       stage boundaries (long FEAS relabel chains), and min-area sees a
       W/D-constraint system whose shortest paths span hundreds of
       vertices. *)
    let deep = stage mod 8 = 0 in
    let next =
      Array.mapi
        (fun i x ->
          (* cross-lane mixing keeps every lane on the critical cycle *)
          let peer = b.((i + 1 + (stage mod max 1 (width - 1))) mod width) in
          if deep then begin
            let acc = ref (Circuit.add_gate c Xor [ x; peer ]) in
            for k = 1 to 5 do
              let other = b.((i + k) mod width) in
              acc :=
                Circuit.add_gate c (if k land 1 = 0 then And else Or) [ !acc; other ]
            done;
            !acc
          end
          else
            Circuit.add_gate c
              (match Random.State.int st 3 with 0 -> Xor | 1 -> Nand | _ -> Or)
              [ x; peer ])
        b
    in
    bus := Array.map (fun d -> Circuit.add_latch c ~data:d ()) next
  done;
  Array.iter (fun s -> Circuit.mark_output c s) !bus;
  Circuit.check c;
  c

(* ---- fsm_datapath (Table 1 shape) ---- *)

let fsm_datapath ~name ~latches ~self_loops ~gates ~width ~seed =
  let st = Random.State.make [| seed; 0xABCDEF |] in
  let c = Circuit.create name in
  let ins = List.init width (fun i -> Circuit.add_input c (Printf.sprintf "in%d" i)) in
  let pool = pool_of_list ins in
  if latches - self_loops < 0 then invalid_arg "fsm_datapath: self_loops > latches";
  (* one acyclic latch is reserved for the observation register below *)
  let observe_reserved = latches - self_loops >= 1 in
  let n_acyclic = latches - self_loops - if observe_reserved then 1 else 0 in
  (* Feedback registers are declared first so the datapath reads them (they
     are live state, like the FSMs of the paper's designs); their next-state
     logic is connected at the end. *)
  let fb = Array.init self_loops (fun i -> Circuit.declare c ~name:(Printf.sprintf "fsm_q%d" i) ()) in
  Array.iter (fun q -> pool_add pool q) fb;
  (* interleave pipeline latches and logic *)
  let budget = max gates (2 * latches) in
  let gate_count = ref 0 in
  let latch_count = ref 0 in
  while !gate_count < budget || !latch_count < n_acyclic do
    if
      !latch_count < n_acyclic
      && (!gate_count >= budget || Random.State.int st (max 1 (budget / max 1 n_acyclic)) = 0)
    then begin
      incr latch_count;
      pool_add pool (Circuit.add_latch c ~data:(pick st pool) ())
    end
    else begin
      incr gate_count;
      pool_add pool (random_gate st c pool)
    end
  done;
  (* Connect the feedback registers: half toggles (non-unate), half
     conditional updates (unate); each is a self-loop, so the structural
     analysis exposes exactly these. *)
  Array.iteri
    (fun i q ->
      let shallow = shallow_prefix pool in
      let cond = random_gate st c shallow in
      let next =
        if i mod 2 = 0 then
          Circuit.add_gate c Mux [ cond; random_gate st c shallow; q ]
        else Circuit.add_gate c Mux [ cond; Circuit.add_gate c Not [ q ]; q ]
      in
      Circuit.set_latch c q ~data:next ())
    fb;
  (* Outputs are registered (realistic, and it leaves retiming freedom on
     the input-to-register paths); the last pipeline latch is re-purposed
     as an observation register over every latch, so no latch is dead. *)
  let latches = Circuit.latches c in
  let n_out = max 1 (width / 2) in
  let registered =
    List.filteri (fun i _ -> i mod (max 1 (List.length latches / n_out)) = 0) latches
  in
  List.iteri (fun i l -> if i < n_out then Circuit.mark_output c l) registered;
  (* observation register: balanced xor tree over all latch outputs,
     registered (it uses the reserved acyclic-latch slot, keeping the
     published latch count).  The tree is balanced so that observation does
     not dominate the critical path — the datapath's own imbalance is what
     retiming exploits. *)
  let rec xor_tree = function
    | [] -> Circuit.const_false c
    | [ x ] -> x
    | xs ->
        let rec pair = function
          | a :: b :: rest -> Circuit.add_gate c Xor [ a; b ] :: pair rest
          | rest -> rest
        in
        xor_tree (pair xs)
  in
  let parity = xor_tree latches in
  if observe_reserved then
    Circuit.mark_output c (Circuit.add_latch c ~name:"observe" ~data:parity ())
  else Circuit.mark_output c parity;
  Circuit.check c;
  c

(* ---- industrial (Table 2 shape) ---- *)

let industrial ~name ~latches ~exposed ~unate_fraction ~enable_fraction ~seed =
  let st = Random.State.make [| seed; 0x51DE |] in
  let c = Circuit.create name in
  let width = 16 in
  let ins = List.init width (fun i -> Circuit.add_input c (Printf.sprintf "in%d" i)) in
  let pool = pool_of_list ins in
  let n_acyclic = latches - exposed in
  if n_acyclic < 0 then invalid_arg "industrial: exposed > latches";
  (* acyclic glue logic with load-enabled latches *)
  let gates = 4 * latches in
  let gate_count = ref 0 in
  let latch_count = ref 0 in
  while !gate_count < gates || !latch_count < n_acyclic do
    if
      !latch_count < n_acyclic
      && (!gate_count >= gates || Random.State.int st (max 1 (gates / max 1 n_acyclic)) = 0)
    then begin
      incr latch_count;
      let enable =
        if Random.State.float st 1.0 < enable_fraction then Some (pick st pool) else None
      in
      pool_add pool (Circuit.add_latch c ?enable ~data:(pick st pool) ())
    end
    else begin
      incr gate_count;
      pool_add pool (random_gate st c pool)
    end
  done;
  (* feedback registers to be exposed; a [unate_fraction] of them are
     conditional updates, which the functional analysis converts instead *)
  let n_unate = int_of_float (Float.round (unate_fraction *. float_of_int exposed)) in
  for i = 1 to exposed do
    let q =
      if i <= n_unate then conditional_register st c pool else toggle_register st c pool
    in
    pool_add pool q
  done;
  for _ = 1 to 8 do
    Circuit.mark_output c (random_gate st c pool)
  done;
  Circuit.check c;
  c

(* ---- large tier: designs where partitioned checking has to pay ---- *)

(* Balanced reduction tree over a 2-input gate function. *)
let rec gate_tree c fn = function
  | [] -> invalid_arg "gate_tree: empty"
  | [ x ] -> x
  | xs ->
      let rec pair = function
        | a :: b :: rest -> Circuit.add_gate c fn [ a; b ] :: pair rest
        | rest -> rest
      in
      gate_tree c fn (pair xs)

(* Linear left fold over the same gate — functionally identical to
   [gate_tree] but a different association order, so the two styles keep
   distinct AIG structure all the way to the shared root. *)
let gate_chain c fn = function
  | [] -> invalid_arg "gate_chain: empty"
  | x :: rest -> List.fold_left (fun acc y -> Circuit.add_gate c fn [ acc; y ]) x rest

let log2_exact what n =
  if n < 2 || n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "%s: expected a power of two >= 2, got %d" what n);
  let rec go b = if 1 lsl b = n then b else go (b + 1) in
  go 1

(* Parameterized FIFO: [entries] x [width] data latches, each a hold-mux
   self-loop (q' = we ? din : q), plus write/read pointer counters.  The
   two gate-level [style]s compute the same function with genuinely
   different structure:

   - [`Sop]: one-hot decode as balanced AND trees, read port as a
     sum-of-products (OR tree of decode AND data);
   - [`Mux]: decode as linear AND chains, read port as a binary 2:1-mux
     tree over the pointer bits (no explicit read decode at all).

   Every latch is on a structural self-loop and shares its name across
   styles, so [Feedback.plan_structural] exposes the same cut in both and
   CBF verifies at depth 1 over many small, independent next-state cones
   plus one wide read-port cone — the partitioned checker's favourite
   shape.  [~bug] swaps two data bits in entry 0's write mux (style-
   independent), an inequivalence a single write+readback exposes. *)
let fifo ?(bug = false) ~entries ~width ~style () =
  let pb = log2_exact "fifo entries" entries in
  if width < 2 then invalid_arg "fifo: width must be >= 2";
  let sname = match style with `Sop -> "s" | `Mux -> "m" in
  let c =
    Circuit.create
      (Printf.sprintf "fifo%dx%d%s%s" entries width sname
         (if bug then "_bug" else ""))
  in
  let din = Array.init width (fun i -> Circuit.add_input c (Printf.sprintf "din%d" i)) in
  let write = Circuit.add_input c "write" in
  let read = Circuit.add_input c "read" in
  let wp = Array.init pb (fun i -> Circuit.declare c ~name:(Printf.sprintf "wp%d" i) ()) in
  let rp = Array.init pb (fun i -> Circuit.declare c ~name:(Printf.sprintf "rp%d" i) ()) in
  let combine = match style with `Sop -> gate_tree | `Mux -> gate_chain in
  (* eq(ptr, e) over the style's association order *)
  let eq_const ptr e =
    combine c And
      (List.init pb (fun i ->
           if (e lsr i) land 1 = 1 then ptr.(i)
           else Circuit.add_gate c Not [ ptr.(i) ]))
  in
  (* ptr + 1 (wraps): shared ripple increment; the interesting structural
     divergence lives in the decode and the read port *)
  let increment ptr =
    let carry = ref (Circuit.const_true c) in
    Array.init pb (fun i ->
        let s = Circuit.add_gate c Xor [ ptr.(i); !carry ] in
        carry := Circuit.add_gate c And [ ptr.(i); !carry ];
        s)
  in
  let advance ptr en =
    let inc = increment ptr in
    Array.iteri
      (fun i p -> Circuit.set_latch c p ~data:(Circuit.add_gate c Mux [ en; inc.(i); p ]) ())
      ptr
  in
  advance wp write;
  advance rp read;
  (* data array: hold-mux registers, write-decoded from wptr *)
  let we = Array.init entries (fun e -> Circuit.add_gate c And [ write; eq_const wp e ]) in
  let regs =
    Array.init entries (fun e ->
        Array.init width (fun w ->
            let q = Circuit.declare c ~name:(Printf.sprintf "r%d_%d" e w) () in
            let d =
              if bug && e = 0 && w = 0 then din.(1)
              else if bug && e = 0 && w = 1 then din.(0)
              else din.(w)
            in
            Circuit.set_latch c q ~data:(Circuit.add_gate c Mux [ we.(e); d; q ]) ();
            q))
  in
  (* read port *)
  (match style with
  | `Sop ->
      let re = Array.init entries (fun e -> eq_const rp e) in
      for w = 0 to width - 1 do
        Circuit.mark_output c
          (gate_tree c Or
             (List.init entries (fun e ->
                  Circuit.add_gate c And [ re.(e); regs.(e).(w) ])))
      done
  | `Mux ->
      for w = 0 to width - 1 do
        (* binary mux tree: bit k of rptr selects between halves of 2^(k+1)
           consecutive entries *)
        let rec sel base len =
          if len = 1 then regs.(base).(w)
          else
            let half = len / 2 in
            let bit = log2_exact "fifo mux level" len - 1 in
            Circuit.add_gate c Mux
              [ rp.(bit); sel (base + half) half; sel base half ]
        in
        Circuit.mark_output c (sel 0 entries)
      done);
  (* empty flag: pointer equality, folded in the style's order *)
  Circuit.mark_output c
    (combine c And
       (List.init pb (fun i -> Circuit.add_gate c Xnor [ wp.(i); rp.(i) ])));
  Circuit.check c;
  c

(* Wide lane-parallel ALU pipeline: [lanes] independent [width]-bit
   datapaths, [stages] register stages deep — [lanes*width*stages]
   flip-flops with {e block-local} mixing only, so the unrolled output
   cones split exactly per lane and the partitioned checker gets [lanes]
   disjoint clusters.  Each stage adds the lane value to its own
   rotation and XOR-mixes another rotation in; the adder is the style
   point:

   - [`Ripple]: plain ripple-carry chain;
   - [`Select]: carry-select — low half ripple, high half computed for
     both carry-ins and 2:1-muxed on the low carry.

   The pipeline is acyclic (no exposure needed); CBF unrolls it to depth
   [stages].  [~bug] inverts one sum bit in lane 0's last stage. *)
let lane_alu ?(bug = false) ~lanes ~width ~stages ~style () =
  if width < 4 || width land 1 <> 0 then
    invalid_arg "lane_alu: width must be even and >= 4";
  if lanes < 1 || stages < 1 then invalid_arg "lane_alu: lanes/stages >= 1";
  let sname = match style with `Ripple -> "r" | `Select -> "s" in
  let c =
    Circuit.create
      (Printf.sprintf "alu%dx%dx%d%s%s" lanes width stages sname
         (if bug then "_bug" else ""))
  in
  let din = Array.init width (fun i -> Circuit.add_input c (Printf.sprintf "din%d" i)) in
  let full_adder a b cin =
    let axb = Circuit.add_gate c Xor [ a; b ] in
    let s = Circuit.add_gate c Xor [ axb; cin ] in
    let cout =
      Circuit.add_gate c Or
        [ Circuit.add_gate c And [ a; b ]; Circuit.add_gate c And [ axb; cin ] ]
    in
    (s, cout)
  in
  let ripple a b cin =
    let carry = ref cin in
    Array.init width (fun i ->
        let s, cout = full_adder a.(i) b.(i) !carry in
        carry := cout;
        s)
  in
  let adder a b =
    match style with
    | `Ripple -> ripple a b (Circuit.const_false c)
    | `Select ->
        (* low half ripple; high half twice (cin 0 and 1), selected *)
        let half = width / 2 in
        let carry = ref (Circuit.const_false c) in
        let low =
          Array.init half (fun i ->
              let s, cout = full_adder a.(i) b.(i) !carry in
              carry := cout;
              s)
        in
        let hi cin =
          let carry = ref cin in
          Array.init half (fun i ->
              let s, cout = full_adder a.(half + i) b.(half + i) !carry in
              carry := cout;
              s)
        in
        let h0 = hi (Circuit.const_false c) and h1 = hi (Circuit.const_true c) in
        Array.init width (fun i ->
            if i < half then low.(i)
            else
              Circuit.add_gate c Mux
                [ !carry; h1.(i - half); h0.(i - half) ])
  in
  let lane_bits =
    let rec go b = if 1 lsl b >= lanes then b else go (b + 1) in
    go 1
  in
  for lane = 0 to lanes - 1 do
    (* Lane-distinct seeding of the shared inputs: each lane inverts the
       bit positions of its own index (repeated across the width), so no
       two lanes compute the same function — structural hashing would
       otherwise collapse identical lanes into one shared cone. *)
    let bus =
      ref
        (Array.init width (fun i ->
             if (lane lsr (i mod lane_bits)) land 1 = 1 then
               Circuit.add_gate c Not [ din.(i) ]
             else din.(i)))
    in
    for stage = 0 to stages - 1 do
      let b = !bus in
      let rot k i = b.((i + k) mod width) in
      let sum = adder b (Array.init width (rot 1)) in
      let mixed =
        Array.init width (fun i ->
            let u = Circuit.add_gate c Xor [ sum.(i); rot 2 i ] in
            if bug && lane = 0 && stage = stages - 1 && i = 0 then
              Circuit.add_gate c Not [ u ]
            else u)
      in
      bus := Array.map (fun d -> Circuit.add_latch c ~data:d ()) mixed
    done;
    Array.iter (fun q -> Circuit.mark_output c q) !bus
  done;
  Circuit.check c;
  c

(* ---- suites ---- *)

(* (name, latches, percent exposed, gate scale) from Table 1; the minmax
   rows are generated structurally. *)
let table1_params =
  [
    ("prolog", 65, 43, 6);
    ("s1196", 18, 0, 8);
    ("s1238", 18, 0, 8);
    ("s1269", 37, 75, 7);
    ("s1423", 74, 95, 7);
    ("s3271", 116, 94, 6);
    ("s3384", 183, 39, 6);
    ("s400", 21, 71, 6);
    ("s444", 21, 71, 6);
    ("s4863", 88, 18, 6);
    ("s641", 19, 78, 7);
    ("s6669", 231, 17, 5);
    ("s713", 19, 78, 7);
    ("s9234", 135, 66, 5);
    ("s953", 29, 20, 7);
    ("s967", 29, 20, 7);
    ("s3330", 65, 43, 6);
    ("s15850", 515, 72, 3);
    ("s38417", 1464, 70, 3);
  ]

let table1_gen (name, latches, percent, scale) =
  let self_loops = latches * percent / 100 in
  let seed = Hashtbl.hash name in
  fsm_datapath ~name ~latches ~self_loops ~gates:(scale * latches)
    ~width:(8 + (latches / 64)) ~seed

let table1_suite () =
  let minmaxes = List.map (fun w -> minmax ~width:w) [ 10; 12; 20; 32 ] in
  List.map (fun c -> (Circuit.name c, c)) minmaxes
  @ List.map (fun p -> (let n, _, _, _ = p in n), table1_gen p) table1_params

let table1_suite_small () =
  List.filter (fun (_, c) -> Circuit.latch_count c <= 120) (table1_suite ())

(* (name, latches, exposed) from Table 2 *)
let table2_params =
  [
    ("ex1", 2157, 934);
    ("ex2", 160, 16);
    ("ex3", 146, 56);
    ("ex4", 1437, 835);
    ("ex5", 672, 305);
    ("ex6", 412, 250);
    ("ex7", 453, 81);
    ("ex8", 968, 470);
    ("ex9", 783, 15);
    ("ex10", 634, 174);
    ("ex11", 792, 369);
    ("ex12", 2206, 691);
  ]

let table2_suite () =
  List.map
    (fun (name, latches, exposed) ->
      ( name,
        industrial ~name ~latches ~exposed ~unate_fraction:0.5 ~enable_fraction:0.35
          ~seed:(Hashtbl.hash name) ))
    table2_params

(* (name, width, stages, seed); the first is small enough for the
   differential against the test oracles *)
let retime_params =
  [
    ("deep_w4x64", 4, 64, 11);
    ("deep_w6x120", 6, 120, 12);
    ("deep_w8x160", 8, 160, 13);
    ("deep_w8x300", 8, 300, 14);
  ]

let retime_suite () =
  List.map
    (fun (name, width, stages, seed) ->
      (name, deep_datapath ~name ~width ~stages ~seed))
    retime_params

(* ---- hierarchical designs (the hier suite) ---- *)

(* Wrap a generator circuit as a hier leaf: its inputs become the module
   ports, its outputs the module outputs, no instances. *)
let leaf_module name c =
  {
    Hier.mod_name = name;
    glue = c;
    ports_in = List.map (Circuit.signal_name c) (Circuit.inputs c);
    out_count = List.length (Circuit.outputs c);
    instances = [];
  }

(* Parent glue circuits below all follow one discipline: besides the
   mixed/combined outputs they expose a {e direct spine} — instance
   outputs passed through (or registered) unmixed — so a corrupted leaf
   is never masked by a self-cancelling combine (xor of two identically
   broken instances of one module cancels; a pass-through never does)
   and the flat reference check agrees with the compositional verdict on
   every broken mutant. *)

(* Two qsmall banks behind a write-select, read through a registered
   last-select mux. *)
let build_qpair qsmall =
  let b = Hier.Build.create "qpair" in
  let g = Hier.Build.glue b in
  let d = List.init 4 (fun i -> Hier.Build.input b (Printf.sprintf "d%d" i)) in
  let w = Hier.Build.input b "w" in
  let r = Hier.Build.input b "r" in
  let sel = Hier.Build.input b "sel" in
  let w0 = Circuit.add_gate g And [ w; sel ] in
  let w1 = Circuit.add_gate g And [ w; Circuit.add_gate g Not [ sel ] ] in
  let q0 = Hier.Build.inst b ~name:"q0" ~child:qsmall ~inputs:(d @ [ w0; r ]) in
  let rot = match d with x :: tl -> tl @ [ x ] | [] -> assert false in
  let q1 = Hier.Build.inst b ~name:"q1" ~child:qsmall ~inputs:(rot @ [ w1; r ]) in
  let psel = Circuit.declare g ~name:"psel" () in
  Circuit.set_latch g psel ~data:sel ();
  List.iter2
    (fun a z -> Hier.Build.output b (Circuit.add_gate g Mux [ psel; a; z ]))
    q0 q1;
  List.iter (Hier.Build.output b) q0;
  Hier.Build.finish b

(* A qwide stream cross-checked against a qsmall fed xor-mixed data. *)
let build_qmix qsmall qwide =
  let b = Hier.Build.create "qmix" in
  let g = Hier.Build.glue b in
  let e = List.init 6 (fun i -> Hier.Build.input b (Printf.sprintf "e%d" i)) in
  let w = Hier.Build.input b "w" in
  let r = Hier.Build.input b "r" in
  let qw = Hier.Build.inst b ~name:"qw" ~child:qwide ~inputs:(e @ [ w; r ]) in
  let ea = Array.of_list e in
  let mixed =
    List.init 4 (fun k -> Circuit.add_gate g Xor [ ea.(k); ea.(k + 2) ])
  in
  let qs = Hier.Build.inst b ~name:"qs" ~child:qsmall ~inputs:(mixed @ [ w; r ]) in
  let qwa = Array.of_list qw and qsa = Array.of_list qs in
  for k = 0 to 3 do
    Hier.Build.output b (Circuit.add_gate g Xor [ qwa.(k); qsa.(k) ])
  done;
  Hier.Build.output b (Circuit.add_gate g And [ qwa.(6); qsa.(4) ]);
  List.iter (Hier.Build.output b) qw;
  List.iter (Hier.Build.output b) qs;
  Hier.Build.finish b

let build_hfifo_top qpair qmix =
  let b = Hier.Build.create "hfifo_top" in
  let g = Hier.Build.glue b in
  let i = List.init 6 (fun k -> Hier.Build.input b (Printf.sprintf "i%d" k)) in
  let w = Hier.Build.input b "w" in
  let r = Hier.Build.input b "r" in
  let sel = Hier.Build.input b "sel" in
  let ia = Array.of_list i in
  let p =
    Hier.Build.inst b ~name:"p" ~child:qpair
      ~inputs:[ ia.(0); ia.(1); ia.(2); ia.(3); w; r; sel ]
  in
  let m = Hier.Build.inst b ~name:"m" ~child:qmix ~inputs:(i @ [ w; r ]) in
  let pa = Array.of_list p and ma = Array.of_list m in
  (* one self-feedback register in the top glue, so the hierarchy's own
     state participates in the exposure cut too *)
  let st = Circuit.declare g ~name:"st" () in
  Circuit.set_latch g st ~data:(Circuit.add_gate g Xor [ st; pa.(0) ]) ();
  Hier.Build.output b st;
  List.iter (Hier.Build.output b) p;
  List.iter (Hier.Build.output b) m;
  for k = 0 to 4 do
    Hier.Build.output b (Circuit.add_gate g Xor [ pa.(k); ma.(k) ])
  done;
  Hier.Build.finish b

(* FIFO-of-queues: qsmall/qwide leaves (the large tier's fifo generator,
   downsized), a banked pair, a mixer, and a stateful top — 5 modules,
   3 levels.  [style] picks the leaf read-port structure; [glue_seed]
   additionally resynthesizes every parent glue, so the two sides of a
   pair differ at {e every} level of the hierarchy. *)
let hfifo_design ~design_name ~style ~glue_seed =
  let qsmall = leaf_module "qsmall" (fifo ~entries:4 ~width:4 ~style ()) in
  let qwide = leaf_module "qwide" (fifo ~entries:4 ~width:6 ~style ()) in
  let qpair = build_qpair qsmall in
  let qmix = build_qmix qsmall qwide in
  let top = build_hfifo_top qpair qmix in
  let d =
    Hier.make_design ~name:design_name ~top:"hfifo_top"
      [ qsmall; qwide; qpair; qmix; top ]
  in
  match glue_seed with
  | None -> d
  | Some seed ->
      List.fold_left
        (fun d n -> Hier.map_module d ~name:n ~f:(Hier.resynthesize ~seed))
        d
        [ "qpair"; "qmix"; "hfifo_top" ]

let build_alane alu_x alu_y =
  let b = Hier.Build.create "alane" in
  let g = Hier.Build.glue b in
  let a = List.init 6 (fun k -> Hier.Build.input b (Printf.sprintf "a%d" k)) in
  let aa = Array.of_list a in
  let x =
    Hier.Build.inst b ~name:"x" ~child:alu_x
      ~inputs:[ aa.(0); aa.(1); aa.(2); aa.(3) ]
  in
  let y = Hier.Build.inst b ~name:"y" ~child:alu_y ~inputs:a in
  let xa = Array.of_list x and ya = Array.of_list y in
  let acc = Circuit.declare g ~name:"acc" () in
  Circuit.set_latch g acc ~data:(Circuit.add_gate g Xor [ acc; xa.(0) ]) ();
  Hier.Build.output b acc;
  List.iter (Hier.Build.output b) x;
  List.iter (Hier.Build.output b) y;
  for k = 0 to 5 do
    Hier.Build.output b (Circuit.add_gate g Xor [ xa.(k); ya.(k) ])
  done;
  Hier.Build.finish b

let build_halu_top alane =
  let b = Hier.Build.create "halu_top" in
  let g = Hier.Build.glue b in
  let t = List.init 6 (fun k -> Hier.Build.input b (Printf.sprintf "t%d" k)) in
  let rot = match t with x :: tl -> tl @ [ x ] | [] -> assert false in
  let u = Hier.Build.inst b ~name:"u" ~child:alane ~inputs:t in
  let v = Hier.Build.inst b ~name:"v" ~child:alane ~inputs:rot in
  let ua = Array.of_list u and va = Array.of_list v in
  List.iter (Hier.Build.output b) u;
  for k = 0 to List.length u - 1 do
    Hier.Build.output b (Circuit.add_gate g Xor [ ua.(k); va.(k) ])
  done;
  Hier.Build.finish b

(* Lane-ALU cluster: two lane_alu leaves under a cross-checking lane
   module instantiated twice (rotated inputs) by the top — 4 modules,
   3 levels, with a module ("alane") that is multiply instantiated.
   [bug] breaks the aluX leaf (lane_alu's intentional sum-bit bug). *)
let halu_design ~design_name ~style ~bug ~glue_seed =
  let alu_x =
    leaf_module "aluX" (lane_alu ~bug ~lanes:2 ~width:4 ~stages:2 ~style ())
  in
  let alu_y = leaf_module "aluY" (lane_alu ~lanes:1 ~width:6 ~stages:2 ~style ()) in
  let alane = build_alane alu_x alu_y in
  let top = build_halu_top alane in
  let d =
    Hier.make_design ~name:design_name ~top:"halu_top"
      [ alu_x; alu_y; alane; top ]
  in
  match glue_seed with
  | None -> d
  | Some seed ->
      List.fold_left
        (fun d n -> Hier.map_module d ~name:n ~f:(Hier.resynthesize ~seed))
        d [ "alane"; "halu_top" ]

let hier_suite () =
  let hfifo_a = hfifo_design ~design_name:"hfifo_a" ~style:`Sop ~glue_seed:None in
  let hfifo_b =
    hfifo_design ~design_name:"hfifo_b" ~style:`Mux ~glue_seed:(Some 7)
  in
  let halu_a =
    halu_design ~design_name:"halu_a" ~style:`Ripple ~bug:false ~glue_seed:None
  in
  let halu_b =
    halu_design ~design_name:"halu_b" ~style:`Select ~bug:false
      ~glue_seed:(Some 9)
  in
  let hfifo_mut =
    {
      (Hier.map_module hfifo_b ~name:"qwide" ~f:(Hier.break_output ~output:0)) with
      Hier.design_name = "hfifo_mut_b";
    }
  in
  let halu_mut =
    halu_design ~design_name:"halu_mut_b" ~style:`Select ~bug:true
      ~glue_seed:(Some 9)
  in
  [
    ("hfifo", hfifo_a, hfifo_b, `Eq);
    ("halu", halu_a, halu_b, `Eq);
    ("hfifo_mut", hfifo_a, hfifo_mut, `Neq "qwide");
    ("halu_mut", halu_a, halu_mut, `Neq "aluX");
  ]

(* ---- the name registry ---- *)

(* Every circuit any suite can produce, as (name, thunk): lookups build
   only the named circuit, never a whole suite.  Hier designs register
   their flattened sides under the design name, so a server check request
   can name them like any flat workload. *)
let registry () =
  let entries = ref [] in
  let seen = Hashtbl.create 64 in
  let add n th =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      entries := (n, th) :: !entries
    end
  in
  List.iter
    (fun w -> add (Printf.sprintf "minmax%d" w) (fun () -> minmax ~width:w))
    [ 10; 12; 20; 32 ];
  List.iter
    (fun p ->
      let n, _, _, _ = p in
      add n (fun () -> table1_gen p))
    table1_params;
  List.iter
    (fun (name, latches, exposed) ->
      add name (fun () ->
          industrial ~name ~latches ~exposed ~unate_fraction:0.5
            ~enable_fraction:0.35 ~seed:(Hashtbl.hash name)))
    table2_params;
  List.iter
    (fun (name, width, stages, seed) ->
      add name (fun () -> deep_datapath ~name ~width ~stages ~seed))
    retime_params;
  (* large-tier circuits go by their own Circuit.name (the pair name plus
     a style suffix, e.g. "fifo64x16s"), the mutant side by its _bug name;
     every pair is sized past the adaptive layout's cost threshold, so an
     unforced check of a fifo pair runs partitioned at every jobs level
     (the ALU pairs have 8 inputs and are enumerated in one piece) *)
  List.iter
    (fun (entries, width) ->
      add
        (Printf.sprintf "fifo%dx%ds" entries width)
        (fun () -> fifo ~entries ~width ~style:`Sop ());
      add
        (Printf.sprintf "fifo%dx%dm" entries width)
        (fun () -> fifo ~entries ~width ~style:`Mux ()))
    [ (64, 16); (128, 8) ];
  List.iter
    (fun (lanes, width, stages) ->
      add
        (Printf.sprintf "alu%dx%dx%dr" lanes width stages)
        (fun () -> lane_alu ~lanes ~width ~stages ~style:`Ripple ());
      add
        (Printf.sprintf "alu%dx%dx%ds" lanes width stages)
        (fun () -> lane_alu ~lanes ~width ~stages ~style:`Select ()))
    [ (8, 8, 4); (64, 8, 4) ];
  add "fifo64x16m_bug" (fun () ->
      fifo ~entries:64 ~width:16 ~style:`Mux ~bug:true ());
  List.iter
    (fun (_, l, r, _) ->
      add l.Hier.design_name (fun () -> Hier.flatten l);
      add r.Hier.design_name (fun () -> Hier.flatten r))
    (hier_suite ());
  List.rev !entries

let names () = List.map fst (registry ())

let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggestions n =
  let cutoff = max 2 (String.length n / 3) in
  names ()
  |> List.filter_map (fun m ->
         let d = levenshtein n m in
         if d <= cutoff then Some (d, m) else None)
  |> List.sort compare
  |> List.filteri (fun i _ -> i < 5)
  |> List.map snd

let lookup n =
  match List.assoc_opt n (registry ()) with
  | Some th -> Ok (th ())
  | None ->
      Error
        (Printf.sprintf "unknown circuit %S%s" n
           (match suggestions n with
           | [] -> ""
           | near -> Printf.sprintf "; did you mean %s?" (String.concat ", " near)))

let by_name n = match lookup n with Ok c -> c | Error _ -> raise Not_found
