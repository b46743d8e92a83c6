type report = {
  period_before : int;
  period_after : int;
  latches_before : int;
  latches_after : int;
}

type error = Infeasible_period

let finish g c r =
  let nc = Rgraph.apply g ~r in
  let report =
    {
      period_before = Circuit.delay c;
      period_after = Circuit.delay nc;
      latches_before = Circuit.latch_count c;
      latches_after = Circuit.latch_count nc;
    }
  in
  (nc, report)

let min_period ?exposed ?pool:_ c =
  Obs.span ~name:"retime.min_period" @@ fun () ->
  let g = Rgraph.build ?exposed c in
  let period, _ = Feas.min_period g in
  (* among the min-period retimings, take a latch-minimal one; the period
     is feasible by construction, so solve cannot return None *)
  match Minarea.solve ~period g with
  | Some r -> finish g c r
  | None -> assert false

let constrained_min_area ?exposed ?pool:_ ~period c =
  Obs.span ~name:"retime.constrained_min_area" @@ fun () ->
  let g = Rgraph.build ?exposed c in
  match Minarea.solve ~period g with
  | Some r -> Ok (finish g c r)
  | None -> Error Infeasible_period

let min_area ?exposed c =
  Obs.span ~name:"retime.min_area" @@ fun () ->
  let g = Rgraph.build ?exposed c in
  match Minarea.solve g with Some r -> finish g c r | None -> assert false
