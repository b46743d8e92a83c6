type options = { fanout_limit : int option; rewrite : bool }

let default_options = { fanout_limit = Some 4; rewrite = false }

let delay_script ?(options = default_options) c =
  let c = Sweep_pass.run c in
  let c = Rebalance.run ~rewrite:options.rewrite c in
  (* sweep before fanout limiting: the sweep collapses buffers, so it must
     not run after them *)
  let c = Sweep_pass.run c in
  match options.fanout_limit with
  | None -> c
  | Some k -> Fanout_pass.run ~max_fanout:k c

let quick_cleanup c = Sweep_pass.run c
