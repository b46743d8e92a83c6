(* Tracing: run the full Table-1 pipeline on one circuit with the Obs sink
   enabled, write a Chrome trace (load it at https://ui.perfetto.dev or in
   chrome://tracing) and print the span-tree summary on stdout.

   Run with: dune exec examples/tracing.exe *)

let () =
  let circuit = Workloads.by_name "s953" in

  (* Everything emitted after [enable] is buffered per domain; with the
     sink disabled (the default) each instrumentation site costs a single
     atomic load, so libraries stay instrumented in production. *)
  Obs.enable ();

  (match Flow.run ~jobs:2 ~limits:Cec.default_limits circuit with
  | Error d -> failwith (Seqprob.diagnosis_to_string d)
  | Ok row ->
      Format.printf "%s: verdict %s, verify %.3fs@." row.Flow.name
        (match row.Flow.verify_verdict with
        | Verify.Equivalent -> "EQUIVALENT"
        | Verify.Inequivalent _ -> "NOT EQUIVALENT"
        | Verify.Undecided r -> "UNDECIDED (" ^ r ^ ")")
        row.Flow.verify_stats.Verify.seconds;
      (* per-stage wall clock straight off the row — no sink needed *)
      List.iter
        (fun (stage, dt) -> Format.printf "  stage %-7s %.3fs@." stage dt)
        row.Flow.stage_seconds);

  (* one merged, time-sorted event list; each sink renders the same list *)
  let events = Obs.collect () in

  let oc = open_out "trace.json" in
  Obs.Chrome.write oc events;
  close_out oc;
  Format.printf "@.wrote trace.json — open it at https://ui.perfetto.dev@.@.";

  Format.printf "%a@." Obs.Summary.pp events;
  Obs.disable ()
