let () =
  Alcotest.run "seqver"
    [
      ("vgraph", Test_vgraph.suite);
      ("sjson", Test_sjson.suite);
      ("obs", Test_obs.suite);
      ("par", Test_par.suite);
      ("bdd", Test_bdd.suite);
      ("sat", Test_sat.suite);
      ("circuit", Test_circuit.suite);
      ("blif", Test_blif.suite);
      ("aig", Test_aig.suite);
      ("sim", Test_sim.suite);
      ("cec", Test_cec.suite);
      ("layout", Test_layout.suite);
      ("synth", Test_synth.suite);
      ("retiming", Test_retiming.suite);
      ("seqprob", Test_seqprob.suite);
      ("cbf", Test_cbf.suite);
      ("edbf", Test_edbf.suite);
      ("feedback", Test_feedback.suite);
      ("verify", Test_verify.suite);
      ("flow", Test_flow.suite);
      ("workloads", Test_workloads.suite);
      ("seqbdd", Test_seqbdd.suite);
      ("properties", Test_properties.suite);
      ("store", Test_store.suite);
      ("hier", Test_hier.suite);
      ("server", Test_server.suite);
      ("integration", Test_integration.suite);
      ("edge-cases", Test_edge_cases.suite);
    ]
