let () =
  (* tests that drive a Workers pool directly make THIS binary the
     worker host: the guard must run before alcotest takes over *)
  Tm_serve.Workers.maybe_worker_main ();
  Alcotest.run "timed_mappings"
    [
      ("rational", Test_rational.suite);
      ("time", Test_time.suite);
      ("interval", Test_interval.suite);
      ("prng", Test_prng.suite);
      ("hstore", Test_hstore.suite);
      ("ioa", Test_ioa.suite);
      ("explore", Test_explore.suite);
      ("execution", Test_execution.suite);
      ("compose", Test_compose.suite);
      ("boundmap", Test_boundmap.suite);
      ("tseq", Test_tseq.suite);
      ("condition", Test_condition.suite);
      ("semantics", Test_semantics.suite);
      ("tstate", Test_tstate.suite);
      ("time_automaton", Test_time_automaton.suite);
      ("tgraph", Test_tgraph.suite);
      ("mapping", Test_mapping.suite);
      ("dummify", Test_dummify.suite);
      ("hierarchy", Test_hierarchy.suite);
      ("completeness", Test_completeness.suite);
      ("sim", Test_sim.suite);
      ("dbm", Test_dbm.suite);
      ("dbm_diff", Test_dbm_diff.suite);
      ("dbm_min", Test_dbm_min.suite);
      ("reach", Test_reach.suite);
      ("faults", Test_faults.suite);
      ("oracle", Test_oracle.suite);
      ("resource_manager", Test_resource_manager.suite);
      ("interrupt_manager", Test_interrupt_manager.suite);
      ("signal_relay", Test_signal_relay.suite);
      ("fischer", Test_fischer.suite);
      ("request_grant", Test_request_grant.suite);
      ("two_stage", Test_two_stage.suite);
      ("token_ring", Test_token_ring.suite);
      ("failure_detector", Test_failure_detector.suite);
      ("region", Test_region.suite);
      ("progress", Test_progress.suite);
      ("refinement", Test_refinement.suite);
      ("timed_compose", Test_timed_compose.suite);
      ("normalize", Test_normalize.suite);
      ("measure", Test_measure.suite);
      ("trace_io", Test_trace_io.suite);
      ("obs", Test_obs.suite);
      ("telemetry", Test_telemetry.suite);
      ("par", Test_par.suite);
      ("recover", Test_recover.suite);
      ("serve", Test_serve.suite);
      ("catalog", Test_catalog.suite);
    ]
