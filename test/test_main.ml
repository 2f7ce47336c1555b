let () =
  Alcotest.run "dilos-repro"
    [
      ("sim", Test_sim.suite);
      ("engine-model", Test_engine_model.suite);
      ("rdma", Test_rdma.suite);
      ("vmem", Test_vmem.suite);
      ("dilos", Test_dilos.suite);
      ("page-manager", Test_page_manager.suite);
      ("writeback", Test_writeback.suite);
      ("prefetcher", Test_prefetcher.suite);
      ("fastswap", Test_fastswap.suite);
      ("aifm", Test_aifm.suite);
      ("apps", Test_apps.suite);
      ("redis", Test_redis.suite);
      ("workload", Test_workload.suite);
      ("serving", Test_serving.suite);
      ("misc", Test_misc.suite);
      ("units", Test_units.suite);
      ("vmem-model", Test_vmem_model.suite);
      ("faults", Test_faults.suite);
      ("replication", Test_replication.suite);
      ("drill", Test_drill.suite);
      ("soak", Test_soak.suite);
      ("trace", Test_trace.suite);
      ("bigbuf-extent", Test_bigbuf_extent.suite);
      ("obs", Test_obs.suite);
      ("lint", Test_lint.suite);
      ("determinism", Test_determinism.suite);
    ]
