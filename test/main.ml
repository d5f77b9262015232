let () =
  Alcotest.run "ultraspan"
    [
      ("util", Test_util.suite);
      ("parallel", Test_parallel.suite);
      ("metrics", Test_metrics.suite);
      ("graph", Test_graph.suite);
      ("congest", Test_congest.suite);
      ("engine-diff", Test_engine_diff.suite);
      ("trace", Test_trace.suite);
      ("decomp", Test_decomp.suite);
      ("spanner", Test_spanner.suite);
      ("certificate", Test_certificate.suite);
      ("verify", Test_verify.suite);
      ("resilience", Test_resilience.suite);
      ("dynamic", Test_dynamic.suite);
      ("extensions", Test_extensions.suite);
      ("bs-dist", Test_bs_distributed.suite);
      ("misc", Test_misc.suite);
      ("artifacts", Test_artifacts.suite);
      ("oracle", Test_oracle.suite);
      ("integration", Test_integration.suite);
    ]
