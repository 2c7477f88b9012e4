let () =
  Alcotest.run "marion"
    [
      ("maril", Test_maril.suite);
      ("cfront", Test_cfront.suite);
      ("glue", Test_glue.suite);
      ("select", Test_select.suite);
      ("regalloc", Test_regalloc.suite);
      ("sched", Test_sched.suite);
      ("frame", Test_frame.suite);
      ("sim", Test_sim.suite);
      ("strategy", Test_strategy.suite);
      ("pass", Test_pass.suite);
      ("cache", Test_cache.suite);
      ("robust", Test_robust.suite);
      ("check", Test_check.suite);
      ("transval", Test_transval.suite);
      ("checkers", Test_checkers.suite);
      ("targets", Test_targets.suite);
      ("e2e", Test_e2e.suite);
      ("props", Test_props.suite);
      ("timing", Test_timing.suite);
      ("analysis", Test_analysis.suite);
    ]
