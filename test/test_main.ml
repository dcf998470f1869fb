let () =
  Alcotest.run "pbca"
    [
      ("concurrent", Test_concurrent.suite);
      ("isa", Test_isa.suite);
      ("binfmt", Test_binfmt.suite);
      ("debuginfo", Test_debuginfo.suite);
      ("codegen", Test_codegen.suite);
      ("ops", Test_ops.suite);
      ("parser", Test_parser.suite);
      ("csr", Test_csr.suite);
      ("finalize", Test_finalize.suite);
      ("tools", Test_tools.suite);
      ("invariants", Test_invariants.suite);
      ("analysis", Test_analysis.suite);
      ("simsched", Test_simsched.suite);
      ("robustness", Test_robustness.suite);
      ("obs", Test_obs.suite);
      ("recovery", Test_recovery.suite);
      ("apps", Test_apps.suite);
      ("serve", Test_serve.suite);
      ("gap", Test_gap.suite);
    ]
