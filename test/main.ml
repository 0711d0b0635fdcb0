let () =
  Alcotest.run "mirror"
    (T_nvm.suite @ T_schedsim.suite @ T_linearize.suite @ T_patomic.suite
   @ T_ebr.suite @ T_workload.suite @ T_sets.suite @ T_handmade.suite
   @ T_durable.suite @ T_nvmheap.suite @ T_queue_stack.suite @ T_bst.suite
   @ T_prim.suite @ T_recovery.suite @ T_buggy.suite @ T_pqueue.suite @ T_txmap.suite @ T_composite.suite @ T_stats.suite @ T_range.suite
   @ T_more_dstruct.suite @ T_harris.suite @ T_harness.suite @ T_elision.suite
   @ T_buffered.suite @ T_mcheck.suite @ T_psan.suite @ T_recovery_par.suite
   @ T_diff_fuzz.suite @ T_line.suite @ T_slint.suite @ T_litmus.suite
   @ T_scaling.suite @ T_registration.suite)
