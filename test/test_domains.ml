(* The tests that can spawn worker domains, in a process of their own
   (see test/dune). *)
let () =
  Alcotest.run "dfv-domains"
    [ ("par", Test_par.domains_suite);
      ("fault-domains", Test_fault.domains_suite) ]
