(* Strategy tests: the four code generation strategies produce correct
   code with the expected relative compile costs and code quality. *)

let check = Alcotest.check

let r2000 = lazy (R2000.load ())

let pressure_src =
  {|double x[64]; double y[64]; double z[64];
    int main(void) {
      int i; double s = 0.0;
      for (i = 0; i < 64; i++) { x[i] = (double)i * 0.5; y[i] = (double)i * 0.25; }
      for (i = 0; i < 64; i++) z[i] = x[i] * y[i] + x[i] + y[i] * 2.0 + 1.5;
      for (i = 0; i < 64; i++) s = s + z[i];
      print_double(s);
      return 0;
    }|}

let run_strategy strat =
  let m = Lazy.force r2000 in
  Marion.compile_and_run m strat ~file:"<p.c>" pressure_src

let test_all_strategies_correct () =
  let oracle = Marion.interpret ~file:"<p.c>" pressure_src in
  List.iter
    (fun strat ->
      let r = run_strategy strat in
      check Alcotest.string
        (Strategy.to_string strat ^ " output")
        oracle.Cinterp.output r.Marion.sim.Sim.output)
    Strategy.all

let test_quality_ordering () =
  (* scheduled strategies beat the local-only baseline; IPS/RASE at least
     match Postpass on this FP-heavy code *)
  let cycles strat = (run_strategy strat).Marion.sim.Sim.cycles in
  let n = cycles Strategy.Naive in
  let p = cycles Strategy.Postpass in
  let i = cycles Strategy.Ips in
  let r = cycles Strategy.Rase in
  check Alcotest.bool "postpass beats naive" true (p < n);
  check Alcotest.bool "ips at least matches postpass" true (i <= p);
  check Alcotest.bool "rase at least matches postpass" true (r <= p)

let test_schedule_pass_counts () =
  (* paper 2: Postpass schedules once, IPS twice, RASE many times *)
  let report strat = (run_strategy strat).Marion.compiled.Marion.report in
  let p = (report Strategy.Postpass).Strategy.schedule_passes in
  let i = (report Strategy.Ips).Strategy.schedule_passes in
  let r = (report Strategy.Rase).Strategy.schedule_passes in
  check Alcotest.bool "ips schedules more than postpass" true (i > p);
  check Alcotest.bool "rase schedules much more than ips" true (r > i)

let test_estimates_populated () =
  let r = run_strategy Strategy.Postpass in
  check Alcotest.bool "block estimates recorded" true
    (Hashtbl.length r.Marion.compiled.Marion.report.Strategy.block_estimates > 0)

let test_naive_is_local_only () =
  (* the naive baseline spills every cross-block value *)
  let r = run_strategy Strategy.Naive in
  check Alcotest.bool "naive spills globals" true
    (r.Marion.compiled.Marion.report.Strategy.spilled > 0)

let test_strategy_names () =
  List.iter
    (fun s ->
      check Alcotest.bool "round trip" true
        (Strategy.of_string (Strategy.to_string s) = Some s))
    Strategy.all;
  check Alcotest.bool "unknown" true (Strategy.of_string "wombat" = None)

(* The final schedule pass records the block estimates (Table 4's
   estimated side). The reference is the separate estimate pass that
   pass replaced: list-schedule the pipeline's output again, through a
   disambiguation oracle solved on that code when [disambig] is on.
   Cells that do not compile are left out: toyp cannot color a spill
   temporary of poly under IPS and RASE, and m88000 has no branch
   pattern for lfk14's f64 compare. *)
let uncompilable target program strat =
  match (target, program, strat) with
  | "toyp", "poly", (Strategy.Ips | Strategy.Rase) -> true
  | "m88000", "lfk14", _ -> true
  | _ -> false

let test_schedule_records_estimates () =
  let targets =
    [
      ("toyp", Toyp.load ());
      ("r2000", R2000.load ());
      ("m88000", M88000.load ());
      ("i860", I860.load ());
    ]
  in
  let programs =
    List.init 14 (fun k ->
        (Printf.sprintf "lfk%d" (k + 1), Livermore.source (k + 1)))
    @ Suite.programs
  in
  let estimates = Alcotest.(list (pair string int)) in
  List.iter
    (fun (target, model) ->
      List.iter
        (fun (program, src) ->
          List.iter
            (fun strat ->
              if not (uncompilable target program strat) then
                List.iter
                  (fun disambig ->
                    let ir = Cgen.compile ~file:program src in
                    List.iter (Glue.transform_func model) ir.Ir.funcs;
                    let passes =
                      List.filter
                        (fun (p : Pass.t) -> p.Pass.name <> "frame-layout")
                        (Strategy.pipeline ~disambig strat)
                    in
                    List.iter
                      (fun irfn ->
                        let fn = Select.select_func model irfn in
                        let st = Pass.run_pipeline passes fn in
                        let oracle =
                          if disambig then
                            Some
                              (Dag.oracle
                                 (Disambig.may_alias (Disambig.compute fn)))
                          else None
                        in
                        check estimates
                          (Printf.sprintf "%s %s %s disambig=%b %s" target
                             program (Strategy.to_string strat) disambig
                             fn.Mir.f_name)
                          (Listsched.estimate_func ?oracle fn)
                          st.Pass.estimates)
                      ir.Ir.funcs)
                  [ true; false ])
            [ Strategy.Postpass; Strategy.Ips; Strategy.Rase ])
        programs)
    targets

let suite =
  [
    Alcotest.test_case "all strategies correct" `Quick test_all_strategies_correct;
    Alcotest.test_case "quality ordering" `Quick test_quality_ordering;
    Alcotest.test_case "schedule pass counts" `Quick test_schedule_pass_counts;
    Alcotest.test_case "estimates populated" `Quick test_estimates_populated;
    Alcotest.test_case "naive spills globals" `Quick test_naive_is_local_only;
    Alcotest.test_case "strategy names" `Quick test_strategy_names;
    Alcotest.test_case "schedule records the estimate pass's lengths" `Slow
      test_schedule_records_estimates;
  ]
