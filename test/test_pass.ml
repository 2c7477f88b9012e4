(* Pass-manager tests: each strategy is a declarative pipeline whose pass
   list and phase post-conditions match the pre-refactor orderings, and
   the domain-parallel driver (Strategy.compile ~jobs) produces assembly,
   reports and diagnostics bit-identical to the sequential path for every
   target x strategy over the Livermore suite. *)

let check = Alcotest.check

let targets =
  [
    ("toyp", lazy (Toyp.load ()));
    ("r2000", lazy (R2000.load ()));
    ("m88000", lazy (M88000.load ()));
    ("i860", lazy (I860.load ()));
  ]

let r2000 = List.assoc "r2000" targets

(* ------------------------------------------------------------------ *)
(* Pipeline shapes: each strategy's phase ordering                      *)
(* ------------------------------------------------------------------ *)

let shape strat =
  List.map
    (fun (p : Pass.t) ->
      (p.Pass.name, Option.fold ~none:"-" ~some:Diag.phase_name p.Pass.post))
    (Strategy.pipeline strat)

let test_pipeline_shapes () =
  let t = Alcotest.(list (pair string string)) in
  check t "naive"
    [
      ("allocate-local", "post-regalloc");
      ("fill-delay", "post-sched");
      ("estimate-inorder", "-");
      ("frame-layout", "final");
    ]
    (shape Strategy.Naive);
  check t "postpass"
    [
      ("allocate", "post-regalloc");
      ("schedule", "post-sched");
      ("frame-layout", "final");
    ]
    (shape Strategy.Postpass);
  check t "ips"
    [
      ("ips-prepass", "-");
      ("allocate", "post-regalloc");
      ("schedule", "post-sched");
      ("frame-layout", "final");
    ]
    (shape Strategy.Ips);
  check t "rase"
    [
      ("rase-sweep", "-");
      ("rase-prepass", "-");
      ("allocate", "post-regalloc");
      ("schedule", "post-sched");
      ("frame-layout", "final");
    ]
    (shape Strategy.Rase)

(* ------------------------------------------------------------------ *)
(* Determinism: ~jobs:4 and ~jobs:1 are bit-identical                   *)
(* ------------------------------------------------------------------ *)

(* several functions so the domain pool actually has units to fan out;
   integer-only and low-pressure so even toyp's tiny register file
   colors it under the naive local allocator *)
let multi_fn_src =
  {|int acc[32];
    int scale(int n) { return n * 3 - 7; }
    int mix(int a, int b) { return a * 2 + b; }
    int sum_to(int n) {
      int i; int s = 0;
      for (i = 0; i < n; i++) s = s + scale(i);
      return s;
    }
    int main(void) {
      int i; int s = 0;
      for (i = 0; i < 32; i++) acc[i] = mix(i, i * i);
      for (i = 0; i < 32; i++) s = s + acc[i];
      print_int(s);
      print_int(sum_to(10));
      return 0;
    }|}

let workload () = ("multi", multi_fn_src) :: Livermore.sources ()

(* every observable output of a compile, in comparable form *)
let snapshot (prog, (report : Strategy.report)) =
  let estimates =
    Hashtbl.fold
      (fun k v acc -> (k, v) :: acc)
      report.Strategy.block_estimates []
    |> List.sort compare
  in
  ( Format.asprintf "%a" Mir.pp_prog prog,
    report.Strategy.spilled,
    report.Strategy.schedule_passes,
    estimates,
    List.map Diag.to_string report.Strategy.check_diags )

(* Not every kernel selects on every target (e.g. some f64 branch shapes
   on the 88000) — a pre-existing limitation orthogonal to the driver.
   Such cells must fail identically under both drivers, so they stay in
   the comparison as [Error]s rather than being dropped. *)
let compile ~jobs model strat (file, src) =
  match
    Strategy.compile
      ~opts:{ Strategy.default with jobs }
      model strat (Cgen.compile ~file src)
  with
  | r -> Ok (snapshot r)
  | exception Select.No_pattern msg -> Error ("no-pattern: " ^ msg)
  | exception Loc.Error (loc, msg) -> Error (Loc.error_to_string loc msg)

let test_jobs_identical () =
  let compiled = ref 0 in
  List.iter
    (fun (tname, model) ->
      let m = Lazy.force model in
      List.iter
        (fun strat ->
          List.iter
            (fun unit ->
              let seq = compile ~jobs:1 m strat unit in
              let par = compile ~jobs:4 m strat unit in
              if seq <> par then
                Alcotest.failf "%s/%s/%s: -j 4 differs from -j 1" tname
                  (Strategy.to_string strat) (fst unit);
              if Result.is_ok seq then incr compiled)
            (workload ()))
        Strategy.all)
    targets;
  (* the suite must mostly compile — r2000 and i860 cover every kernel *)
  check Alcotest.bool "most cells compiled" true
    (!compiled * 2 >= List.length targets * List.length Strategy.all
                      * List.length (workload ()))

let test_jobs_identical_via_marion () =
  (* the public API end to end, including simulator behaviour *)
  let m = Lazy.force r2000 in
  let run jobs =
    Marion.compile_and_run
      ~opts:{ Strategy.default with jobs }
      m Strategy.Rase ~file:"multi" multi_fn_src
  in
  let a = run 1 and b = run 4 in
  check Alcotest.string "output" a.Marion.sim.Sim.output b.Marion.sim.Sim.output;
  check Alcotest.int "cycles" a.Marion.sim.Sim.cycles b.Marion.sim.Sim.cycles;
  check Alcotest.string "asm"
    (Marion.asm_to_string a.Marion.compiled.Marion.prog)
    (Marion.asm_to_string b.Marion.compiled.Marion.prog)

let test_error_determinism () =
  (* faults planted in two functions, neither of them the first: at any
     job count the driver must raise the fault of the earliest faulting
     function in program order, [mix] *)
  let m = Lazy.force r2000 in
  let finject =
    match Finject.parse "schedule:mix:diag,allocate:sum_to:exn" with
    | Ok p -> p
    | Error msg -> Alcotest.fail msg
  in
  let result jobs =
    match
      Strategy.compile
        ~opts:{ Strategy.default with jobs; finject }
        m Strategy.Postpass
        (Cgen.compile ~file:"<mf.c>" multi_fn_src)
    with
    | _ -> Alcotest.fail "expected an injected fault"
    | exception Guard.Trip f -> f
  in
  let seq = result 1 and par = result 4 in
  check Alcotest.string "first faulting function" "mix" seq.Fault.f_func;
  check Alcotest.string "same fault" (Fault.to_string seq)
    (Fault.to_string par)

(* ------------------------------------------------------------------ *)
(* Profiles: observability is wired through and self-consistent         *)
(* ------------------------------------------------------------------ *)

let test_profile_sane () =
  let m = Lazy.force r2000 in
  let prog, report =
    Strategy.compile m Strategy.Rase (Cgen.compile ~file:"multi" multi_fn_src)
  in
  let p = report.Strategy.profile in
  check Alcotest.int "funcs" (List.length prog.Mir.p_funcs) p.Profile.p_funcs;
  check Alcotest.int "spilled mirrors report" report.Strategy.spilled
    p.Profile.p_spilled;
  check Alcotest.int "schedule passes mirror report"
    report.Strategy.schedule_passes p.Profile.p_schedule_passes;
  (* every pipeline pass (plus lint/select) has a timed entry *)
  let names = List.map (fun e -> e.Profile.e_name) (Profile.entries p) in
  List.iter
    (fun n ->
      check Alcotest.bool ("entry " ^ n) true (List.mem n names))
    ("lint" :: "select"
    :: List.map (fun (q : Pass.t) -> q.Pass.name)
         (Strategy.pipeline Strategy.Rase));
  (* sequential compile: the per-pass walls are disjoint slices of the
     whole-compile wall *)
  check Alcotest.bool "pass sum <= total wall" true
    (Profile.passes_wall p <= p.Profile.p_wall +. 1e-6);
  check Alcotest.bool "pass sum positive" true (Profile.passes_wall p > 0.0);
  (* rendering doesn't raise and mentions the strategy *)
  check Alcotest.bool "text render" true
    (String.length (Profile.to_text p) > 0);
  let json = Profile.to_json p in
  check Alcotest.bool "json render" true
    (String.length json > 0 && json.[0] = '{')

let suite =
  [
    Alcotest.test_case "pipeline shapes" `Quick test_pipeline_shapes;
    Alcotest.test_case "jobs determinism (all targets x strategies)" `Slow
      test_jobs_identical;
    Alcotest.test_case "jobs determinism via Marion API" `Quick
      test_jobs_identical_via_marion;
    Alcotest.test_case "error determinism" `Quick test_error_determinism;
    Alcotest.test_case "profile sanity" `Quick test_profile_sane;
  ]
