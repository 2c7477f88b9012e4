(* Fault-isolation tests: injected faults in every pass of every
   strategy recover down the degradation ladder exactly as computed from
   the pipelines; unaffected functions are bit-identical to a fault-free
   compile at any job count; [`Abort] with no faults is output-identical
   to the plain driver; and the cache can never mask an injection or
   replay a degraded artifact under the original strategy's key. *)

let check = Alcotest.check

let targets =
  [
    ("toyp", lazy (Toyp.load ()));
    ("r2000", lazy (R2000.load ()));
    ("m88000", lazy (M88000.load ()));
    ("i860", lazy (I860.load ()));
  ]

let r2000 = List.assoc "r2000" targets

(* several integer-only functions, so every target selects it and -j 4
   has units to fan out (same shape as test_cache) *)
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

let fn_names = [ "scale"; "mix"; "sum_to"; "main" ]

let plan spec =
  match Finject.parse spec with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad plan %S: %s" spec msg

let compile ?(jobs = 1) ?cache ?(on_error = `Abort) ?pass_timeout
    ?(finject = Finject.empty) model strat =
  Strategy.compile
    ~opts:{ Strategy.default with jobs; on_error; pass_timeout; finject }
    ?cache model strat
    (Cgen.compile ~file:"<robust.c>" multi_fn_src)

(* every deterministic observable of a compile, in comparable form *)
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
    List.map Diag.to_string report.Strategy.check_diags,
    List.map Diag.to_string report.Strategy.validate_diags )

let func_text (prog : Mir.prog) name =
  let fn =
    List.find (fun (f : Mir.func) -> f.Mir.f_name = name) prog.Mir.p_funcs
  in
  Format.asprintf "%a" Mir.pp_func fn

let pass_names strat =
  List.map (fun (p : Pass.t) -> p.Pass.name) (Strategy.pipeline strat)

let next_rung rung =
  Option.bind (Degrade.next (Strategy.to_string rung)) Strategy.of_string

(* the resolution a [pass:*:KIND] injection must produce, computed from
   the pipelines alone: every rung whose pipeline contains [pass] faults,
   the first one without it succeeds *)
let expected_resolution start pass =
  let rec go rung first =
    if List.mem pass (pass_names rung) then
      match next_rung rung with Some r -> go r false | None -> `Skipped
    else if first then `Clean
    else `Degraded rung
  in
  go start true

(* --------------------------------------------------------------- *)
(* Finject plan syntax                                              *)
(* --------------------------------------------------------------- *)

let test_finject_parse () =
  let round_trips spec =
    match Finject.parse spec with
    | Ok p -> check Alcotest.string spec spec (Finject.to_string p)
    | Error msg -> Alcotest.failf "%S did not parse: %s" spec msg
  in
  round_trips "allocate:main:exn";
  round_trips "schedule:*:timeout,*:main:diag";
  round_trips "seed=42:3:exn";
  check Alcotest.bool "empty is empty" true
    (match Finject.parse "" with
    | Ok p -> p = Finject.empty
    | Error _ -> false);
  List.iter
    (fun bad ->
      check Alcotest.bool (bad ^ " rejected") true
        (match Finject.parse bad with Ok _ -> false | Error _ -> true))
    [ "bogus"; "a:b:c:d"; "allocate:main:boom"; "seed=x:3:exn"; "seed=1:0:exn" ]

let test_finject_arm_deterministic () =
  let p = plan "seed=7:3:exn" in
  let sites =
    List.concat_map
      (fun pass ->
        List.map (fun fn -> (pass, fn, Finject.arm p ~pass ~fn)) fn_names)
      (pass_names Strategy.Rase)
  in
  (* same plan, same sites, every time *)
  List.iter
    (fun (pass, fn, k) ->
      check Alcotest.bool (pass ^ ":" ^ fn ^ " stable") true
        (Finject.arm p ~pass ~fn = k))
    sites;
  check Alcotest.bool "seeded plans may target anything" true
    (Finject.may_target p ~fn:"whatever");
  let site = plan "allocate:main:exn" in
  check Alcotest.bool "site targets its function" true
    (Finject.may_target site ~fn:"main");
  check Alcotest.bool "site ignores others" false
    (Finject.may_target site ~fn:"scale")

(* --------------------------------------------------------------- *)
(* The trivial path: no faults, no behaviour change                 *)
(* --------------------------------------------------------------- *)

let test_abort_identical_to_seed () =
  let m = Lazy.force r2000 in
  let seed = snapshot (compile m Strategy.Rase) in
  (* explicit `Abort with an empty plan: the guard traps nothing *)
  check Alcotest.bool "abort = seed" true
    (seed = snapshot (compile ~on_error:`Abort m Strategy.Rase));
  (* a non-trivial policy with nothing to fault is also output-identical *)
  let _, r = compile ~on_error:`Degrade m Strategy.Rase in
  check Alcotest.bool "degrade without faults = seed" true
    (seed = snapshot (compile ~on_error:`Degrade m Strategy.Rase));
  check Alcotest.bool "no events" true (r.Strategy.faults = [])

let test_abort_reraises_injection () =
  let m = Lazy.force r2000 in
  match compile ~finject:(plan "allocate:*:exn") m Strategy.Postpass with
  | _ -> Alcotest.fail "expected Guard.Trip"
  | exception Guard.Trip f ->
      check Alcotest.string "pass" "allocate" f.Fault.f_pass;
      check Alcotest.bool "injected" true f.Fault.f_injected

(* the guard is always installed, so a pass's own exception must come out
   of the default compile as itself, with the backtrace of its raise: TOYP
   has two allocable double registers and poly keeps three live *)
let test_abort_keeps_exception_identity () =
  Printexc.record_backtrace true;
  let source = List.assoc "poly" Suite.programs in
  match
    Strategy.compile ~opts:Strategy.default (Toyp.load ()) Strategy.Ips
      (Cgen.compile ~file:"poly.c" source)
  with
  | _ -> Alcotest.fail "expected the allocator's Loc.Error"
  | exception Guard.Trip _ -> Alcotest.fail "Guard.Trip escaped under `Abort"
  | exception (Loc.Error (_, msg) as e) ->
      let frames = Printexc.get_backtrace () in
      check Alcotest.bool
        (Printf.sprintf "allocator's message (%s)" (Printexc.to_string e))
        true
        (Test_e2e.contains ~sub:"cannot be colored" msg);
      if not (Test_e2e.contains ~sub:"Regalloc" frames) then
        Alcotest.failf "backtrace names no Regalloc frame:\n%s" frames

(* --------------------------------------------------------------- *)
(* The ladder: every pass of every strategy recovers as computed    *)
(* --------------------------------------------------------------- *)

let check_recovery model strat pass =
  let spec = pass ^ ":*:exn" in
  let prog, report =
    compile ~on_error:`Degrade ~finject:(plan spec) model strat
  in
  let events = report.Strategy.faults in
  match expected_resolution strat pass with
  | `Clean ->
      check Alcotest.int (spec ^ " no events") 0 (List.length events)
  | `Skipped ->
      check Alcotest.int (spec ^ " all skipped") (List.length fn_names)
        (Degrade.skipped_count events)
  | `Degraded rung ->
      check Alcotest.int (spec ^ " all degraded") (List.length fn_names)
        (Degrade.degraded_count events);
      List.iter
        (fun (e : Degrade.event) ->
          check Alcotest.bool (spec ^ " rung") true
            (e.Degrade.d_resolution = Degrade.Degraded (Strategy.to_string rung));
          check Alcotest.string (spec ^ " from") (Strategy.to_string strat)
            e.Degrade.d_from)
        events;
      (* the recovered program is bit-identical to compiling the fallback
         rung directly: a degraded function is a clean compile of its
         rung, nothing half-way *)
      let clean = snapshot (compile model rung) in
      check Alcotest.bool (spec ^ " = clean " ^ Strategy.to_string rung) true
        (clean = snapshot (prog, report))

let test_every_pass_recovers () =
  let m = Lazy.force r2000 in
  List.iter
    (fun strat ->
      List.iter (check_recovery m strat) (pass_names strat))
    Strategy.all

let test_every_target_recovers () =
  (* schedule is in postpass/ips/rase but not naive: injection from
     postpass must land every function on naive, on every target *)
  List.iter
    (fun (name, model) ->
      let m = Lazy.force model in
      let _, report =
        compile ~on_error:`Degrade
          ~finject:(plan "schedule:*:exn")
          m Strategy.Postpass
      in
      check Alcotest.int (name ^ " all degraded") (List.length fn_names)
        (Degrade.degraded_count report.Strategy.faults);
      List.iter
        (fun (e : Degrade.event) ->
          check Alcotest.bool (name ^ " to naive") true
            (e.Degrade.d_resolution = Degrade.Degraded "naive"))
        report.Strategy.faults)
    targets

let test_unaffected_bit_identical () =
  let m = Lazy.force r2000 in
  let clean_prog, _ = compile m Strategy.Rase in
  let prog, report =
    compile ~on_error:`Degrade ~finject:(plan "allocate:main:exn") m
      Strategy.Rase
  in
  List.iter
    (fun fn ->
      if fn <> "main" then
        check Alcotest.string (fn ^ " untouched") (func_text clean_prog fn)
          (func_text prog fn))
    fn_names;
  check Alcotest.int "one event" 1 (List.length report.Strategy.faults);
  check Alcotest.string "event names main" "main"
    (List.hd report.Strategy.faults).Degrade.d_func

let test_jobs_parity () =
  let m = Lazy.force r2000 in
  let run jobs =
    let prog, report =
      compile ~jobs ~on_error:`Degrade
        ~finject:(plan "seed=11:2:exn")
        m Strategy.Rase
    in
    (snapshot (prog, report), Degrade.events_to_text report.Strategy.faults)
  in
  check Alcotest.bool "-j1 = -j4 (code and events)" true (run 1 = run 4)

let test_skip_mode () =
  let m = Lazy.force r2000 in
  let prog, report =
    compile ~on_error:`Skip ~finject:(plan "allocate:main:exn") m
      Strategy.Postpass
  in
  check Alcotest.int "one skipped" 1
    (Degrade.skipped_count report.Strategy.faults);
  let e = List.hd report.Strategy.faults in
  check Alcotest.int "single fault, no ladder walk" 1
    (List.length e.Degrade.d_faults);
  (* the skipped function is present (pristine), the rest compiled *)
  check Alcotest.int "all functions present" (List.length fn_names)
    (List.length prog.Mir.p_funcs)

let test_timeout_policy () =
  (* a 0 ms budget faults every pass post-hoc: the ladder is exhausted
     and every function skips with one timeout fault per rung *)
  let m = Lazy.force r2000 in
  let _, report =
    compile ~on_error:`Degrade ~pass_timeout:0.0 m Strategy.Rase
  in
  check Alcotest.int "all skipped" (List.length fn_names)
    (Degrade.skipped_count report.Strategy.faults);
  List.iter
    (fun (e : Degrade.event) ->
      check Alcotest.int "one fault per rung" (List.length Degrade.ladder)
        (List.length e.Degrade.d_faults);
      List.iter
        (fun (f : Fault.t) ->
          check Alcotest.string "timeout kind" "timeout"
            (Fault.kind_name f.Fault.f_kind))
        e.Degrade.d_faults)
    report.Strategy.faults

let test_injected_kinds () =
  let m = Lazy.force r2000 in
  List.iter
    (fun kind ->
      let _, report =
        compile ~on_error:`Skip
          ~finject:(plan ("schedule:main:" ^ kind))
          m Strategy.Postpass
      in
      let e = List.hd report.Strategy.faults in
      let f = List.hd e.Degrade.d_faults in
      check Alcotest.string ("kind " ^ kind) kind
        (Fault.kind_name f.Fault.f_kind);
      check Alcotest.bool "marked injected" true f.Fault.f_injected)
    [ "exn"; "timeout"; "diag" ]

(* --------------------------------------------------------------- *)
(* The guard itself                                                 *)
(* --------------------------------------------------------------- *)

let test_guard_traps_with_backtrace () =
  match
    Guard.protect ~fn:"f" ~strategy:"rase" ~pass:"p" (fun () ->
        failwith "boom")
  with
  | () -> Alcotest.fail "expected Trip"
  | exception Guard.Trip f -> (
      check Alcotest.string "pass" "p" f.Fault.f_pass;
      check Alcotest.bool "not injected" false f.Fault.f_injected;
      match f.Fault.f_exn with
      | Some (Failure m, _) -> check Alcotest.string "original exn" "boom" m
      | _ -> Alcotest.fail "original exception lost")

let test_guard_nested_trip_passes_through () =
  let inner =
    Fault.make ~func:"f" ~strategy:"rase" ~pass:"inner" (Fault.Exn "inner")
  in
  match
    Guard.protect ~fn:"f" ~strategy:"rase" ~pass:"outer" (fun () ->
        raise (Guard.Trip inner))
  with
  | () -> Alcotest.fail "expected Trip"
  | exception Guard.Trip f ->
      check Alcotest.string "inner fault untouched" "inner" f.Fault.f_pass

(* --------------------------------------------------------------- *)
(* Cache interaction                                                *)
(* --------------------------------------------------------------- *)

let test_cache_never_masks_injection () =
  let m = Lazy.force r2000 in
  let cache = Cache.create () in
  (* warm the cache with a clean compile of the original strategy *)
  let clean = snapshot (compile ~cache m Strategy.Rase) in
  let before = Cache.counters cache in
  let prog, report =
    compile ~cache ~on_error:`Degrade
      ~finject:(plan "allocate:main:exn")
      m Strategy.Rase
  in
  let after = Cache.counters cache in
  (* main's lookup is bypassed — the injection must fire even though a
     clean rase artifact for main is sitting in the cache *)
  check Alcotest.int "one degradation despite warm cache" 1
    (Degrade.degraded_count report.Strategy.faults);
  check Alcotest.int "others replay" (List.length fn_names - 1)
    (after.Cache.hits - before.Cache.hits);
  ignore prog;
  (* rerunning the original strategy cleanly replays the seed output
     exactly: the degraded artifact went under naive's key and did not
     clobber the clean rase entry the warm-up stored *)
  let b2 = Cache.counters cache in
  let again = compile ~cache m Strategy.Rase in
  let a2 = Cache.counters cache in
  check Alcotest.bool "original key replays clean rase" true
    (clean = snapshot again);
  check Alcotest.int "all functions replay" (List.length fn_names)
    (a2.Cache.hits - b2.Cache.hits)

let test_degraded_store_keys_fallback_rung () =
  let m = Lazy.force r2000 in
  let cache = Cache.create () in
  (* allocate:main:exn from rase degrades main to naive and stores it
     under naive's pipeline identity *)
  ignore
    (compile ~cache ~on_error:`Degrade
       ~finject:(plan "allocate:main:exn")
       m Strategy.Rase);
  let before = Cache.counters cache in
  let hit = compile ~cache m Strategy.Naive in
  let after = Cache.counters cache in
  check Alcotest.int "naive compile hits the stored artifact" 1
    (after.Cache.hits - before.Cache.hits);
  (* and that artifact is bit-identical to a clean naive compile *)
  check Alcotest.bool "degraded artifact = clean naive" true
    (snapshot (compile m Strategy.Naive) = snapshot hit)

let test_skipped_never_stored () =
  let m = Lazy.force r2000 in
  let cache = Cache.create () in
  ignore
    (compile ~cache ~on_error:`Skip
       ~finject:(plan "frame-layout:main:exn")
       m Strategy.Naive);
  (* main skipped -> nothing stored under any key for it: a clean naive
     compile must miss for main (hits only the other functions) *)
  let before = Cache.counters cache in
  ignore (compile ~cache m Strategy.Naive);
  let after = Cache.counters cache in
  check Alcotest.int "main misses" 1 (after.Cache.misses - before.Cache.misses);
  check Alcotest.int "others hit" (List.length fn_names - 1)
    (after.Cache.hits - before.Cache.hits)

let test_store_errors_counted_not_raised () =
  (* a cache directory whose parent is a regular file: every disk write
     fails, each failure is counted, none raises (root ignores permission
     bits, so an unwritable-directory model would not fail here) *)
  let file = Filename.temp_file "marion" ".notadir" in
  let dir = Filename.concat file "cache" in
  let cache = Cache.create ~dir () in
  let m = Lazy.force r2000 in
  let seed = snapshot (compile m Strategy.Postpass) in
  let out = snapshot (compile ~cache m Strategy.Postpass) in
  check Alcotest.bool "compile unaffected" true (seed = out);
  let c = Cache.counters cache in
  check Alcotest.int "every write failed" (List.length fn_names)
    c.Cache.store_errors;
  check Alcotest.int "no writes claimed" 0 c.Cache.writes;
  (* the memory layer still works above the broken disk *)
  let before = Cache.counters cache in
  ignore (compile ~cache m Strategy.Postpass);
  let after = Cache.counters cache in
  check Alcotest.int "memory hits" (List.length fn_names)
    (after.Cache.hits - before.Cache.hits);
  Sys.remove file

(* --------------------------------------------------------------- *)
(* Dpool failure propagation                                        *)
(* --------------------------------------------------------------- *)

exception Boom of int

let test_dpool_earliest_failure_wins () =
  (* items 2 and 5 both fail; whatever the domain interleaving, the
     caller sees item 2's exception, backtrace preserved *)
  Printexc.record_backtrace true;
  let work i =
    if i = 2 || i = 5 then raise (Boom i);
    i * i
  in
  for _ = 1 to 20 do
    match Dpool.map ~jobs:4 work [ 0; 1; 2; 3; 4; 5; 6; 7 ] with
    | _ -> Alcotest.fail "expected Boom"
    | exception Boom i -> check Alcotest.int "earliest item" 2 i
  done

let suite =
  [
    Alcotest.test_case "finject parse" `Quick test_finject_parse;
    Alcotest.test_case "finject deterministic" `Quick
      test_finject_arm_deterministic;
    Alcotest.test_case "abort identical to seed" `Quick
      test_abort_identical_to_seed;
    Alcotest.test_case "abort re-raises injection" `Quick
      test_abort_reraises_injection;
    Alcotest.test_case "abort keeps exception identity" `Quick
      test_abort_keeps_exception_identity;
    Alcotest.test_case "every pass recovers" `Slow test_every_pass_recovers;
    Alcotest.test_case "every target recovers" `Slow
      test_every_target_recovers;
    Alcotest.test_case "unaffected functions bit-identical" `Quick
      test_unaffected_bit_identical;
    Alcotest.test_case "jobs parity with faults" `Quick test_jobs_parity;
    Alcotest.test_case "skip mode" `Quick test_skip_mode;
    Alcotest.test_case "timeout policy" `Quick test_timeout_policy;
    Alcotest.test_case "injected kinds" `Quick test_injected_kinds;
    Alcotest.test_case "guard traps with backtrace" `Quick
      test_guard_traps_with_backtrace;
    Alcotest.test_case "guard passes nested trip" `Quick
      test_guard_nested_trip_passes_through;
    Alcotest.test_case "cache never masks injection" `Quick
      test_cache_never_masks_injection;
    Alcotest.test_case "degraded store keys fallback rung" `Quick
      test_degraded_store_keys_fallback_rung;
    Alcotest.test_case "skipped never stored" `Quick test_skipped_never_stored;
    Alcotest.test_case "store errors counted" `Quick
      test_store_errors_counted_not_raised;
    Alcotest.test_case "dpool earliest failure wins" `Quick
      test_dpool_earliest_failure_wins;
  ]
