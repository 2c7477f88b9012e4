(* marionc: the Marion retargetable compiler driver.

   Compile mini-C for one of the built-in targets (or an external Maril
   description) under a chosen code generation strategy; print the
   generated assembly, run on the pipeline simulator, or compare against
   the reference interpreter. *)

open Cmdliner

(* a command-line-level mistake, as opposed to a failing compile: reported
   on exit code 2 (see the EXIT STATUS section of the man page) *)
exception Usage of string

let load_builtin = function
  | "toyp" -> Toyp.load ()
  | "r2000" -> R2000.load ()
  | "m88000" -> M88000.load ()
  | "i860" -> I860.load ()
  | other -> raise (Usage (Printf.sprintf "unknown target %S" other))

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let target_arg =
  let doc = "Target machine: toyp, r2000, m88000 or i860." in
  Arg.(value & opt string "r2000" & info [ "t"; "target" ] ~docv:"TARGET" ~doc)

let maril_arg =
  let doc =
    "Load the target from a Maril description file instead of a built-in \
     (func escapes are unavailable for external descriptions)."
  in
  Arg.(value & opt (some file) None & info [ "maril" ] ~docv:"FILE" ~doc)

let strategy_arg =
  let doc = "Code generation strategy: naive, postpass, ips or rase." in
  Arg.(value & opt string "postpass" & info [ "s"; "strategy" ] ~docv:"STRAT" ~doc)

let source_arg =
  let doc =
    "The C source file to compile (optional with --lint or --livermore)."
  in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.c" ~doc)

let livermore_arg =
  let doc =
    "Compile built-in Livermore kernel $(docv) (1-14) instead of a \
     $(i,FILE.c) source."
  in
  Arg.(value & opt (some int) None & info [ "livermore" ] ~docv:"N" ~doc)

let run_flag =
  let doc = "Execute the compiled program on the pipeline simulator." in
  Arg.(value & flag & info [ "r"; "run" ] ~doc)

let verify_flag =
  let doc =
    "Run both the simulator and the reference interpreter and compare their \
     output."
  in
  Arg.(value & flag & info [ "verify" ] ~doc)

let sim_cache_flag =
  let doc = "Simulate with a direct-mapped data cache (64 lines x 16 B, 8-cycle miss)." in
  Arg.(value & flag & info [ "sim-cache" ] ~doc)

(* --cache[=DIR]: the compilation cache. Bare --cache uses
   $MARION_CACHE_DIR or ./.marion-cache; setting $MARION_CACHE turns the
   cache on by default (same directory resolution), --no-cache wins over
   everything. *)
let cache_arg =
  let doc =
    "Enable the content-addressed compilation cache, persisted under \
     $(docv) (default: \\$MARION_CACHE_DIR or $(b,.marion-cache)). \
     Per-function results keyed on the IL, the machine description and \
     the pipeline identity are replayed bit-identically instead of \
     recompiled; any edit to source, description, strategy or checking \
     flags invalidates. Setting \\$MARION_CACHE enables this by default."
  in
  Arg.(
    value
    & opt ~vopt:(Some "") (some string) None
    & info [ "cache" ] ~docv:"DIR" ~doc)

let no_cache_flag =
  let doc = "Disable the compilation cache (overrides --cache and \\$MARION_CACHE)." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_stats_flag =
  let doc =
    "Print compilation-cache statistics (hits, misses, evictions, stale \
     rejections) to stderr after compiling, as text or JSON per \
     --check-format."
  in
  Arg.(value & flag & info [ "cache-stats" ] ~doc)

let default_cache_dir () =
  match Sys.getenv_opt "MARION_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> ".marion-cache"

let resolve_cache ~cache ~no_cache =
  if no_cache then None
  else
    match cache with
    | Some "" -> Some (default_cache_dir ())
    | Some dir -> Some dir
    | None -> (
        match Sys.getenv_opt "MARION_CACHE" with
        | Some v when v <> "" && v <> "0" -> Some (default_cache_dir ())
        | _ -> None)

let trace_arg =
  let doc = "Trace the first N issued instructions with their cycles." in
  Arg.(value & opt int 0 & info [ "trace" ] ~docv:"N" ~doc)

let stats_flag =
  let doc = "Print compilation statistics (spills, schedule passes, estimates)." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let lint_flag =
  let doc =
    "Lint the machine description (Marilint) and exit; no source file is \
     needed. Exits non-zero if any error-severity finding remains."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

let no_check_flag =
  let doc = "Disable the MIR verifier and description linter." in
  Arg.(value & flag & info [ "no-check" ] ~doc)

let check_format_arg =
  let doc =
    "Diagnostic rendering, for the linter, the MIR verifier and the \
     translation validators alike: $(b,text) or $(b,json)."
  in
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
    & info [ "check-format" ] ~docv:"FMT" ~doc)

(* diagnostics are sorted into render order first, so the printed stream
   is a pure function of the findings — byte-identical under -j N *)
let print_diags fmt out diags =
  let diags = Diag.sort diags in
  match fmt with
  | `Json -> output_string out (Diag.list_to_json diags ^ "\n")
  | `Text ->
      List.iter
        (fun d -> output_string out (Diag.to_string d ^ "\n"))
        diags

let no_validate_flag =
  let doc =
    "Disable the translation validators (Schedval/Regval) that check \
     every scheduling and allocation pass for semantic preservation."
  in
  Arg.(value & flag & info [ "no-validate" ] ~doc)

(* distinct exit codes per failing subsystem, so scripts (and CI) can tell
   a bad invocation from a bad description from a miscompile *)
let is_code_prefix c (d : Diag.t) =
  String.length d.Diag.code > 0 && d.Diag.code.[0] = c

let check_error_exit diags =
  if List.exists (is_code_prefix 'V') diags then 5
  else if List.exists (is_code_prefix 'M') diags then 4
  else 3

let ghfill_flag =
  let doc =
    "Fill branch delay slots with useful instructions (Gross-Hennessy) \
     instead of nops."
  in
  Arg.(value & flag & info [ "ghfill" ] ~doc)

let jobs_arg =
  let doc =
    "Compile functions in parallel on N domains (0 = one per core). The \
     generated code, statistics and diagnostics are bit-identical to -j 1; \
     only timings differ."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let time_passes_flag =
  let doc =
    "Print a per-pass profile of the compile (wall-clock time per pass, \
     spills, schedule passes) to stderr, as text or JSON per \
     --check-format."
  in
  Arg.(value & flag & info [ "time-passes" ] ~doc)

(* fault isolation: --on-error picks the per-function recovery policy,
   --pass-timeout and --finject introduce faults (real deadline misses,
   deterministic injections) for the policy to handle *)
let on_error_arg =
  let doc =
    "What to do when a pass faults (raises, exceeds --pass-timeout, or \
     trips an injected fault) while compiling one function: $(b,abort) \
     (the default: fail the whole compile, exactly as without this \
     flag), $(b,degrade) (recompile just that function down the \
     strategy ladder rase -> ips -> postpass -> naive), or $(b,skip) \
     (give the function up and keep compiling the rest)."
  in
  Arg.(
    value
    & opt
        (enum [ ("abort", `Abort); ("degrade", `Degrade); ("skip", `Skip) ])
        `Abort
    & info [ "on-error" ] ~docv:"POLICY" ~doc)

let pass_timeout_arg =
  let doc =
    "Per-pass wall-clock budget in milliseconds; a pass exceeding it \
     counts as a fault, handled per --on-error. The check runs after \
     the pass returns (passes are never interrupted mid-flight)."
  in
  Arg.(value & opt (some float) None & info [ "pass-timeout" ] ~docv:"MS" ~doc)

let finject_arg =
  let doc =
    "Deterministic fault-injection plan: comma-separated \
     $(i,PASS):$(i,FN):$(i,KIND) rules (exact names or $(b,*) \
     wildcards; $(i,KIND) is $(b,exn), $(b,timeout) or $(b,diag)), or \
     $(b,seed=)$(i,N):$(i,RATE):$(i,KIND) for seeded pseudo-random \
     site coverage. Defaults to \\$MARION_FINJECT. Injected faults are \
     handled per --on-error."
  in
  Arg.(value & opt (some string) None & info [ "finject" ] ~docv:"PLAN" ~doc)

let no_disambig_flag =
  let doc =
    "Disable static memory disambiguation: keep every conservative \
     memory-ordering edge in the dependence DAGs instead of pruning \
     edges between provably independent loads and stores."
  in
  Arg.(value & flag & info [ "no-disambig" ] ~doc)

let analysis_format_arg =
  let doc =
    "Print a dataflow-analysis summary (solver fixpoints, alias-oracle \
     queries, memory edges pruned) to stderr as $(b,text) or $(b,json)."
  in
  Arg.(
    value
    & opt (some (enum [ ("text", `Text); ("json", `Json) ])) None
    & info [ "analysis-format" ] ~docv:"FMT" ~doc)

let strict_flag =
  let doc =
    "Treat a compile with degraded or skipped functions as a failure: \
     exit 1 where the default would exit 6."
  in
  Arg.(value & flag & info [ "strict" ] ~doc)

let fault_report_arg =
  let doc =
    "Write the JSON fault report (recovery policy, per-function fault \
     chains and resolutions, counts) to $(docv) after compiling."
  in
  Arg.(
    value & opt (some string) None & info [ "fault-report" ] ~docv:"FILE" ~doc)

let resolve_finject spec =
  let text =
    match spec with
    | Some s -> s
    | None -> Option.value ~default:"" (Sys.getenv_opt "MARION_FINJECT")
  in
  match Finject.parse text with
  | Ok plan -> plan
  | Error msg -> raise (Usage (Printf.sprintf "bad fault-injection plan: %s" msg))

let main target maril strategy source run verify sim_cache trace stats
    ghfill jobs time_passes lint no_check check_format no_validate cache
    no_cache cache_stats on_error pass_timeout finject_spec strict
    fault_report no_disambig analysis_format livermore =
  try
    let model =
      match maril with
      | Some path ->
          Marion.load_target ~name:(Filename.basename path) ~file:path
            (read_file path)
      | None -> load_builtin target
    in
    if lint then begin
      let diags = Marion.lint model in
      print_diags check_format stdout diags;
      if Diag.has_errors diags then 3
      else begin
        if diags = [] then
          Printf.eprintf "# lint: %s is clean\n" model.Model.name;
        0
      end
    end
    else begin
    let strat =
      match Strategy.of_string strategy with
      | Some s -> s
      | None -> raise (Usage (Printf.sprintf "unknown strategy %S" strategy))
    in
    let source, src =
      match (livermore, source) with
      | Some id, None -> (
          try (Printf.sprintf "lfk%d" id, Livermore.source id)
          with Not_found ->
            raise (Usage (Printf.sprintf "no Livermore kernel %d (1-14)" id)))
      | None, Some s -> (s, read_file s)
      | Some _, Some _ ->
          raise (Usage "--livermore and FILE.c are mutually exclusive")
      | None, None ->
          raise
            (Usage
               "no source file given (FILE.c is required unless --lint or \
                --livermore)")
    in
    let opts =
      {
        Strategy.check = not no_check;
        validate = not no_validate;
        disambig = not no_disambig;
        jobs = (if jobs <= 0 then Dpool.recommended_jobs () else jobs);
        on_error;
        pass_timeout;
        finject = resolve_finject finject_spec;
      }
    in
    let comp_cache =
      Option.map
        (fun dir -> Cache.create ~dir ())
        (resolve_cache ~cache ~no_cache)
    in
    let compiled =
      Marion.compile ~opts ?cache:comp_cache model strat ~file:source src
    in
    let fault_events = compiled.Marion.report.Strategy.faults in
    if fault_events <> [] then begin
      match check_format with
      | `Json -> output_string stderr (Degrade.events_to_json fault_events ^ "\n")
      | `Text -> output_string stderr (Degrade.events_to_text fault_events)
    end;
    Option.iter
      (fun path ->
        let oc = open_out path in
        output_string oc
          (Degrade.report_json
             ~on_error:(Strategy.on_error_name on_error)
             ~funcs:compiled.Marion.report.Strategy.profile.Profile.p_funcs
             fault_events
          ^ "\n");
        close_out oc)
      fault_report;
    if cache_stats then begin
      match comp_cache with
      | Some c -> (
          match check_format with
          | `Json -> output_string stderr (Cache.stats_json c ^ "\n")
          | `Text -> output_string stderr (Cache.stats_text c))
      | None ->
          prerr_endline
            "# cache: disabled (pass --cache or set MARION_CACHE)"
    end;
    if compiled.Marion.report.Strategy.validate_diags <> [] then
      print_diags check_format stderr
        compiled.Marion.report.Strategy.validate_diags;
    if compiled.Marion.report.Strategy.check_diags <> [] then
      print_diags check_format stderr
        compiled.Marion.report.Strategy.check_diags;
    if time_passes then begin
      let p = compiled.Marion.report.Strategy.profile in
      match check_format with
      | `Json -> output_string stderr (Profile.to_json p ^ "\n")
      | `Text -> output_string stderr (Profile.to_text p)
    end;
    Option.iter
      (fun fmt ->
        let p = compiled.Marion.report.Strategy.profile in
        match fmt with
        | `Json ->
            output_string stderr
              (Printf.sprintf
                 "{\"disambig\":%b,\"time_s\":%.6f,\"solves\":%d,\"iterations\":%d,\"facts\":%d,\"queries\":%d,\"pruned\":%d}\n"
                 (not no_disambig) p.Profile.p_an_time p.Profile.p_an_solves
                 p.Profile.p_an_iters p.Profile.p_an_facts
                 p.Profile.p_an_queries p.Profile.p_an_pruned)
        | `Text ->
            Printf.eprintf
              "# analysis: disambig=%s time=%.4fs solves=%d iters=%d \
               facts=%d queries=%d pruned=%d\n"
              (if no_disambig then "off" else "on")
              p.Profile.p_an_time p.Profile.p_an_solves p.Profile.p_an_iters
              p.Profile.p_an_facts p.Profile.p_an_queries
              p.Profile.p_an_pruned)
      analysis_format;
    if ghfill then begin
      let filled =
        List.fold_left
          (fun acc fn -> acc + Ghfill.fill_func fn)
          0 compiled.Marion.prog.Mir.p_funcs
      in
      if stats then Printf.printf "# ghfill: %d delay slots filled\n" filled
    end;
    if stats then
      Printf.printf "# spills=%d schedule-passes=%d\n"
        compiled.Marion.report.Strategy.spilled
        compiled.Marion.report.Strategy.schedule_passes;
    if run || verify || trace > 0 then begin
      let config =
        {
          Sim.default_config with
          Sim.cache =
            (if sim_cache then
               Some { Sim.lines = 64; line_bytes = 16; miss_penalty = 8 }
             else None);
          trace_limit = trace;
        }
      in
      let r = Marion.run ~config compiled in
      if trace > 0 then
        List.iter (fun (cy, s) -> Printf.printf "%6d  %s\n" cy s) r.Sim.trace;
      print_string r.Sim.output;
      Printf.printf "# exit=%d cycles=%d instructions=%d\n" r.Sim.return_value
        r.Sim.cycles r.Sim.instructions;
      if sim_cache then
        Printf.printf "# loads=%d cache-misses=%d\n" r.Sim.loads r.Sim.cache_misses;
      if verify then begin
        let oracle = Marion.interpret ~file:source src in
        if
          oracle.Cinterp.output = r.Sim.output
          && oracle.Cinterp.return_value = r.Sim.return_value
        then print_endline "# verify: simulator matches the reference interpreter"
        else begin
          Printf.printf "# verify: MISMATCH\n# interpreter output: %S (exit %d)\n"
            oracle.Cinterp.output oracle.Cinterp.return_value;
          exit 1
        end
      end
    end
    else print_string (Marion.asm_to_string compiled.Marion.prog);
    (* the compile finished, but not every function got the strategy it
       asked for: a distinct exit code scripts can branch on *)
    if fault_events = [] then 0 else if strict then 1 else 6
    end
  with
  | Diag.Check_error diags ->
      if check_format = `Text then Printf.eprintf "marionc: check failed:\n";
      print_diags check_format stderr diags;
      check_error_exit diags
  | Guard.Trip f ->
      (* an injected fault surfacing under --on-error=abort: there is no
         original exception to re-raise, so report the fault itself *)
      Printf.eprintf "marionc: pass fault: %s\n" (Fault.to_string f);
      1
  | Usage msg ->
      Printf.eprintf "marionc: %s\n" msg;
      2
  | Loc.Error (loc, msg) ->
      Printf.eprintf "%s\n" (Loc.error_to_string loc msg);
      1
  | Select.No_pattern msg | Failure msg ->
      Printf.eprintf "marionc: %s\n" msg;
      1
  | Sim.Sim_error msg ->
      Printf.eprintf "marionc: simulation failed: %s\n" msg;
      1

let exits =
  Cmd.Exit.info 1
    ~doc:
      "on compilation or simulation failure, or a simulator/interpreter \
       mismatch under $(b,--verify)."
  :: Cmd.Exit.info 2
       ~doc:
         "on usage errors: unknown target or strategy, or a missing \
          $(i,FILE.c)."
  :: Cmd.Exit.info 3
       ~doc:
         "when the description linter finds errors (L-codes, \
          $(b,--lint))."
  :: Cmd.Exit.info 4
       ~doc:"when the MIR phase verifier finds errors (M-codes)."
  :: Cmd.Exit.info 5
       ~doc:
         "when a translation validator finds a semantic-preservation \
          violation (V-codes)."
  :: Cmd.Exit.info 6
       ~doc:
         "when the compile succeeded but at least one function was \
          degraded or skipped under $(b,--on-error) ($(b,--strict) \
          turns this into exit 1)."
  :: Cmd.Exit.defaults

let cmd =
  let doc = "retargetable instruction-scheduling compiler (Marion, PLDI 1991)" in
  let info = Cmd.info "marionc" ~version:"1.0" ~doc ~exits in
  Cmd.v info
    Term.(
      const main $ target_arg $ maril_arg $ strategy_arg $ source_arg
      $ run_flag $ verify_flag $ sim_cache_flag $ trace_arg $ stats_flag
      $ ghfill_flag $ jobs_arg $ time_passes_flag $ lint_flag
      $ no_check_flag $ check_format_arg $ no_validate_flag $ cache_arg
      $ no_cache_flag $ cache_stats_flag $ on_error_arg $ pass_timeout_arg
      $ finject_arg $ strict_flag $ fault_report_arg $ no_disambig_flag
      $ analysis_format_arg $ livermore_arg)

let () = exit (Cmd.eval' cmd)
