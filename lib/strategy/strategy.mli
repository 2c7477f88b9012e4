(** Code generation strategies (paper 2): the part of the code generator
    that directs the invocation of, and communication between, instruction
    scheduling and global register allocation. Strategies plug into the
    target- and strategy-independent machinery (selector, allocator, code
    DAG builder, scheduling support) without changing it.

    Each strategy is a declarative {!Pass} pipeline — a phase ordering of
    one shared allocate/schedule vocabulary (see {!pipeline}), with MIR
    verification inserted uniformly after every pass that declares a
    {!Diag.phase} post-condition. The final post-allocation schedule
    records each block's length as its cost estimate, the estimated side
    of Table 4:

    - {b Naive} — local-only baseline: no global register allocation, no
      scheduling. Stands in for the paper's [cc -O1] comparison point.
    - {b Postpass} (Gibbons & Muchnick / Hennessy & Gross) — global
      register allocation first, then list scheduling of the final code.
    - {b IPS}, Integrated Prepass Scheduling (Goodman & Hsu) — schedule
      with a limit on local register use, allocate globally, schedule
      again.
    - {b RASE}, Register Allocation with Schedule Estimates (Bradlee,
      Eggers & Henry) — run the scheduler repeatedly to gather schedule
      cost estimates under varying register budgets, use the estimates to
      choose the register/schedule trade-off, then allocate and do final
      scheduling. *)

type name = Naive | Postpass | Ips | Rase

val all : name list

val to_string : name -> string

val of_string : string -> name option

val pipeline : ?disambig:bool -> name -> Pass.t list
(** The strategy's phase ordering, in execution order. All
    strategy-specific allocation/scheduling behaviour lives in these pass
    definitions; the driver ({!compile}) contains none. With [disambig]
    (the default) every {e post-allocation} pass that builds dependence
    DAGs — the final [schedule], and the naive baseline's
    [estimate-inorder] — computes a static memory-disambiguation oracle
    from its input ({!Disambig}) and hands it to the DAG builder, so
    provably independent memory accesses carry no Mem edge.
    Pre-allocation passes (the IPS and RASE prepasses, and the RASE
    budget sweep that models them) deliberately stay conservative:
    hoisting loads across stores before the allocator runs stretches
    live ranges, and on the Livermore corpus costs more in spills than
    the reordering freedom buys. Pass names are identical either way —
    the flag is part of the cache key ({!pipeline_key}), not the pass
    list. *)

val max_budget : Model.t -> int
(** The largest register budget the RASE sweep explores: the size of the
    model's largest allocable class (at least 1). The sweep estimates
    every block under budgets [1 .. max_budget]. *)

type on_error = [ `Abort | `Degrade | `Skip ]
(** What the driver does when a pass faults — raises, exceeds the pass
    deadline, or trips an injected fault ({!Finject}) — while compiling
    one function:

    - [`Abort] (the default): the guard's trap re-raises the pass's own
      exception with the backtrace it captured, so the fault propagates
      as it would without the robust layer — same exception, same
      backtrace. A deadline overrun or an injected fault raises
      {!Guard.Trip}. Verifier and validator errors are not trapped.
    - [`Degrade]: recompile {e only the faulted function} from its
      pristine post-selection state on the next rung of the fallback
      ladder — Rase -> Ips -> Postpass -> Naive (see {!Degrade}) — until
      a rung succeeds or the ladder is exhausted (then as [`Skip]).
    - [`Skip]: give the function up at its pristine state and record it
      as skipped; the rest of the program compiles normally. *)

val on_error_name : on_error -> string
(** ["abort"], ["degrade"] or ["skip"] — the [--on-error=] spelling. *)

type options = {
  check : bool;
      (** [true]: lint the description ({!compile} only) and re-verify
          every function with {!Mircheck.check_func} at each phase point
          — post-select, then after every pass declaring a post-condition
          (post-regalloc, post-sched, final). The first phase whose
          invariants do not hold raises {!Diag.Check_error}; warnings land
          in [report.check_diags]. [false] skips lint and verifier
          ([marionc --no-check]). *)
  validate : bool;
      (** Independent of [check]: bracket every pass claiming a
          {!Transval.validated_phase} post-condition with translation
          validation — capture the function before the pass and check the
          (input, output) pair for semantic preservation: Schedval after
          scheduling passes, Regval after allocation passes (codes
          V001–V029). Validator errors raise {!Diag.Check_error} like
          verifier errors. [marionc --no-validate] turns it off. *)
  disambig : bool;
      (** Run static memory disambiguation before every post-allocation
          scheduling pass and prune provably independent Mem edges from
          the dependence DAGs (see {!pipeline}); the translation
          validators rebuild their DAGs through the same oracle. Analysis
          time and pruning counters land in the profile
          ([Profile.p_an_time] etc., [marionc --analysis-format=]).
          [marionc --no-disambig] turns it off. *)
  jobs : int;
      (** Fan the per-function compile units out over an OCaml domain
          pool of this size ([marionc -j]). The observable outputs —
          rewritten program, spills, estimates, schedule passes,
          diagnostics — are bit-identical for every [jobs]: units share no
          mutable state, results merge in program order, and errors
          re-raise for the earliest function that would have failed
          sequentially. Only the [profile] timings vary. *)
  on_error : on_error;
      (** How a faulted function recovers ([marionc --on-error=]); see
          {!type-on_error}. *)
  pass_timeout : float option;
      (** Per-pass wall-clock budget in milliseconds
          ([marionc --pass-timeout]), checked {e after} the pass returns —
          domains cannot be preempted. A pass over budget is a fault. *)
  finject : Finject.plan;
      (** Deterministic fault-injection plan fired at pass boundaries
          ([marionc --finject], [MARION_FINJECT]). *)
}
(** Everything a compile can be configured with. Every pass body runs
    under a {!Guard} that traps exceptions (backtrace captured), checks
    the [pass_timeout] deadline and fires the [finject] plan; [on_error]
    decides what a trapped fault does. With {!default}'s values —
    [`Abort], no deadline, empty plan — no fault is injected or timed
    out, and a pass's exception re-raises with its own backtrace, so
    behaviour is bit- and exception-identical to a compiler without that
    layer. *)

val default : options
(** [check], [validate] and [disambig] on; one job; [`Abort] with no
    deadline and the empty injection plan. *)

val pipeline_key : options -> name -> Ckey.t
(** The pipeline identity a function compiled under these options is
    cached under: the strategy, its ordered pass names, and every field of
    [options] that can change the generated code or a report — all but
    [jobs], [on_error], [pass_timeout] and [finject]. The implementation
    destructures the record exhaustively, so a new field fails to build
    until it is classified as keyed or not. *)

type report = {
  strategy : name;
  spilled : int;  (** pseudo-registers spilled across all functions *)
  block_estimates : (string, int) Hashtbl.t;
      (** scheduler cost estimate per block label — the estimated-cycles
          side of Table 4 *)
  schedule_passes : int;
      (** block schedule estimates consumed ([Pass.stats.sched_passes]) *)
  check_diags : Diag.t list;
      (** warnings from the phase verifier (and, through {!compile}, the
          description linter), grouped per function in program order;
          empty when checking is off. Errors never land here — they raise
          {!Diag.Check_error}. *)
  validate_diags : Diag.t list;
      (** non-error findings from the translation validators (Transval);
          empty when validation is off. Validator errors never land here —
          they raise {!Diag.Check_error}, exactly like verifier errors. *)
  faults : Degrade.event list;
      (** one event per function that faulted under a non-[`Abort]
          policy, in program order: the faults trapped (exception,
          deadline, injection — {!Fault}) and how the function was
          resolved (degraded to a lower rung, or skipped). Empty under
          [`Abort] and on every fault-free compile, so existing callers
          see no change. *)
  profile : Profile.t;
      (** per-pass wall times and code-shape statistics for this compile
          ([marionc --time-passes], bench "parallel"). Checking and
          validation time are entries of their own: ["lint"],
          ["verify:<phase>"], ["validate:capture:<phase>"] and
          ["validate:<phase>"]. Timing values are the only
          non-deterministic part of a report; fault and degradation
          counts land in [p_faults]/[p_degraded]/[p_skipped]. *)
}

val compile :
  ?opts:options -> ?cache:Cache.t -> Model.t -> name -> Ir.prog ->
  Mir.prog * report
(** The incremental whole-program driver: lint (when [opts.check]),
    glue the IL to the model sequentially, then fan one unit per
    function out over the domain pool — each unit selects and runs the
    strategy pipeline (or replays a cache hit) — and merge in program
    order. The description linter is memoized by the model's content
    digest behind a mutex, so many (possibly concurrent) compiles against
    one description lint it exactly once, even when the description is
    re-parsed into a structurally equal model each time — and a compile
    against an incoherent description fails before selection.

    [cache] supplies a content-addressed compilation cache (see
    {!Cache}). Each function's key combines the digest of its post-glue
    IL tree ({!Ckey.of_ir_func}), the model digest ({!Ckey.of_model}),
    and {!pipeline_key} — so any edit to the source, the description, the
    strategy, or an output-changing option misses and recompiles. A hit
    returns the cached {!Mir.func} and replays the deterministic report
    parts (spills, estimates, schedule passes, diagnostics)
    bit-identically; its profile shows one synthetic ["cached"] entry in
    place of the pass times, and the profile's cache counters
    ([Profile.p_cache_hits] etc.) are filled in.

    Errors re-raise for the earliest function that would have failed; a
    function whose selection fails no longer preempts an earlier
    function's pipeline error, since selection runs inside the
    per-function unit.

    The robust options interact with the cache in two ways. First, cache
    {e lookups are bypassed} for any function the injection plan may
    target ({!Finject.may_target}) — a warm hit would replay a result
    without crossing the pass boundaries faults are planted at, silently
    neutralising the injection; bypassed functions count as neither hit
    nor miss. Second, a degraded result is {e stored under the fallback
    rung's pipeline identity}, never the original strategy's key, and a
    skipped function is never stored — so the cache can never replay a
    degraded artifact as a clean compile of the requested strategy, while
    a later compile that genuinely requests the fallback strategy hits
    legitimately. *)
