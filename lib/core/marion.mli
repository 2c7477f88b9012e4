(** Marion: a retargetable code generator system for RISCs, reproduced
    from Bradlee, Henry and Eggers, PLDI 1991.

    This module is the one-stop public API. A machine is described in
    Maril (parse with {!load_target} or use a built-in from
    [Marion_targets]); C source is compiled under one of four code
    generation strategies; the result can be printed as assembly or
    executed on the description-driven pipeline simulator.

    {[
      let model = Toyp.load () in
      let out = Marion.compile_and_run model Strategy.Postpass
                  ~file:"hello.c" source in
      print_string out.Marion.sim.Sim.output
    ]} *)

type compiled = {
  prog : Mir.prog;  (** the generated machine program *)
  report : Strategy.report;  (** allocation and scheduling statistics *)
}

type run_result = {
  compiled : compiled;
  sim : Sim.result;  (** simulator outcome *)
}

val load_target : name:string -> file:string -> string -> Model.t
(** Parse and build a Maril description. Func escapes must be registered
    separately (see {!Funcs.register}). *)

val parse_c : file:string -> string -> Cast.tunit
(** Parse mini-C source. *)

val compile :
  ?opts:Strategy.options -> ?cache:Cache.t -> Model.t -> Strategy.name ->
  file:string -> string -> compiled
(** Front end, glue, selection, the chosen strategy, frame layout, under
    [opts] (default {!Strategy.default}: lint and phase verification,
    translation validation and memory disambiguation on, one job,
    abort on the first error). Invariant violations raise
    {!Diag.Check_error}; warnings land in [report.check_diags].
    {!Strategy.options} documents every option and its [marionc] flag.

    [cache] supplies a content-addressed compilation cache ({!Cache},
    [marionc --cache]): per-function results keyed on the post-glue IL,
    the model digest, and the pipeline identity are replayed
    bit-identically instead of recompiled — see {!Strategy.compile}. *)

val run : ?config:Sim.config -> compiled -> Sim.result
(** Execute on the pipeline simulator. *)

val compile_and_run :
  ?config:Sim.config -> ?opts:Strategy.options -> ?cache:Cache.t ->
  Model.t -> Strategy.name -> file:string -> string -> run_result

val lint : ?suppress:string list -> Model.t -> Diag.t list
(** {!Marilint.lint}: check a machine description for internal
    consistency ([marionc --lint]). *)

val check_mir : Diag.phase -> Mir.prog -> Diag.t list
(** {!Mircheck.check_prog}: verify a machine program against its model at
    one phase point. *)

val validate :
  ?disambig:bool -> Diag.phase -> before:Mir.prog -> Mir.prog ->
  Diag.t list
(** {!Transval.validate_prog}: translation-validate a pass's (input,
    output) program pair directly — Schedval for {!Diag.Post_sched},
    Regval for {!Diag.Post_regalloc}. Capture the input with
    {!Transval.capture} first if the pass rewrites in place. Pass
    [~disambig:true] when the schedule under validation was produced
    with memory disambiguation on, so the rebuilt DAG prunes the same
    Mem edges. *)

val interpret : file:string -> string -> Cinterp.result
(** The reference C interpreter: the differential-testing oracle. *)

val asm_to_string : Mir.prog -> string
(** Assembly-like rendering of a compiled program. *)

val estimated_cycles : compiled -> Sim.result -> float
(** The paper's Table 4 methodology: per-block schedule cost estimates
    combined with execution frequencies from a (simulated) profiling run.
    Cache effects are deliberately absent from the estimate. *)
