(** Composable compilation passes over MIR functions.

    The paper's three real strategies (Postpass, IPS, RASE) are phase
    orderings of the same vocabulary — allocate, schedule, estimate —
    differing only in which passes run, in what order, and under what
    register limits (Castañeda Lozano & Schulte's survey frames the whole
    design space this way). A {!t} reifies one step of such an ordering: a
    named in-place transform of a {!Mir.func} together with the
    {!Diag.phase} post-condition it claims to establish. The pipeline
    runner then inserts verification {e uniformly} — after every pass that
    declares a post-condition — instead of strategies hand-placing
    [verify] calls, and times every pass on the monotonic clock
    ({!Mclock.wall}).

    A pass communicates with its successors only through the function it
    rewrites and through {!stats} — the per-function accumulator for
    spills, schedule-pass counts, block cost estimates and the issue
    orders RASE's sweep hands its prepass. Keeping all inter-pass state
    in [stats] (rather than closures over mutable refs) is what makes
    whole pipelines safe to run on one function per domain: a pipeline
    touches nothing shared. *)

type stats = {
  mutable spilled : int;  (** pseudo-registers sent to memory *)
  mutable sched_passes : int;
      (** block schedule estimates consumed so far: one per block per
          scheduling pass (two for the final schedule, consumed as code
          and as estimate), and one per block per RASE sweep budget, the
          budgets [Listsched.sweep] proves equal without rescheduling
          included. RASE's prepass counts one per block too, though it
          schedules nothing: it consumes the sweep's schedules at the
          chosen budget ({!orders}) *)
  mutable estimates : (string * int) list;
      (** block-label/cost pairs, accumulated {e reversed} (newest first);
          {!run_pipeline} returns them oldest-first. Use
          {!record_estimate}. *)
  mutable orders : Mir.inst list list;
      (** block issue orders, in block order, that one pass schedules for
          a later one to write back: RASE's sweep hands the prepass each
          block's schedule at the register budget it chose, which carries
          the schedule's register appetite to the allocator *)
  mutable sb_probes : int;
      (** scoreboard resource probes issued by this function's
          scheduling passes ({!Scoreboard.stats}) *)
  mutable sb_conflicts : int;  (** probes that found a resource busy *)
  mutable sb_reserves : int;  (** scoreboard reservations (issues) *)
  mutable an_time : float;
      (** wall seconds spent in dataflow analysis (address analysis +
          memory disambiguation) for this function's scheduling passes *)
  mutable an_solves : int;  (** dataflow fixpoints computed *)
  mutable an_iters : int;  (** block transfer applications *)
  mutable an_facts : int;  (** facts at the fixpoints *)
  mutable an_queries : int;  (** alias-oracle queries from DAG builds *)
  mutable an_pruned : int;  (** Mem edges pruned as provably independent *)
}

type t = {
  name : string;  (** stable name, keyed into {!Profile.t} entries *)
  post : Diag.phase option;
      (** the phase whose invariants hold after this pass; the runner
          verifies it when a verifier is supplied *)
  run : stats -> Mir.func -> unit;  (** rewrites the function in place *)
}

val v : ?post:Diag.phase -> string -> (stats -> Mir.func -> unit) -> t
(** [v ~post name run] builds a pass. *)

val record_estimate : stats -> string -> int -> unit
(** Record one block's schedule cost estimate (O(1), reversed
    accumulation). *)

val fresh_stats : unit -> stats

val run_pipeline :
  ?guard:(t -> (unit -> unit) -> unit) ->
  ?verify:(Diag.phase -> Mir.func -> unit) ->
  ?snapshot:(Diag.phase -> Mir.func -> Mir.func option) ->
  ?validate:(Diag.phase -> before:Mir.func -> Mir.func -> unit) ->
  ?record:(string -> wall:float -> cpu:float -> unit) ->
  t list ->
  Mir.func ->
  stats
(** Run each pass in order over the function. [guard] (default: run the
    pass directly) wraps every pass body: it receives the pass and a
    thunk that runs it, and is the fault-isolation hook — the robust
    driver supplies a closure over {!Guard.protect} here, so exception
    trapping, wall-clock deadlines and fault injection happen uniformly
    at every pass boundary without the passes knowing. A guard that
    raises aborts the pipeline at that pass (the pass's time is not
    recorded). Before a pass with
    [post = Some phase], call [snapshot phase fn] (default: [None]); when
    it returns a copy, hand [validate phase ~before fn] the (input,
    output) pair after the pass — the translation-validation hook
    (Transval). After the pass, call [verify phase fn] (default: no
    verification — the identity); verification runs before validation so
    the validators can assume well-formed MIR. Each pass is reported to
    [record name ~wall ~cpu] (default: discard) with its wall-clock
    seconds and the running domain's own CPU seconds
    ({!Mclock.thread_cpu} — process CPU time would bill the pass for
    every other domain's concurrent work under [-j]); verification and
    validation time are {e not} attributed to the pass — those hooks time
    themselves. The returned stats carry [estimates] oldest-first. *)
