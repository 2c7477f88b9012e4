(** Per-compile observability: where did this compile spend its time, and
    what did each phase do to the code?

    One [Profile.t] is built per {!Strategy.compile}. Pass runners
    ({!Pass.run_pipeline}) and the strategy driver feed it named time
    samples — one per pass per function, merged in program order so the
    rendered profile is deterministic up to timing jitter — plus
    aggregate shape statistics
    (functions, blocks, instructions, spills, schedule passes) and, when
    a compilation cache is attached, its hit/miss/eviction/stale counters
    for this compile. Rendered as text
    ([marionc --time-passes]) or JSON ([--check-format=json]), alongside
    — not inside — the Diag JSON. *)

type entry = {
  e_name : string;  (** pass name, e.g. ["allocate"], ["verify:final"] *)
  mutable e_wall : float;  (** accumulated wall-clock seconds *)
  mutable e_cpu : float;
      (** accumulated {e per-thread} CPU seconds
          ({!Mclock.thread_cpu}): only the domain that ran the pass is
          billed, so the figure is honest at any [-j] — unlike
          [Sys.time], which counts every domain's concurrent work *)
  mutable e_runs : int;  (** how many times the pass ran (once per fn) *)
}

type t = {
  p_strategy : string;
  p_jobs : int;  (** domain count the compile was asked to use *)
  mutable p_funcs : int;
  mutable p_blocks : int;
  mutable p_insts : int;  (** instructions in the final code, nops included *)
  mutable p_spilled : int;
  mutable p_schedule_passes : int;
  mutable p_sb_probes : int;
      (** scoreboard resource probes across all scheduling passes *)
  mutable p_sb_conflicts : int;  (** probes that found a resource busy *)
  mutable p_sb_reserves : int;  (** scoreboard reservations (issues) *)
  mutable p_an_time : float;
      (** wall seconds spent in dataflow analysis (address analysis for
          memory disambiguation) across all functions; [0.] with
          [--no-disambig]. Summed across domains under [jobs > 1] *)
  mutable p_an_solves : int;  (** dataflow fixpoints computed *)
  mutable p_an_iters : int;  (** dataflow block-transfer applications *)
  mutable p_an_facts : int;  (** facts computed at the fixpoints *)
  mutable p_an_queries : int;  (** alias-oracle queries from DAG builds *)
  mutable p_an_pruned : int;
      (** Mem edges pruned as provably independent *)
  mutable p_wall : float;  (** whole-compile wall seconds (monotonic) *)
  mutable p_cpu : float;  (** whole-compile CPU seconds, summed over
                              domains — [p_cpu > p_wall] means the domain
                              pool really ran in parallel *)
  mutable p_entries : entry list;  (** first-recorded order *)
  mutable p_cache_used : bool;
      (** a compilation cache was attached to this compile *)
  mutable p_cache_hits : int;  (** functions replayed from the cache *)
  mutable p_cache_misses : int;  (** functions compiled and stored *)
  mutable p_cache_evictions : int;  (** LRU evictions during the compile *)
  mutable p_cache_stale : int;  (** persisted entries rejected as unusable *)
  mutable p_faults : int;
      (** pass faults trapped by the robust driver (injected included);
          [0] unless [--on-error]/[--finject]/[--pass-timeout] are in
          play *)
  mutable p_degraded : int;
      (** functions that recovered on a lower ladder rung ({!Degrade}) *)
  mutable p_skipped : int;
      (** functions given up after ladder exhaustion or under [`Skip] *)
}

val create : ?jobs:int -> strategy:string -> unit -> t
(** Fresh profile with zeroed counters; [jobs] defaults to 1. *)

val add : ?cpu:float -> t -> string -> float -> unit
(** [add t name secs] accumulates one timed run of pass [name]; [cpu]
    (default 0) is the run's per-thread CPU time. First recording of a
    name fixes its position in {!val-entries}. *)

val entries : t -> entry list
(** Entries in first-recorded order (pipeline order for a compile, since
    units are merged in program order). *)

val passes_wall : t -> float
(** Sum of all entry wall times. For a sequential compile this accounts
    for nearly all of [p_wall] (the remainder is driver glue); under a
    parallel compile it can exceed [p_wall] — it is a sum over domains. *)

val to_text : t -> string
(** Multi-line human-readable rendering ([marionc --time-passes]). *)

val to_json : t -> string
(** One JSON object:
    [{"strategy":…,"jobs":…,"funcs":…,…,"wall_s":…,"cpu_s":…,
      "analysis":{"time_s":…,"solves":…,"iterations":…,"facts":…,
      "queries":…,"pruned":…},
      "cache":{"used":…,"hits":…,…},
      "passes":[{"name":…,"wall_s":…,"cpu_s":…,"runs":…},…]}]. *)
