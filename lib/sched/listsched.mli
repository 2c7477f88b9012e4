(** The list scheduler (paper 4.2-4.6).

    Keeps a ready list over the code DAG and repeatedly issues the ready
    instruction with the highest priority — maximum label-weighted distance
    to a leaf, the lowest node index among equals. Each step tests only
    the ready instructions, and when none can issue the loop jumps
    straight to the next cycle at which one can. Structural hazards are
    detected by intersecting each candidate's resource vector with the
    composite vector of everything in flight (4.3); several instructions
    issue in the same cycle when their resources and packing classes
    allow it (multiple instruction issue, 4.3/4.5); branch delay slots are
    filled with nops (4.4); Rule 1 enforces temporal-register liveness
    for explicitly advanced pipelines (4.6).

    An optional register-use limit supports Integrated Prepass Scheduling:
    when the estimated number of live values of a class reaches the limit,
    only candidates that do not increase that pressure may issue (unless
    nothing else is ready). *)

type limit =
  | Unlimited
  | Auto_minus of int
      (** cap each class at (allocable - k): the IPS prepass limit *)
  | Fixed of int  (** cap each class at n: RASE cost estimation *)

type priority =
  | Max_dist  (** maximum distance to a leaf — the paper's heuristic *)
  | Source_order  (** ablation: keep the source order preference *)

type options = {
  anti : bool;  (** include type-3 (anti/output) edges; default true *)
  aux : bool;  (** let %aux override latencies; default true *)
  reg_limit : limit;  (** live-value cap per register class *)
  fill_delay : bool;
      (** insert delay-slot nops (off for prepass scheduling, whose output
          is rescheduled anyway); default true *)
  priority : priority;
}

val default_options : options

val is_nop : Mir.inst -> bool
(** A schedulable no-op: empty or [Snop] semantics and no operands. The
    scheduler drops these from its input and re-inserts fresh ones for
    unfilled delay slots; the translation validator ({!Transval}) treats
    instructions satisfying this predicate as free to add or drop. *)

type result = {
  order : Mir.inst list;  (** issue order, delay-slot nops included *)
  length : int;  (** issue span of the block in cycles *)
}

val schedule_block :
  ?options:options -> ?oracle:Dag.oracle -> ?sb_stats:Scoreboard.stats ->
  Mir.func -> Mir.inst list -> result
(** [oracle] is handed to {!Dag.build} for static memory disambiguation
    of the block's Mem edges. [sb_stats], when given, accumulates
    scoreboard probe/conflict/reserve counts across the call (surfaced by
    [--time-passes]). *)

val sweep :
  ?sb_stats:Scoreboard.stats -> budgets:int -> Mir.func -> Mir.inst list ->
  result array
(** [sweep ~budgets fn insts] is the RASE cost sweep of one block: the
    array's element [n - 1] is
    [schedule_block ~options:{default_options with fill_delay = false;
    reg_limit = Fixed n}] for [n = 1 .. budgets], issue order and length.
    The DAG is built once, and once the register limit stops binding at
    some budget the larger budgets share that budget's schedule without
    rescheduling — exactly, since a limit that never rejected a candidate
    leaves the schedule equal to the unlimited one (see the
    implementation comment). *)

val schedule_func :
  ?options:options -> ?oracle:Dag.oracle -> ?sb_stats:Scoreboard.stats ->
  Mir.func -> (string * int) list
(** Schedule every block in place; returns each block's label and
    schedule length, in block order. *)

val estimate_func :
  ?options:options -> ?oracle:Dag.oracle -> ?sb_stats:Scoreboard.stats ->
  Mir.func -> (string * int) list
(** {!schedule_func}'s result without rewriting any block. *)
