(** In-order pipeline simulator driven entirely by the machine model.

    Executes MIR programs after register allocation and frame layout: all
    operands must be physical registers, immediates, symbols or labels.
    Instruction behaviour is the Maril semantics expression; instruction
    timing is the same hazard model the scheduler uses — per-byte register
    scoreboard with %aux overrides for latencies, composite resource
    vectors for structural hazards, packing classes for long-instruction
    words, in-order multiple issue, branch delay slots.

    Each run compiles every instruction's semantics once, after its
    operands are bound: registers resolve to their bank bytes, and each
    expression becomes a closure over unboxed ints or floats. Errors in
    the semantics (division by zero, out-of-bounds accesses, unknown
    names) are still raised only when the instruction executes.

    Without a cache or a trace, the timing of each straight-line extent
    (up to the next label, or the first possible redirect and its delay
    slots) is memoized per entry state: the readiness of the registers
    it reads and the scoreboard's state. A repeated state replays the
    recorded issue cycles; the semantics still run for every
    instruction, and every result is the one stepping gives.

    The optional direct-mapped data cache adds a miss penalty to load
    latencies; scheduler estimates ignore it, which reproduces the paper's
    actual-versus-estimated gap of Table 4. *)

type cache_config = { lines : int; line_bytes : int; miss_penalty : int }

type config = {
  memory_size : int;
  fuel : int;  (** maximum instructions to execute before giving up *)
  cache : cache_config option;
  trace_limit : int;
      (** record the first N issued instructions with their issue cycles
          (0 = off); used to display multiple instruction issue *)
}

val default_config : config

type result = {
  output : string;  (** bytes printed through the builtins *)
  return_value : int;  (** integer result register when main returns *)
  cycles : int;
  instructions : int;  (** instructions issued, nops included *)
  block_freq : (string, int) Hashtbl.t;
      (** executions per block label; a block that never issued an
          instruction, such as an empty one, has no entry *)
  loads : int;
  cache_misses : int;
  trace : (int * string) list;
      (** (cycle, instruction) pairs for the first [trace_limit] issues *)
}

exception Sim_error of string

val run : ?config:config -> Mir.prog -> result
(** Load the program (globals into a data segment, functions into a flat
    code segment), start at [main] with the stack pointer at the top of
    memory, and simulate until main returns. *)
