(** The producer→consumer latency oracle (paper 3.3).

    One place answers "how many cycles after [first] issues may [second]
    consume its result": the base [i_latency] of the producer, overridden
    by the first matching %aux directive whose operand-equality condition
    holds. Directives are pre-filtered into a per-model table keyed on
    [(i_id, i_id)], so DAG construction and simulation no longer re-scan
    the whole aux list per dependence.

    The memo never needs invalidating: a [Model.t] is immutable after
    loading, so the oracle is cached by physical identity ({!for_model}).
    Cross-process staleness is instead handled by the compilation cache's
    model digest ([Ckey.of_model]), which keys cache entries on model
    content — two different concerns, two different mechanisms. *)

type t

val create : Model.t -> t
(** Build the [(producer id, consumer id)] rule table. %aux matches by
    instruction name; a directive naming a shared name is expanded to
    every matching id pair, preserving declaration order so conditional
    rules fall through to later directives exactly as a linear scan
    ([Model.aux_latency]) would. *)

val for_model : Model.t -> t
(** The memoized oracle for this model (physical identity; thread-safe). *)

val find : t -> first:Model.instr -> second:Model.instr ->
  opnd_eq:(int -> int -> bool) -> int option
(** The %aux override for a producer/consumer pair, if any directive
    matches; [opnd_eq a b] decides whether (0-based) operand [a] of the
    first equals operand [b] of the second. Agrees with
    [Model.aux_latency] on every pair and predicate. *)

val producer : t -> Model.instr -> bool
(** Whether some %aux directive names the instruction as its first;
    when not, {!find} answers [None] for it against every consumer. *)

val dep : t -> Mir.inst -> Mir.inst -> int
(** [dep t src dst]: the dependence latency of a bound MIR pair — the
    %aux override under operand-value equality, or [src]'s base
    [i_latency]. *)
