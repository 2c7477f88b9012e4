(** A reusable forward dataflow framework over the MIR control-flow
    graph.

    A client packages its lattice as a {!DOMAIN} — a fact type with join,
    equality, a boundary fact and a per-block transfer function — and
    {!Solve} produces the classic worklist fixpoint over a function's
    blocks. The incoming fact of a block is the join of its predecessors'
    outgoing facts, the entry block's also joined with the boundary.

    Bottom is represented outside the domain: a block no fact has reached
    yet simply has no entry in the result, so clients need no artificial
    bottom element and unreachable blocks are distinguishable from blocks
    with an empty fact. Termination requires the usual: [join] computes a
    least upper bound in a lattice of finite height and [transfer] is
    monotone.

    A {e must}-analysis gets its optimistic top from the same
    representation: with intersection as [join], a source block not yet
    reached contributes nothing — it acts as the universal set — so the
    fixpoint is the greatest one, and blocks left without a fact are
    exactly those unreachable from the boundary ([M031] in [Mircheck]). *)

type stats = {
  mutable solves : int;  (** fixpoints computed *)
  mutable iterations : int;  (** block transfer applications *)
  mutable facts : int;  (** total fact size at the fixpoint ({!DOMAIN.nfacts}
                            summed over reached blocks) *)
}

val fresh_stats : unit -> stats

module type DOMAIN = sig
  type fact

  val boundary : Mir.func -> fact
  (** The fact at function entry. *)

  val equal : fact -> fact -> bool

  val join : fact -> fact -> fact
  (** Least upper bound of two incoming facts. Must be commutative and
      associative up to [equal]. *)

  val transfer : Mir.func -> Mir.block -> fact -> fact
  (** The block's effect on a fact, walking its instructions in order.
      Must be monotone. *)

  val nfacts : fact -> int
  (** Size measure for profiling ({!stats.facts}). *)
end

module Solve (D : DOMAIN) : sig
  type result

  val solve : ?stats:stats -> Mir.func -> result
  (** Run the worklist to fixpoint over the function's blocks.
      [stats], when given, accumulates solver counters. *)

  val flow_in : result -> string -> D.fact option
  (** The fact at block entry, flowing into the block's transfer. [None]
      when no fact reached the block (unreachable from the entry). *)

  val flow_out : result -> string -> D.fact option
  (** The transfer's output, at block exit. *)
end
