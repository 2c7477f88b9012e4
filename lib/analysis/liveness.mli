(** Backward liveness over MIR: the register allocator's interference
    and Mircheck's A001/A002 warnings.

    Keys are the location keys of {!Locs}, dense ints over hard and
    pseudo registers, so that precolored values (CWVM argument/result
    registers, call clobbers) constrain allocation: a hard register's
    key is its {!Regtab} id, a pseudo-register's is [n_hard + p_id] (a
    function numbers its pseudos [0 .. f_next_preg - 1]). %equiv halves
    and the pair they form are keys of their own. Facts are {!Bitset}s
    over all keys, one live-in and one live-out per block. What an
    instruction reads and writes is {!Locs}'s effect walk without its
    by-name class effects.

    One transfer, {!step}, decides what an instruction kills and
    generates. A full write kills its key. An [Opart] write (paper 3.4:
    the half moves of a double) writes one half of its register's key:
    the key dies only at the write that completes both halves with no
    read of the key in between. So a double written as two half moves is
    live between them, and nothing placed there may take its register.

    The fixpoint stays outside {!Dataflow.Solve}: every block contributes
    its uses, exits or not, so a value live around a loop with no exit is
    live there, and the facts are updated in place. *)

type t

val compute : Mir.func -> t
(** Liveness of the function as it stands. In a call-free function the
    return-address register is live out of the last block, where the
    epilogue's return jump will read it. Labels are taken to be unique;
    successor labels naming no block are ignored. *)

val enter : t -> unit
(** Start a backward walk of a block: forget every pending half write. *)

val step : t -> kill:(int -> unit) -> gen:(int -> unit) -> Mir.inst -> unit
(** The instruction's backward transfer, in a walk begun by {!enter}
    that visits the block's instructions last to first. First [kill]
    receives each key the instruction's writes kill: a full or implicit
    write, or the [Opart] write that completes both halves of a key
    whose other half is written below with no read in between. A lone
    half write kills nothing. Then [gen] receives each key it reads, in
    the walk's order; a key read twice is passed twice. *)

val live_in : t -> string -> Bitset.t
(** The keys live into the block with this label. The set belongs to the
    analysis: copy it before changing it. Raises [Not_found] for a label
    naming no block. *)

val live_out : t -> string -> Bitset.t

val loop_depth : Mir.func -> (string, int) Hashtbl.t
(** Approximate loop nesting depth per block, from layout-order back
    edges; used to weight spill costs. *)
