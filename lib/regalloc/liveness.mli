(** Backward liveness over MIR, for the register allocator.

    Keys are dense ints over pseudo and hard registers, so that
    precolored values (CWVM argument/result registers, call clobbers)
    constrain allocation: a pseudo-register's key is its [p_id] (a
    function numbers its pseudos [0 .. f_next_preg - 1]), and a hard
    register's is [f_next_preg] plus its {!Regtab} id. %equiv halves and
    the pair they form are keys of their own. Facts are {!Bitset}s over
    all keys, one live-in and one live-out per block. A def kills its
    key.

    The fixpoint stays outside {!Dataflow.Solve} on purpose: that solver
    leaves a loop with no path to an exit without any fact, and the
    allocator would miss the interference of values live around it.
    Here every block contributes its uses, exits or not. *)

type t

val compute : Mir.func -> t
(** Liveness of the function as it stands. In a call-free function the
    return-address register is live out of the last block, where the
    epilogue's return jump will read it. Labels are taken to be unique;
    successor labels naming no block are ignored. *)

val hard_key : t -> Model.reg -> int
(** [f_next_preg] (at {!compute}) plus the register's {!Regtab} id. *)

val reg_key : t -> [ `Preg of Mir.preg | `Phys of Model.reg ] -> int

val iter_uses : t -> (int -> unit) -> Mir.inst -> unit
(** The keys an instruction reads: its register read positions in
    order (an [Opart] reads its whole register), then its implicit
    uses. A key read twice is passed twice. *)

val iter_defs : t -> (int -> unit) -> Mir.inst -> unit
(** The keys it writes, in the order of {!iter_uses}. *)

val live_in : t -> string -> Bitset.t
(** The keys live into the block with this label. The set belongs to the
    analysis: copy it before changing it. Raises [Not_found] for a label
    naming no block. *)

val live_out : t -> string -> Bitset.t

val loop_depth : Mir.func -> (string, int) Hashtbl.t
(** Approximate loop nesting depth per block, from layout-order back
    edges; used to weight spill costs. *)
