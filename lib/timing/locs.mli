(** Storage locations: one key and one per-instruction effect walk.

    "What storage does this instruction read and write" is answered here
    once, for the DAG builder, the list scheduler's register pressure,
    liveness, the verifier's def-use and temporal checks, and the
    address analysis. The walk projects the machine description's
    operand tables ([i_reads]/[i_writes], paper 3): the register operand
    positions, then the instruction's implicit uses or defs, then the
    single-register classes it names.

    A location key is an int that needs no per-function state: a hard
    register's {!Regtab} id ([0 .. n_hard - 1]), or [n_hard + p_id] for
    a pseudo-register. An [Opart] names the key of its root register.
    Malformed MIR gives no key rather than raising: an operand position
    outside the instruction, or a register outside its class, is
    skipped. *)

val class_valid : Model.t -> int -> bool

val reg_valid : Model.t -> Model.reg -> bool
(** In-range class id and register index within the class bounds. *)

val named_reg : Model.t -> int -> Model.reg
(** The single register of a named (usually temporal) register class. *)

val pseudo : Regtab.t -> Mir.preg -> int
(** A pseudo-register's key, [n_hard + p_id]. *)

val key : Regtab.t -> Mir.operand -> int
(** The key of the register at the root of an operand, or [-1]. *)

(** {1 The effect walk}

    Each effect comes with how it touches its location, one small int: *)

val whole : int
(** a whole register operand *)

val half0 : int
(** half 0 of the root of an [Opart] operand (paper 3.4) *)

val half1 : int
(** half 1 of it *)

val implicit : int
(** an implicit use or def ([n_xuse]/[n_xdef]) *)

val by_name : int
(** a by-name class effect ([i_rnames]/[i_wnames]) *)

val iter_reads : Regtab.t -> (int -> int -> unit) -> Mir.inst -> unit
(** [iter_reads tab f i] calls [f key how] for each location [i] reads,
    in order: register read positions, implicit uses, by-name reads. A
    location read twice is passed twice. Allocates nothing. *)

val iter_writes : Regtab.t -> (int -> int -> unit) -> Mir.inst -> unit
(** The same for the locations [i] writes, half writes included. *)

val preg_of : Regtab.t -> Mir.inst -> int -> Mir.preg option
(** The pseudo-register with this key among the instruction's operands:
    how a client of the walk names a pseudo or finds its class. *)
