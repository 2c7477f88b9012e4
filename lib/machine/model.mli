(** The compiled machine model: the tables the paper's code generator
    generator produces from a Maril description, consumed by the target-
    and strategy-independent back end. Built by {!Builder}. *)

(** A physical register: class id + architectural index (r\[3\] has
    [idx = 3]). *)
type reg = { cls : int; idx : int }

type rclass = {
  c_id : int;
  c_name : string;
  c_size : int;  (** bytes per register *)
  c_lo : int;
  c_hi : int;
  c_types : Ast.vtype list;
  c_clock : int option;  (** temporal registers name their clock *)
  c_temporal : bool;
  c_bank : int;  (** backing byte bank, shared through %equiv *)
  c_base : int;  (** byte offset of register [c_lo] within the bank *)
  c_loc : Loc.t;  (** %reg declaration site, for diagnostics *)
}

type def = {
  d_id : int;
  d_name : string;
  d_lo : int;
  d_hi : int;
  d_flags : Ast.flag list;
}

type labdef = {
  l_id : int;
  l_name : string;
  l_lo : int;
  l_hi : int;
  l_relative : bool;
}

type mem = { m_id : int; m_name : string; m_lo : int; m_hi : int }

(** Operand kinds, resolved from the description. *)
type okind =
  | Kreg of int  (** register class id *)
  | Kregfix of reg  (** a specific register, e.g. TOYP's r\[0\] *)
  | Kimm of int  (** %def id *)
  | Klab of int  (** %label id *)

type instr = {
  i_id : int;
  i_name : string;
  i_escape : bool;  (** *func escape: expanded by a registered function *)
  i_tag : string option;  (** \[tag\] reference for escapes *)
  i_move : bool;  (** declared with %move *)
  i_opnds : okind array;
  i_type : Ast.vtype option;
  i_affects : int option;  (** EAP clock this instruction advances *)
  i_sem : Ast.stmt list;  (** selection pattern AND simulator semantics *)
  i_rvec : Bitset.t array;  (** resources needed on each cycle after issue *)
  i_cost : int;  (** 0 marks zero-cost dummy instructions (paper 3.3) *)
  i_latency : int;
  i_slots : int;  (** delay slots; negative = executed only if taken *)
  i_class : Bitset.t option;  (** packing class: set of word elements *)
  i_writes : int list;  (** 0-based register operand positions written *)
  i_reads : int list;
  i_wnames : int list;  (** single-register classes written by name *)
  i_rnames : int list;
  i_loads : bool;
  i_stores : bool;
  i_branch : bool;  (** transfers control (calls included) *)
  i_call : bool;
  i_loc : Loc.t;  (** %instr declaration site, for diagnostics *)
}

type aux = {
  x_first : string;
  x_second : string;
  x_cond : Ast.aux_cond option;
  x_latency : int;
  x_loc : Loc.t;  (** %aux declaration site, for diagnostics *)
}

type cwvm = {
  v_general : (Ast.vtype * int) list;  (** type -> register class *)
  v_allocable : reg list;
  v_calleesave : reg list;
  v_sp : reg;
  v_fp : reg;
  v_gp : reg option;
  v_retaddr : reg;
  v_sp_down : bool;
  v_hard : (reg * int) list;  (** hardwired registers and their values *)
  v_args : (Ast.vtype * reg * int) list;  (** type, register, position *)
  v_results : (reg * Ast.vtype) list;
}

type t = {
  name : string;
  resources : string array;
  banks : int array;  (** byte size of each register bank *)
  classes : rclass array;
  defs : def array;
  labels : labdef array;
  memories : mem array;
  clocks : string array;
  elements : string array;  (** long-instruction-word elements *)
  named_classes : (string * Bitset.t) array;
  instrs : instr array;  (** in description order: first match wins *)
  auxes : aux list;
  glues : Ast.glue_decl list;
  cwvm : cwvm;
}

(** {1 Lookups} *)

val find_class : t -> string -> rclass option

val class_exn : t -> int -> rclass

val find_def : t -> string -> def option

val reg_equal : reg -> reg -> bool

val pp_reg : t -> Format.formatter -> reg -> unit

val reg_bytes : t -> reg -> int * int * int
(** [(bank, byte offset, byte size)] of a register's storage. *)

val regs_overlap : t -> reg -> reg -> bool
(** Byte-interval overlap in a shared bank: how %equiv register pairs
    interfere. *)

val subreg : t -> reg -> int -> reg option
(** The register covering the k-th half-width part of [r] (how [Opart]
    operands resolve; e.g. part 1 of TOYP's d1 is r3). *)

val hard_value : t -> reg -> int option

val class_of_type : t -> Ast.vtype -> int option
(** The %general register class for a value type. *)

val move_for_class : t -> int -> instr option
(** The first %move whose destination is in the class (may be an
    escape). *)

val instr_by_tag : t -> string -> instr option

val instrs_by_name : t -> string -> instr list

val find_nop : t -> instr option

val aux_latency :
  t -> first:instr -> second:instr -> opnd_eq:(int -> int -> bool) ->
  int option
(** The %aux latency override for a producer/consumer pair, if any
    directive matches; [opnd_eq i j] decides whether operand [i] of the
    first instruction equals operand [j] of the second (paper 3.3). *)

val allocable_of_class : t -> int -> reg list

val is_callee_save : t -> reg -> bool
(** Overlap-aware: half of a callee-save pair is callee-save. *)

val memo : (t -> 'a) -> t -> 'a
(** [memo f] caches [f] per model by physical identity (thread-safe), for
    tables derived from an immutable model once per target. *)
