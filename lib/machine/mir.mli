(** Machine-level IR: target instructions over pseudo-registers.

    Produced by code selection, rewritten by register allocation, ordered
    by instruction scheduling, executed by the simulator. The instruction
    behaviour comes from the Maril description ({!Model.instr}); MIR adds
    concrete operands plus implicit per-site register effects (call
    clobbers, argument/result registers). *)

type preg = {
  p_id : int;
  p_cls : int;  (** register class *)
  p_name : string option;  (** user variable behind this pseudo, if any *)
  mutable p_global : bool;  (** live in more than one basic block *)
}

type operand =
  | Opreg of preg
  | Ophys of Model.reg
  | Opart of operand * int
      (** [Opart (r, i)]: the i-th half-width part of register operand [r];
          used by func escapes that manipulate register halves (paper 3.4).
          Resolved to real subregisters once registers are assigned. *)
  | Oimm of int
  | Oslot of int * int
      (** frame slot id + addend; becomes an [Oimm] frame-pointer offset
          once the frame is laid out after register allocation *)
  | Osym of string * int  (** symbol + addend; resolved at load time *)
  | Olab of string  (** code label *)

type inst = {
  n_id : int;  (** unique within the function *)
  n_op : Model.instr;
  n_ops : operand array;
  n_xuse : Model.reg list;  (** implicit physical-register uses *)
  n_xdef : Model.reg list;  (** implicit physical-register defs (clobbers) *)
}

type block = {
  b_label : string;
  mutable b_insts : inst list;
  mutable b_succs : string list;  (** labels; fallthrough included *)
}

(** Where register allocation put a pseudo-register: a physical register
    ([Opart]s resolve to its subregisters) or a frame slot, with all
    occurrences rewritten through spill-code temporaries. Recorded in
    {!field-f_locations} so independent checkers (translation validation)
    can audit the allocator's claim without re-running it. *)
type location = Lreg of Model.reg | Lslot of int

type func = {
  f_name : string;
  f_model : Model.t;
  mutable f_blocks : block list;  (** layout order *)
  mutable f_frame_size : int;
  mutable f_next_preg : int;
  mutable f_next_inst : int;
  mutable f_saved : Model.reg list;  (** callee-save registers clobbered *)
  mutable f_slots : (int * int * int) list;  (** slot id, size, align *)
  f_slot_offsets : (int, int) Hashtbl.t;  (** filled by frame layout *)
  mutable f_next_slot : int;
  mutable f_has_calls : bool;
  mutable f_locations : (int * location) list;
      (** pseudo-register id -> final location; overwritten by each
          {!Regalloc.allocate} with the complete map for that run (spill
          temporaries included) *)
}

type global = { g_name : string; g_align : int; g_bytes : bytes }

type prog = { p_model : Model.t; p_globals : global list; p_funcs : func list }

(** {1 Construction} *)

val new_func : Model.t -> string -> func

val fresh_preg : ?name:string -> func -> int -> preg

val mk_inst :
  ?xuse:Model.reg list -> ?xdef:Model.reg list -> func -> Model.instr ->
  operand array -> inst

val clone_inst : func -> inst -> inst
(** Same instruction with a fresh id. *)

val new_block : string -> block

val new_slot : func -> size:int -> align:int -> int
(** Returns the new slot's id. *)

(** {1 Queries} *)

val operand_reg : operand -> [ `Preg of preg | `Phys of Model.reg ] option
(** The register at the root of an operand, [Opart]s included. *)

(** {1 Printing (assembly-like dumps)} *)

val pp_operand : Model.t -> Format.formatter -> operand -> unit

val pp_inst : Model.t -> Format.formatter -> inst -> unit

val pp_block : Model.t -> Format.formatter -> block -> unit

val pp_func : Format.formatter -> func -> unit

val pp_prog : Format.formatter -> prog -> unit
