(** Symbolic base+offset address analysis over MIR operands — the
    abstract domain behind static memory disambiguation ({!Disambig}).

    Each register location is mapped to what it holds: a known integer,
    the frame pointer, an unresolved frame-slot offset, or an address
    [base + offset] within an object. Objects are frame slots, link-time
    symbols, the raw frame area, or {e opaque} values named by their
    definition site — a load result is at least a fixed value per
    execution of its defining instruction, so accesses through the same
    opaque base at disjoint offsets are still disjoint.

    Soundness assumptions (documented in DESIGN.md): pointer arithmetic
    of a well-defined source program stays within the pointed-to object
    (so [address + unknown] keeps the base with an unknown offset), and
    distinct named objects are disjoint. Frame-pointer arithmetic with a
    raw constant must stay conservative against frame slots, whose
    offsets are assigned only after scheduling. *)

type base =
  | Bslot of int  (** frame slot id *)
  | Bsym of string  (** link-time symbol *)
  | Bfrm  (** the frame area, via raw frame-pointer arithmetic *)
  | Bopq of int * int * int
      (** opaque value: defining instruction id, written operand
          position, naming generation (see {!step}) *)

type value =
  | Vtop
  | Vint of int
  | Vfp
  | Vslotoff of int * int  (** slot id, addend — an [Oslot] operand *)
  | Vaddr of base * int option  (** offset within [base]; [None] = unknown *)

module Env : Map.S with type key = int
(** Keyed by location key ({!Locs}). *)

type env = value Env.t
(** Missing key = {!Vtop}. *)

val empty_env : env

val vadd : value -> value -> value

val vsub : value -> value -> value

val vjoin : value -> value -> value
(** Least upper bound: equal values stay, same-base addresses widen to an
    unknown offset, everything else is {!Vtop}. *)

val eval_operand : Regtab.t -> env -> Mir.operand -> value

val eval : Regtab.t -> env -> Mir.inst -> Ast.expr -> value
(** Evaluate a semantics expression of [inst] in [env] ([Eopnd k] maps to
    the instruction's operand [k-1]). *)

val step : ?gen:int -> Regtab.t -> env -> Mir.inst -> env
(** One instruction's effect: kill every location that overlaps one
    {!Locs.iter_writes} gives (plus any binding naming an opaque value
    this site defined before), then bind evaluable results. [gen]
    (default 0) tags opaque values this step creates: the dataflow
    transfer uses 0, a per-block walk must use a different generation so
    a value carried in from a previous loop iteration is never confused
    with the one re-defined in the block. *)

type access = {
  a_write : bool;
  a_val : value;  (** the address, evaluated in the pre-instruction state *)
  a_size : int;  (** access width in bytes ([i_type], 8 when unknown) *)
}

val accesses : Regtab.t -> env -> Mir.inst -> access list
(** The instruction's memory accesses, extracted from its semantics
    ([m[...]] loads and stores), with addresses evaluated in [env].
    Empty for an instruction whose semantics touch no memory. *)

val may_overlap : access -> access -> bool
(** Whether two accesses can touch a common byte. Conservative: [true]
    unless the addresses are provably disjoint. *)

module Dom : Dataflow.DOMAIN with type fact = env

type result

val solve : ?stats:Dataflow.stats -> Mir.func -> result
(** Forward fixpoint of the address environments over the function,
    seeded with the CWVM frame pointer at entry. *)

val env_in : result -> string -> env option
(** Environment at a block's entry; [None] for unreachable blocks. *)
