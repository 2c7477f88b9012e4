(** Per-model register tables: the hard-register half of the location
    key ({!Locs}) and what the DAG builder, liveness and the allocator
    ask of each register.

    Every hard register [(cls, idx)] of a class's declared range gets a
    dense id, class by class in declaration order; registers that
    overlap through %equiv keep ids of their own. A pseudo-register's
    location key follows them, at [n_hard + p_id]. Over the ids the
    table holds each register's overlap and cover sets and temporal
    clock, the callee-save test, and per class the allocable registers
    in color order. Overlap and cover are found by walking the registers
    in (bank, offset) order, so the tables grow with the register file,
    not with its square. They are built once per model, eagerly
    ({!Model.memo}), so domains share them read-only. *)

type t = private {
  n_hard : int;  (** hard register ids are [0 .. n_hard - 1] *)
  regs : Model.reg array;  (** id -> register *)
  offset : int array;
      (** class -> [offset.(cls) + idx] is the id of [(cls, idx)] *)
  first : int array;
      (** class -> the id of its first register, the one a by-name
          effect names; [-1] for an empty class *)
  bank : int array;  (** class -> register bank *)
  size : int array;  (** class -> bytes per register *)
  callee_save : bool array;  (** id -> {!Model.is_callee_save} *)
  overlaps : int array array;
      (** id -> every register whose bytes meet its own
          ({!Model.regs_overlap}), itself included *)
  covers : int array array;
      (** id -> every register a write of it fully overwrites, itself
          included; a partial %equiv overlap does not cover *)
  clock : int option array;
      (** id -> the EAP clock of a temporal register *)
  orders : int array array array;
      (** [orders.(cls).(k)]: the first [k] allocable registers of the
          class (in [%allocable] order), caller-save ones first, each
          group in that order. [k] runs from 0 to the class's allocable
          count. *)
}

val get : Model.t -> t
(** The model's tables, built on first use. *)

val find : t -> Model.reg -> int
(** The register's id, or [-1] for a class or index outside the
    model. *)

val id : t -> Model.reg -> int
(** {!find} that raises [Invalid_argument] instead of returning [-1]. *)

val colors : t -> int option -> int -> int array
(** [colors t max_local cls]: the colors a [cls] pseudo may take, in the
    order select tries them — the first [max_local] allocable registers
    of the class ([None]: all of them), caller-save ones first. *)
