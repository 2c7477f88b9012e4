(** Per-model register tables for liveness and the allocator.

    Every hard register [(cls, idx)] of a class's declared range gets a
    dense id, class by class in declaration order; registers that
    overlap through %equiv keep ids of their own ({!Liveness} keys hard
    registers by these ids). Over them the table holds what the
    allocator's select phase asks of each register: the
    callee-save test, the allocable registers each one overlaps, and
    per class the allocable registers in color order. The tables are
    built once per model, eagerly ({!Model.memo}), so domains share them
    read-only. *)

type t = private {
  n_hard : int;  (** hard register ids are [0 .. n_hard - 1] *)
  regs : Model.reg array;  (** id -> register *)
  offset : int array;
      (** class -> [offset.(cls) + idx] is the id of [(cls, idx)] *)
  bank : int array;  (** class -> register bank *)
  size : int array;  (** class -> bytes per register *)
  callee_save : bool array;  (** id -> {!Model.is_callee_save} *)
  overlaps : int array array;
      (** id -> the allocable registers it overlaps ({!Model.regs_overlap}),
          ascending *)
  overlap : Bitset.t;
      (** [a * n_hard + b] is a member iff registers [a] and [b] overlap *)
  orders : int array array array;
      (** [orders.(cls).(k)]: the first [k] allocable registers of the
          class (in [%allocable] order), caller-save ones first, each
          group in that order. [k] runs from 0 to the class's allocable
          count. *)
}

val get : Model.t -> t
(** The model's tables, built on first use. *)

val id : t -> Model.reg -> int
(** Raises [Invalid_argument] for an index outside the class's range. *)

val colors : t -> int option -> int -> int array
(** [colors t max_local cls]: the colors a [cls] pseudo may take, in the
    order select tries them — the first [max_local] allocable registers
    of the class ([None]: all of them), caller-save ones first. *)
