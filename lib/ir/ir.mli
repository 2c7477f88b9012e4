(** The intermediate language consumed by the Marion back end.

    Mirrors the role of the Lcc IL in the paper (section 2): per-basic-block
    forests of typed low-level operator trees. Values live in {!temp}s
    (pseudo-register candidates); a node referenced more than once within a
    block is forced into a temp by the front end's DAG pass, so the trees
    handed to the code selector are genuine trees, with sharing expressed
    through temps. *)

(** Value types: the signed C native types plus the two IEEE widths.
    Pointers are [I32]. *)
type ty = I8 | I16 | I32 | F32 | F64

val ty_size : ty -> int

val ty_is_float : ty -> bool

val ty_to_string : ty -> string

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor
  | Shl  (** left shift *)
  | Shr  (** arithmetic right shift *)
  | Shru  (** logical right shift *)
  | Cmp  (** the generic compare '::': the sign of a - b *)

type relop = Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Bnot | Lnot

type temp = {
  t_id : int;
  t_ty : ty;
  t_name : string option;  (** user variable name, for readable dumps *)
}

(** A stack-frame object (array, address-taken local). Offsets are
    assigned by frame layout after register allocation. *)
type slot = {
  s_id : int;
  s_size : int;
  s_align : int;
  s_name : string;
  mutable s_offset : int;
}

type expr = { e_id : int; e_ty : ty; e_kind : ekind }
(** [e_id] identifies the node: the front end hash-conses nodes within a
    block, so structurally equal shared occurrences carry the same id —
    which is how the DAG pass finds multi-parent nodes. *)

and ekind =
  | Const of int
  | Sym of string  (** address of a global *)
  | Slotaddr of slot  (** address of a frame slot *)
  | Temp of temp
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Rel of relop * expr * expr  (** 0/1-valued comparison *)
  | Load of expr  (** loads a value of this node's type from the address *)
  | Cvt of ty * expr  (** conversion to this node's type *)

type stmt =
  | Assign of temp * expr
  | Store of ty * expr * expr  (** width, address, value *)
  | Jump of string
  | Cjump of relop * expr * expr * string
      (** branch when true, fall through otherwise *)
  | Call of { dst : temp option; fn : string; args : expr list }
  | Ret of expr option

type block = { b_label : string; mutable b_stmts : stmt list }

type func = {
  fn_name : string;
  fn_ret : ty option;
  mutable fn_params : (temp * ty) list;
  mutable fn_blocks : block list;  (** layout order; fallthrough is next *)
  mutable fn_slots : slot list;
  mutable fn_next_temp : int;
  mutable fn_next_label : int;
}

type global = {
  gl_name : string;
  gl_align : int;
  gl_bytes : bytes;  (** initial contents; zeros for BSS *)
}

type prog = { globals : global list; funcs : func list }

(** {1 Construction} *)

val mk : ty -> ekind -> expr
(** Allocate a node with a fresh id. *)

val const : ?ty:ty -> int -> expr

val new_temp : func -> ?name:string -> ty -> temp

val new_label : func -> string -> string
(** A fresh block label, unique within the program (the function name is
    embedded). *)

val new_slot : func -> name:string -> size:int -> align:int -> slot

(** {1 Control flow} *)

val block_succs : next:string option -> block -> string list
(** Successor labels given the layout-order following label. *)

(** {1 32-bit arithmetic} *)

val mask32 : int -> int

val sext32 : int -> int

val fold_binop : binop -> int -> int -> int option
(** 32-bit two's-complement folding; [None] on division by zero. *)

val fold_unop : unop -> int -> int

(** {1 Printing} *)

val binop_to_string : binop -> string

val relop_to_string : relop -> string

val pp_temp : Format.formatter -> temp -> unit

val pp_expr : Format.formatter -> expr -> unit

val pp_stmt : Format.formatter -> stmt -> unit

val pp_func : Format.formatter -> func -> unit
