(* The intermediate language consumed by the Marion back end.

   Mirrors the role of the Lcc IL in the paper (section 2): per-basic-block
   forests of typed low-level operator trees. Values live in [temp]s
   (pseudo-register candidates); an IL node referenced more than once is
   forced into a temp by the front end, so the trees handed to the code
   selector are genuine trees, with DAG sharing expressed through temps
   (paper 2.1: "an IL node with more than one parent is forced into a
   register"). *)

type ty = I8 | I16 | I32 | F32 | F64

let ty_size = function I8 -> 1 | I16 -> 2 | I32 | F32 -> 4 | F64 -> 8

let ty_is_float = function F32 | F64 -> true | I8 | I16 | I32 -> false

let ty_to_string = function
  | I8 -> "i8"
  | I16 -> "i16"
  | I32 -> "i32"
  | F32 -> "f32"
  | F64 -> "f64"

type binop =
  | Add | Sub | Mul | Div | Rem
  | And | Or | Xor | Shl | Shr (* arithmetic *) | Shru (* logical *)
  | Cmp (* the generic compare '::': sign of a - b *)

type relop = Eq | Ne | Lt | Le | Gt | Ge

type unop = Neg | Bnot | Lnot

type temp = {
  t_id : int;
  t_ty : ty;
  t_name : string option;  (* user variable name, for readable dumps *)
}

(* A stack-frame slot (array, spilled aggregate, address-taken local).
   Offsets are assigned once the frame is laid out. *)
type slot = {
  s_id : int;
  s_size : int;
  s_align : int;
  s_name : string;
  mutable s_offset : int;  (* frame-pointer-relative, set by Frame *)
}

type expr = { e_id : int; e_ty : ty; e_kind : ekind }
(* [e_id] identifies the node: the front end hash-conses nodes within a
   basic block, so two structurally equal, physically shared occurrences
   carry the same id. The id is what lets the DAG pass find nodes with
   more than one parent and force them into temps. *)

and ekind =
  | Const of int
  | Sym of string  (* address of a global *)
  | Slotaddr of slot  (* address of a frame slot *)
  | Temp of temp
  | Unop of unop * expr
  | Binop of binop * expr * expr
  | Rel of relop * expr * expr  (* 0/1-valued comparison *)
  | Load of expr  (* loads a value of this node's type *)
  | Cvt of ty * expr  (* conversion to this node's type *)

type stmt =
  | Assign of temp * expr
  | Store of ty * expr * expr  (* width, address, value *)
  | Jump of string
  | Cjump of relop * expr * expr * string  (* branch if true, else fall through *)
  | Call of { dst : temp option; fn : string; args : expr list }
  | Ret of expr option

type block = {
  b_label : string;
  mutable b_stmts : stmt list;
}

type func = {
  fn_name : string;
  fn_ret : ty option;
  mutable fn_params : (temp * ty) list;
  mutable fn_blocks : block list;  (* layout order; fallthrough is next *)
  mutable fn_slots : slot list;
  mutable fn_next_temp : int;
  mutable fn_next_label : int;
}

type global = {
  gl_name : string;
  gl_align : int;
  gl_bytes : bytes;  (* initial contents; zeros for BSS *)
}

type prog = { globals : global list; funcs : func list }

(* ------------------------------------------------------------------ *)
(* Construction helpers                                                 *)
(* ------------------------------------------------------------------ *)

(* atomic: code selection allocates nodes (constant splitting, compare
   lowering) and runs one function per domain under the parallel driver,
   so a plain ref would race and could hand out colliding ids *)
let next_expr_id = Atomic.make 0

let mk ty kind =
  { e_id = Atomic.fetch_and_add next_expr_id 1 + 1; e_ty = ty; e_kind = kind }

let const ?(ty = I32) v = mk ty (Const v)

let new_temp fn ?name ty =
  let t = { t_id = fn.fn_next_temp; t_ty = ty; t_name = name } in
  fn.fn_next_temp <- fn.fn_next_temp + 1;
  t

let new_label fn prefix =
  let l = Printf.sprintf ".%s%d_%s" prefix fn.fn_next_label fn.fn_name in
  fn.fn_next_label <- fn.fn_next_label + 1;
  l

let new_slot fn ~name ~size ~align =
  let s =
    { s_id = List.length fn.fn_slots; s_size = size; s_align = align;
      s_name = name; s_offset = 0 }
  in
  fn.fn_slots <- fn.fn_slots @ [ s ];
  s

(* ------------------------------------------------------------------ *)
(* Successors of a block, given layout order                           *)
(* ------------------------------------------------------------------ *)

let block_succs ~next b =
  let rec last = function
    | [] -> None
    | [ s ] -> Some s
    | _ :: tl -> last tl
  in
  let fallthrough = match next with Some l -> [ l ] | None -> [] in
  match last b.b_stmts with
  | Some (Jump l) -> [ l ]
  | Some (Cjump (_, _, _, l)) -> l :: fallthrough
  | Some (Ret _) -> []
  | Some (Assign _ | Store _ | Call _) | None -> fallthrough

(* ------------------------------------------------------------------ *)
(* Constant folding (also used for the Maril 'eval' builtin)           *)
(* ------------------------------------------------------------------ *)

let mask32 v = v land 0xFFFFFFFF

let sext32 v =
  let v = mask32 v in
  if v land 0x80000000 <> 0 then v - 0x100000000 else v

let fold_binop op a b =
  match op with
  | Add -> Some (sext32 (a + b))
  | Sub -> Some (sext32 (a - b))
  | Mul -> Some (sext32 (a * b))
  | Div -> if b = 0 then None else Some (sext32 (a / b))
  | Rem -> if b = 0 then None else Some (sext32 (a mod b))
  | And -> Some (sext32 (a land b))
  | Or -> Some (sext32 (a lor b))
  | Xor -> Some (sext32 (a lxor b))
  | Shl -> Some (sext32 (a lsl (b land 31)))
  | Shr -> Some (sext32 (a asr (b land 31)))
  | Shru -> Some (sext32 (mask32 a lsr (b land 31)))
  | Cmp -> Some (compare a b)

let fold_unop op a =
  match op with
  | Neg -> sext32 (-a)
  | Bnot -> sext32 (lnot a)
  | Lnot -> if a = 0 then 1 else 0

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let binop_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Rem -> "%"
  | And -> "&"
  | Or -> "|"
  | Xor -> "^"
  | Shl -> "<<"
  | Shr -> ">>"
  | Shru -> ">>>"
  | Cmp -> "::"

let relop_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let pp_temp ppf t =
  match t.t_name with
  | Some n -> Format.fprintf ppf "%s.%d" n t.t_id
  | None -> Format.fprintf ppf "t%d" t.t_id

let rec pp_expr ppf e =
  match e.e_kind with
  | Const v -> Format.fprintf ppf "%d" v
  | Sym s -> Format.fprintf ppf "&%s" s
  | Slotaddr s -> Format.fprintf ppf "&frame.%s" s.s_name
  | Temp t -> pp_temp ppf t
  | Unop (Neg, a) -> Format.fprintf ppf "(-%a)" pp_expr a
  | Unop (Bnot, a) -> Format.fprintf ppf "(~%a)" pp_expr a
  | Unop (Lnot, a) -> Format.fprintf ppf "(!%a)" pp_expr a
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (binop_to_string op) pp_expr b
  | Rel (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp_expr a (relop_to_string op) pp_expr b
  | Load a -> Format.fprintf ppf "%s[%a]" (ty_to_string e.e_ty) pp_expr a
  | Cvt (t, a) -> Format.fprintf ppf "%s(%a)" (ty_to_string t) pp_expr a

let pp_stmt ppf = function
  | Assign (t, e) -> Format.fprintf ppf "%a := %a" pp_temp t pp_expr e
  | Store (ty, a, v) ->
      Format.fprintf ppf "%s[%a] := %a" (ty_to_string ty) pp_expr a pp_expr v
  | Jump l -> Format.fprintf ppf "goto %s" l
  | Cjump (op, a, b, l) ->
      Format.fprintf ppf "if %a %s %a goto %s" pp_expr a (relop_to_string op)
        pp_expr b l
  | Call { dst; fn; args } ->
      let pp_args =
        Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
          pp_expr
      in
      (match dst with
      | Some t -> Format.fprintf ppf "%a := %s(%a)" pp_temp t fn pp_args args
      | None -> Format.fprintf ppf "%s(%a)" fn pp_args args)
  | Ret None -> Format.pp_print_string ppf "ret"
  | Ret (Some e) -> Format.fprintf ppf "ret %a" pp_expr e

let pp_func ppf fn =
  Format.fprintf ppf "func %s:@." fn.fn_name;
  List.iter
    (fun b ->
      Format.fprintf ppf "%s:@." b.b_label;
      List.iter (fun s -> Format.fprintf ppf "  %a@." pp_stmt s) b.b_stmts)
    fn.fn_blocks
