type t = string

let format_version = 2

let to_hex = Digest.to_hex

(* ------------------------------------------------------------------ *)
(* IL functions: explicit structural walk                              *)
(* ------------------------------------------------------------------ *)

(* Every constructor is tagged and every scalar is written fixed-width,
   so distinct structures cannot collide by concatenation ambiguity.
   [e_id] is deliberately not written: ids come from a process-global
   counter (Ir.mk) and differ between front-end runs over identical
   source, while sharing is already expressed through temps by the time
   the back end sees the trees. *)

let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_str buf s =
  add_int buf (String.length s);
  Buffer.add_string buf s

let add_opt add buf = function
  | None -> Buffer.add_char buf '\000'
  | Some v ->
      Buffer.add_char buf '\001';
      add buf v

let tag_ty = function
  | Ir.I8 -> 0
  | Ir.I16 -> 1
  | Ir.I32 -> 2
  | Ir.F32 -> 3
  | Ir.F64 -> 4

let tag_binop = function
  | Ir.Add -> 0 | Ir.Sub -> 1 | Ir.Mul -> 2 | Ir.Div -> 3 | Ir.Rem -> 4
  | Ir.And -> 5 | Ir.Or -> 6 | Ir.Xor -> 7
  | Ir.Shl -> 8 | Ir.Shr -> 9 | Ir.Shru -> 10 | Ir.Cmp -> 11

let tag_relop = function
  | Ir.Eq -> 0 | Ir.Ne -> 1 | Ir.Lt -> 2 | Ir.Le -> 3 | Ir.Gt -> 4
  | Ir.Ge -> 5

let tag_unop = function Ir.Neg -> 0 | Ir.Bnot -> 1 | Ir.Lnot -> 2

let add_ty buf ty = Buffer.add_char buf (Char.chr (tag_ty ty))

let add_temp buf (t : Ir.temp) =
  add_int buf t.Ir.t_id;
  add_ty buf t.Ir.t_ty;
  add_opt add_str buf t.Ir.t_name

let add_slot buf (s : Ir.slot) =
  add_int buf s.Ir.s_id;
  add_int buf s.Ir.s_size;
  add_int buf s.Ir.s_align;
  add_str buf s.Ir.s_name

let rec add_expr buf (e : Ir.expr) =
  add_ty buf e.Ir.e_ty;
  match e.Ir.e_kind with
  | Ir.Const n ->
      Buffer.add_char buf 'C';
      add_int buf n
  | Ir.Sym s ->
      Buffer.add_char buf 'S';
      add_str buf s
  | Ir.Slotaddr s ->
      Buffer.add_char buf 'A';
      add_slot buf s
  | Ir.Temp t ->
      Buffer.add_char buf 'T';
      add_temp buf t
  | Ir.Unop (op, a) ->
      Buffer.add_char buf 'U';
      add_int buf (tag_unop op);
      add_expr buf a
  | Ir.Binop (op, a, b) ->
      Buffer.add_char buf 'B';
      add_int buf (tag_binop op);
      add_expr buf a;
      add_expr buf b
  | Ir.Rel (op, a, b) ->
      Buffer.add_char buf 'R';
      add_int buf (tag_relop op);
      add_expr buf a;
      add_expr buf b
  | Ir.Load a ->
      Buffer.add_char buf 'L';
      add_expr buf a
  | Ir.Cvt (ty, a) ->
      Buffer.add_char buf 'V';
      add_ty buf ty;
      add_expr buf a

let add_stmt buf (s : Ir.stmt) =
  match s with
  | Ir.Assign (t, e) ->
      Buffer.add_char buf '=';
      add_temp buf t;
      add_expr buf e
  | Ir.Store (ty, addr, v) ->
      Buffer.add_char buf '!';
      add_ty buf ty;
      add_expr buf addr;
      add_expr buf v
  | Ir.Jump l ->
      Buffer.add_char buf 'J';
      add_str buf l
  | Ir.Cjump (op, a, b, l) ->
      Buffer.add_char buf '?';
      add_int buf (tag_relop op);
      add_expr buf a;
      add_expr buf b;
      add_str buf l
  | Ir.Call { dst; fn; args } ->
      Buffer.add_char buf 'c';
      add_opt add_temp buf dst;
      add_str buf fn;
      add_int buf (List.length args);
      List.iter (add_expr buf) args
  | Ir.Ret e ->
      Buffer.add_char buf 'r';
      add_opt add_expr buf e

let of_ir_func (fn : Ir.func) =
  let buf = Buffer.create 4096 in
  add_str buf fn.Ir.fn_name;
  add_opt add_ty buf fn.Ir.fn_ret;
  add_int buf (List.length fn.Ir.fn_params);
  List.iter
    (fun (t, ty) ->
      add_temp buf t;
      add_ty buf ty)
    fn.Ir.fn_params;
  add_int buf (List.length fn.Ir.fn_slots);
  List.iter (add_slot buf) fn.Ir.fn_slots;
  add_int buf (List.length fn.Ir.fn_blocks);
  List.iter
    (fun (b : Ir.block) ->
      add_str buf b.Ir.b_label;
      add_int buf (List.length b.Ir.b_stmts);
      List.iter (add_stmt buf) b.Ir.b_stmts)
    fn.Ir.fn_blocks;
  Digest.bytes (Buffer.to_bytes buf)

(* ------------------------------------------------------------------ *)
(* Machine models                                                      *)
(* ------------------------------------------------------------------ *)

(* A model is pure data (tables of records, AST fragments, bitsets), so
   its Marshal image is a function of its structure alone: a rebuilt
   model from the same description marshals to the same bytes. The memo
   only avoids re-marshaling the common case of one long-lived model; it
   is keyed physically and never consulted for equality. *)

let compute_model_digest (model : Model.t) =
  Digest.string (Marshal.to_string model [])

let of_model = Model.memo compute_model_digest

(* ------------------------------------------------------------------ *)
(* Pipeline identity                                                   *)
(* ------------------------------------------------------------------ *)

(* the flags are written without a length prefix: the caller fixes their
   number and order, and keys stay byte-compatible with the entries
   written when the flags were separate labelled arguments *)
let of_pipeline ~strategy ~passes ~flags =
  let buf = Buffer.create 128 in
  add_int buf format_version;
  add_str buf strategy;
  add_int buf (List.length passes);
  List.iter (add_str buf) passes;
  List.iter (fun b -> Buffer.add_char buf (if b then '1' else '0')) flags;
  Digest.bytes (Buffer.to_bytes buf)

let combine parts = Digest.string (String.concat "" parts)
