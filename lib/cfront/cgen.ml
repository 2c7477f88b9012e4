(* IL generation: typed lowering of the C AST into Ir, mirroring what Lcc
   does for Marion in the paper. Two aspects match the paper's description
   of the IL (section 2.1):

   - expressions are built as per-block DAGs via hash-consing with
     value/memory versioning, and
   - after generation, any non-leaf node with more than one parent is
     forced into a temp (a pseudo-register).

   Every branch ends its basic block, so blocks handed to the back end
   contain at most one control transfer, as their last statement. *)

open Cast
module I = Ir

let fail loc fmt = Loc.fail loc fmt

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

let rec cty_to_ir loc = function
  | Tchar -> I.I8
  | Tshort -> I.I16
  | Tint -> I.I32
  | Tfloat -> I.F32
  | Tdouble -> I.F64
  | Tptr _ -> I.I32
  | Tarray (t, _) -> cty_to_ir loc (Tptr t)
  | Tvoid -> fail loc "void value used"

let is_arith = function
  | Tchar | Tshort | Tint | Tfloat | Tdouble -> true
  | Tvoid | Tptr _ | Tarray _ -> false

let is_integer = function
  | Tchar | Tshort | Tint -> true
  | Tvoid | Tfloat | Tdouble | Tptr _ | Tarray _ -> false

(* Usual arithmetic conversions. *)
let arith_result a b =
  match (a, b) with
  | Tdouble, _ | _, Tdouble -> Tdouble
  | Tfloat, _ | _, Tfloat -> Tfloat
  | _ -> Tint

(* ------------------------------------------------------------------ *)
(* Contexts                                                            *)
(* ------------------------------------------------------------------ *)

type storage =
  | St_temp of I.temp
  | St_slot of I.slot
  | St_global of string

type ctx = {
  sigs : (string, cty * cty list) Hashtbl.t;
  gtypes : (string, cty) Hashtbl.t;
  mutable out_globals : I.global list;
  fpool : (string, string) Hashtbl.t;  (* literal bits -> pool symbol *)
  mutable pool_n : int;
}

(* CSE keys: child identity plus value/memory versions, so stale entries
   become unreachable without explicit invalidation. *)
type key =
  | Kconst of I.ty * int
  | Ksym of string
  | Kslot of int
  | Ktemp of int * int  (* temp id, assignment version *)
  | Kun of I.unop * I.ty * int
  | Kbin of I.binop * I.ty * int * int
  | Krel of I.relop * int * int
  | Kload of I.ty * int * int  (* ty, address id, memory version *)
  | Kcvt of I.ty * int

type fctx = {
  c : ctx;
  fn : I.func;
  addr_taken : string list;
  mutable done_blocks : I.block list;  (* reversed *)
  mutable cur_label : string;
  mutable cur_stmts : I.stmt list;  (* reversed *)
  mutable scopes : (string, storage * cty) Hashtbl.t list;
  mutable breaks : string list;
  mutable conts : string list;
  cse : (key, I.expr) Hashtbl.t;
  tver : (int, int) Hashtbl.t;  (* temp id -> version *)
  mutable memver : int;
  ret : cty;
}

let builtin_sigs =
  [
    ("print_int", (Tvoid, [ Tint ]));
    ("print_char", (Tvoid, [ Tint ]));
    ("print_double", (Tvoid, [ Tdouble ]));
  ]

(* ------------------------------------------------------------------ *)
(* Block management                                                    *)
(* ------------------------------------------------------------------ *)

let emit fx s = fx.cur_stmts <- s :: fx.cur_stmts

(* Sealing a block resets CSE state: sharing is local to a basic block. *)
let seal_block fx =
  fx.done_blocks <-
    { I.b_label = fx.cur_label; b_stmts = List.rev fx.cur_stmts }
    :: fx.done_blocks;
  fx.cur_stmts <- [];
  Hashtbl.reset fx.cse;
  Hashtbl.reset fx.tver;
  fx.memver <- 0

let start_block fx label =
  seal_block fx;
  fx.cur_label <- label

(* branches terminate the current block *)
let emit_jump fx l =
  emit fx (I.Jump l);
  start_block fx (I.new_label fx.fn "L")

let emit_cjump fx op a b l =
  emit fx (I.Cjump (op, a, b, l));
  start_block fx (I.new_label fx.fn "L")

let emit_ret fx e =
  emit fx (I.Ret e);
  start_block fx (I.new_label fx.fn "L")

(* ------------------------------------------------------------------ *)
(* Hash-consed node construction                                       *)
(* ------------------------------------------------------------------ *)

let temp_version fx t =
  match Hashtbl.find_opt fx.tver t.I.t_id with Some v -> v | None -> 0

let node fx key ty kind =
  match Hashtbl.find_opt fx.cse key with
  | Some e -> e
  | None ->
      let e = I.mk ty kind in
      Hashtbl.add fx.cse key e;
      e

let n_const fx ty v = node fx (Kconst (ty, v)) ty (I.Const v)

let n_sym fx s = node fx (Ksym s) I.I32 (I.Sym s)

let n_slot fx s = node fx (Kslot s.I.s_id) I.I32 (I.Slotaddr s)

let n_temp fx t =
  node fx (Ktemp (t.I.t_id, temp_version fx t)) t.I.t_ty (I.Temp t)

let n_un fx op ty a =
  match (a.I.e_kind, op) with
  | I.Const v, I.Neg when not (I.ty_is_float ty) -> n_const fx ty (I.sext32 (-v))
  | I.Const v, I.Bnot -> n_const fx ty (I.sext32 (lnot v))
  | I.Const v, I.Lnot -> n_const fx ty (if v = 0 then 1 else 0)
  | _ -> node fx (Kun (op, ty, a.I.e_id)) ty (I.Unop (op, a))

let n_bin fx op ty a b =
  (* constants go right on commutative ops, so descriptions see a
     canonical shape *)
  let a, b =
    match (op, a.I.e_kind, b.I.e_kind) with
    | (I.Add | I.Mul | I.And | I.Or | I.Xor), I.Const _, I.Const _ -> (a, b)
    | (I.Add | I.Mul | I.And | I.Or | I.Xor), I.Const _, _ -> (b, a)
    | _ -> (a, b)
  in
  match (a.I.e_kind, b.I.e_kind) with
  | I.Const x, I.Const y when not (I.ty_is_float ty) -> (
      match I.fold_binop op x y with
      | Some v -> n_const fx ty v
      | None -> node fx (Kbin (op, ty, a.I.e_id, b.I.e_id)) ty (I.Binop (op, a, b)))
  | _ -> (
      match (op, b.I.e_kind) with
      | (I.Add | I.Sub), I.Const 0 when not (I.ty_is_float ty) -> a
      | I.Mul, I.Const 1 when not (I.ty_is_float ty) -> a
      | (I.Shl | I.Shr | I.Shru), I.Const 0 -> a
      | _ -> node fx (Kbin (op, ty, a.I.e_id, b.I.e_id)) ty (I.Binop (op, a, b)))

let n_rel fx op a b =
  node fx (Krel (op, a.I.e_id, b.I.e_id)) I.I32 (I.Rel (op, a, b))

let n_load fx ty a = node fx (Kload (ty, a.I.e_id, fx.memver)) ty (I.Load a)

let rec n_cvt fx ty a =
  if a.I.e_ty = ty then a
  else
    match a.I.e_kind with
    | I.Const v when not (I.ty_is_float ty) && not (I.ty_is_float a.I.e_ty) ->
        let v' =
          match ty with
          | I.I8 ->
              let m = v land 0xFF in
              if m land 0x80 <> 0 then m - 0x100 else m
          | I.I16 ->
              let m = v land 0xFFFF in
              if m land 0x8000 <> 0 then m - 0x10000 else m
          | I.I32 -> I.sext32 v
          | I.F32 | I.F64 -> assert false
        in
        n_const fx ty v'
    | I.Load _ when ty = I.I32 && (a.I.e_ty = I.I8 || a.I.e_ty = I.I16) ->
        (* loads arrive sign-extended: widening is free *)
        node fx (Kcvt (ty, a.I.e_id)) ty (I.Cvt (ty, a))
    | _ when (ty = I.I8 || ty = I.I16) && not (I.ty_is_float a.I.e_ty) ->
        (* narrowing a computed value must really wrap (C semantics):
           shift up and arithmetically back down, then re-type *)
        let bits = n_const fx I.I32 (if ty = I.I8 then 24 else 16) in
        let wide = n_cvt fx I.I32 a in
        let up =
          node fx (Kbin (I.Shl, I.I32, wide.I.e_id, bits.I.e_id)) I.I32
            (I.Binop (I.Shl, wide, bits))
        in
        let down =
          node fx (Kbin (I.Shr, I.I32, up.I.e_id, bits.I.e_id)) I.I32
            (I.Binop (I.Shr, up, bits))
        in
        node fx (Kcvt (ty, down.I.e_id)) ty (I.Cvt (ty, down))
    | _ -> node fx (Kcvt (ty, a.I.e_id)) ty (I.Cvt (ty, a))

(* Effects invalidate: assignments bump the temp version; stores and calls
   bump the memory version. *)
let assign fx t e =
  emit fx (I.Assign (t, e));
  Hashtbl.replace fx.tver t.I.t_id (temp_version fx t + 1)

let store fx ty addr v =
  emit fx (I.Store (ty, addr, v));
  fx.memver <- fx.memver + 1

let emit_call fx dst fn args =
  emit fx (I.Call { dst; fn; args });
  fx.memver <- fx.memver + 1;
  match dst with
  | Some t -> Hashtbl.replace fx.tver t.I.t_id (temp_version fx t + 1)
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Variables                                                           *)
(* ------------------------------------------------------------------ *)

let lookup fx loc name =
  let rec go = function
    | [] -> (
        match Hashtbl.find_opt fx.c.gtypes name with
        | Some ty -> (St_global name, ty)
        | None -> fail loc "undeclared identifier %S" name)
    | sc :: tl -> (
        match Hashtbl.find_opt sc name with Some x -> x | None -> go tl)
  in
  go fx.scopes

let declare_local fx loc name st ty =
  match fx.scopes with
  | [] -> fail loc "internal: no scope"
  | sc :: _ ->
      if Hashtbl.mem sc name then fail loc "redeclaration of %S" name;
      Hashtbl.replace sc name (st, ty)

(* ------------------------------------------------------------------ *)
(* Literal pools                                                       *)
(* ------------------------------------------------------------------ *)

let float_literal ctx f =
  let bits = Int64.bits_of_float f in
  let k = Int64.to_string bits in
  match Hashtbl.find_opt ctx.fpool k with
  | Some sym -> sym
  | None ->
      let sym = Printf.sprintf ".Lfp%d" ctx.pool_n in
      ctx.pool_n <- ctx.pool_n + 1;
      let b = Bytes.create 8 in
      Bytes.set_int64_le b 0 bits;
      ctx.out_globals <-
        { I.gl_name = sym; gl_align = 8; gl_bytes = b } :: ctx.out_globals;
      Hashtbl.replace ctx.fpool k sym;
      sym

let string_literal ctx s =
  let sym = Printf.sprintf ".Lstr%d" ctx.pool_n in
  ctx.pool_n <- ctx.pool_n + 1;
  let b = Bytes.create (String.length s + 1) in
  Bytes.blit_string s 0 b 0 (String.length s);
  Bytes.set b (String.length s) '\000';
  ctx.out_globals <-
    { I.gl_name = sym; gl_align = 1; gl_bytes = b } :: ctx.out_globals;
  sym

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* convert a value of C type [from] to C type [to_] *)
let convert fx loc (e, from) to_ =
  match (from, to_) with
  | a, b when a = b -> e
  | (Tarray _ | Tptr _), (Tptr _ | Tint) -> e
  | Tint, Tptr _ -> e
  | a, b when is_arith a && is_arith b -> n_cvt fx (cty_to_ir loc b) e
  | a, b ->
      fail loc "cannot convert %s to %s" (cty_to_string a) (cty_to_string b)

(* values of sub-int types promote to int when used *)
let promote fx _loc (e, ty) =
  match ty with
  | Tchar | Tshort -> (n_cvt fx I.I32 e, Tint)
  | _ -> (e, ty)

type lvalue =
  | Lv_temp of I.temp * cty
  | Lv_mem of I.expr * cty  (* address, object type *)

let relop_of = function
  | Beq -> I.Eq
  | Bne -> I.Ne
  | Blt -> I.Lt
  | Ble -> I.Le
  | Bgt -> I.Gt
  | Bge -> I.Ge
  | _ -> assert false

let negate_relop = function
  | Beq -> Bne
  | Bne -> Beq
  | Blt -> Bge
  | Ble -> Bgt
  | Bgt -> Ble
  | Bge -> Blt
  | op -> op

let rec gen_expr fx (e : expr) : I.expr * cty =
  let loc = e.eloc in
  match e.ek with
  | Eint n -> (n_const fx I.I32 n, Tint)
  | Echar c -> (n_const fx I.I32 (Char.code c), Tint)
  | Efloat f ->
      let sym = float_literal fx.c f in
      (n_load fx I.F64 (n_sym fx sym), Tdouble)
  | Estr s -> (n_sym fx (string_literal fx.c s), Tptr Tchar)
  | Eid name -> (
      match lookup fx loc name with
      | St_temp t, ty -> (n_temp fx t, ty)
      | St_slot s, (Tarray _ as ty) -> (n_slot fx s, ty)
      | St_slot s, ty -> (n_load fx (cty_to_ir loc ty) (n_slot fx s), ty)
      | St_global g, (Tarray _ as ty) -> (n_sym fx g, ty)
      | St_global g, ty -> (n_load fx (cty_to_ir loc ty) (n_sym fx g), ty))
  | Ebin ((Bland | Blor), _, _) | Econd (_, _, _) -> gen_bool_value fx e
  | Ebin (op, a, b) -> gen_binop fx loc op a b
  | Eassign (op, lhs, rhs) -> gen_assign fx loc op lhs rhs
  | Eun (Uneg, a) ->
      let v, ty = promote fx loc (gen_expr fx a) in
      if not (is_arith ty) then fail loc "operand of unary - must be arithmetic";
      (n_un fx I.Neg (cty_to_ir loc ty) v, ty)
  | Eun (Ubnot, a) ->
      let v, ty = promote fx loc (gen_expr fx a) in
      if not (is_integer ty) then fail loc "operand of ~ must be integer";
      (n_un fx I.Bnot I.I32 v, Tint)
  | Eun (Ulnot, a) ->
      let v, ty = promote fx loc (gen_expr fx a) in
      if I.ty_is_float (cty_to_ir loc ty) then
        (n_rel fx I.Eq v (gen_fzero fx ty), Tint)
      else (n_rel fx I.Eq v (n_const fx I.I32 0), Tint)
  | Eun (Uderef, a) -> (
      let v, ty = gen_expr fx a in
      match ty with
      | Tptr (Tarray _ as el) -> (v, el)
      | Tptr el | Tarray (el, _) -> (n_load fx (cty_to_ir loc el) v, el)
      | _ -> fail loc "cannot dereference %s" (cty_to_string ty))
  | Eun (Uaddr, a) -> (
      match gen_lvalue fx a with
      | Lv_mem (addr, ty) -> (addr, Tptr ty)
      | Lv_temp (_, _) ->
          fail loc "cannot take the address of a register variable")
  | Ecall (fn, args) -> gen_call fx loc fn args
  | Eindex (a, i) -> (
      let addr, el = gen_index_addr fx loc a i in
      match el with
      | Tarray _ -> (addr, el)
      | _ -> (n_load fx (cty_to_ir loc el) addr, el))
  | Ecast (ty, a) ->
      let v, vty = gen_expr fx a in
      (convert fx loc (v, vty) ty, ty)
  | Eincdec { pre; inc; lhs } -> gen_incdec fx loc ~pre ~inc lhs

and gen_fzero fx ty =
  let sym = float_literal fx.c 0.0 in
  let z = n_load fx I.F64 (n_sym fx sym) in
  match ty with Tfloat -> n_cvt fx I.F32 z | _ -> z

and gen_binop fx loc op a b =
  let va, ta = gen_expr fx a in
  let vb, tb = gen_expr fx b in
  let scale p i el =
    let size = cty_size el in
    let i = n_cvt fx I.I32 i in
    n_bin fx I.Add I.I32 p (n_bin fx I.Mul I.I32 i (n_const fx I.I32 size))
  in
  match op with
  | Badd -> (
      match (ta, tb) with
      | (Tptr el | Tarray (el, _)), t when is_integer t ->
          (scale va vb el, Tptr el)
      | t, (Tptr el | Tarray (el, _)) when is_integer t ->
          (scale vb va el, Tptr el)
      | _ -> gen_arith fx loc I.Add ta tb va vb)
  | Bsub -> (
      match (ta, tb) with
      | (Tptr el | Tarray (el, _)), t when is_integer t ->
          let size = cty_size el in
          ( n_bin fx I.Sub I.I32 va
              (n_bin fx I.Mul I.I32 (n_cvt fx I.I32 vb)
                 (n_const fx I.I32 size)),
            Tptr el )
      | (Tptr el | Tarray (el, _)), (Tptr _ | Tarray _) ->
          let d = n_bin fx I.Sub I.I32 va vb in
          (n_bin fx I.Div I.I32 d (n_const fx I.I32 (cty_size el)), Tint)
      | _ -> gen_arith fx loc I.Sub ta tb va vb)
  | Bmul -> gen_arith fx loc I.Mul ta tb va vb
  | Bdiv -> gen_arith fx loc I.Div ta tb va vb
  | Brem ->
      if not (is_integer ta && is_integer tb) then
        fail loc "%% requires integer operands";
      gen_arith fx loc I.Rem ta tb va vb
  | Band | Bor | Bxor | Bshl | Bshr ->
      if not (is_integer ta && is_integer tb) then
        fail loc "bitwise operators require integer operands";
      let irop =
        match op with
        | Band -> I.And
        | Bor -> I.Or
        | Bxor -> I.Xor
        | Bshl -> I.Shl
        | Bshr -> I.Shr
        | _ -> assert false
      in
      (n_bin fx irop I.I32 (n_cvt fx I.I32 va) (n_cvt fx I.I32 vb), Tint)
  | Beq | Bne | Blt | Ble | Bgt | Bge ->
      let rel = relop_of op in
      let ca, cb =
        match (ta, tb) with
        | (Tptr _ | Tarray _), _ | _, (Tptr _ | Tarray _) -> (va, vb)
        | _ ->
            let rt = arith_result ta tb in
            (convert fx loc (va, ta) rt, convert fx loc (vb, tb) rt)
      in
      (n_rel fx rel ca cb, Tint)
  | Bland | Blor -> assert false (* handled by gen_bool_value *)

and gen_arith fx loc irop ta tb va vb =
  if not (is_arith ta && is_arith tb) then
    fail loc "arithmetic on non-arithmetic types (%s, %s)" (cty_to_string ta)
      (cty_to_string tb);
  let rt = arith_result ta tb in
  let a = convert fx loc (va, ta) rt and b = convert fx loc (vb, tb) rt in
  (n_bin fx irop (cty_to_ir loc rt) a b, rt)

and gen_index_addr fx loc a i =
  let base, ty = gen_expr fx a in
  let vi, ti = gen_expr fx i in
  if not (is_integer ti) then fail loc "array subscript must be an integer";
  match ty with
  | Tarray (el, _) | Tptr el ->
      let vi = n_cvt fx I.I32 vi in
      let off = n_bin fx I.Mul I.I32 vi (n_const fx I.I32 (cty_size el)) in
      (n_bin fx I.Add I.I32 base off, el)
  | _ -> fail loc "subscripted value is not an array or pointer"

and gen_lvalue fx (e : expr) : lvalue =
  let loc = e.eloc in
  match e.ek with
  | Eid name -> (
      match lookup fx loc name with
      | St_temp t, ty -> Lv_temp (t, ty)
      | St_slot s, ty -> Lv_mem (n_slot fx s, ty)
      | St_global g, ty -> Lv_mem (n_sym fx g, ty))
  | Eindex (a, i) ->
      let addr, el = gen_index_addr fx loc a i in
      Lv_mem (addr, el)
  | Eun (Uderef, a) -> (
      let v, ty = gen_expr fx a in
      match ty with
      | Tptr el | Tarray (el, _) -> Lv_mem (v, el)
      | _ -> fail loc "cannot dereference %s" (cty_to_string ty))
  | _ -> fail loc "expression is not an lvalue"

and read_lvalue fx loc = function
  | Lv_temp (t, ty) -> (n_temp fx t, ty)
  | Lv_mem (addr, ty) -> (
      match ty with
      | Tarray _ -> (addr, ty)
      | _ -> (n_load fx (cty_to_ir loc ty) addr, ty))

and write_lvalue fx loc lv (v, vty) =
  match lv with
  | Lv_temp (t, ty) ->
      let v' = convert fx loc (v, vty) ty in
      assign fx t v';
      (n_temp fx t, ty)
  | Lv_mem (addr, ty) ->
      (* integer stores truncate by their width; skip the wrap code that a
         register narrowing would need *)
      let v' =
        match (ty, vty) with
        | (Tchar | Tshort), (Tchar | Tshort | Tint) -> n_cvt fx I.I32 v
        | _ -> convert fx loc (v, vty) ty
      in
      store fx (cty_to_ir loc ty) addr v';
      (v', ty)

and gen_assign fx loc op lhs rhs =
  let lv = gen_lvalue fx lhs in
  match op with
  | None ->
      let r = gen_expr fx rhs in
      write_lvalue fx loc lv r
  | Some bop ->
      let cur, cty = read_lvalue fx loc lv in
      let vb, tb = gen_expr fx rhs in
      let combined =
        match (cty, tb, bop) with
        | (Tptr el | Tarray (el, _)), t, Badd when is_integer t ->
            ( n_bin fx I.Add I.I32 cur
                (n_bin fx I.Mul I.I32 (n_cvt fx I.I32 vb)
                   (n_const fx I.I32 (cty_size el))),
              Tptr el )
        | (Tptr el | Tarray (el, _)), t, Bsub when is_integer t ->
            ( n_bin fx I.Sub I.I32 cur
                (n_bin fx I.Mul I.I32 (n_cvt fx I.I32 vb)
                   (n_const fx I.I32 (cty_size el))),
              Tptr el )
        | _, _, (Badd | Bsub | Bmul | Bdiv | Brem) ->
            let irop =
              match bop with
              | Badd -> I.Add
              | Bsub -> I.Sub
              | Bmul -> I.Mul
              | Bdiv -> I.Div
              | Brem -> I.Rem
              | _ -> assert false
            in
            gen_arith fx loc irop cty tb cur vb
        | _, _, (Band | Bor | Bxor | Bshl | Bshr) ->
            if not (is_integer cty && is_integer tb) then
              fail loc "bitwise compound assignment requires integers";
            let irop =
              match bop with
              | Band -> I.And
              | Bor -> I.Or
              | Bxor -> I.Xor
              | Bshl -> I.Shl
              | Bshr -> I.Shr
              | _ -> assert false
            in
            ( n_bin fx irop I.I32 (n_cvt fx I.I32 cur) (n_cvt fx I.I32 vb),
              Tint )
        | _, _, (Bland | Blor | Beq | Bne | Blt | Ble | Bgt | Bge) ->
            fail loc "invalid compound assignment operator"
      in
      write_lvalue fx loc lv combined

and gen_incdec fx loc ~pre ~inc lhs =
  let lv = gen_lvalue fx lhs in
  let cur, ty = read_lvalue fx loc lv in
  let next, nty =
    match ty with
    | Tptr el ->
        let d = n_const fx I.I32 (cty_size el) in
        ( (if inc then n_bin fx I.Add I.I32 cur d
           else n_bin fx I.Sub I.I32 cur d),
          ty )
    | t when is_arith t ->
        let rt = arith_result t Tint in
        let c = convert fx loc (cur, t) rt in
        let one = convert fx loc (n_const fx I.I32 1, Tint) rt in
        ( (if inc then n_bin fx I.Add (cty_to_ir loc rt) c one
           else n_bin fx I.Sub (cty_to_ir loc rt) c one),
          rt )
    | _ -> fail loc "cannot increment %s" (cty_to_string ty)
  in
  if pre then write_lvalue fx loc lv (next, nty)
  else begin
    let t = I.new_temp fx.fn (cty_to_ir loc ty) in
    assign fx t cur;
    let saved = n_temp fx t in
    let _ = write_lvalue fx loc lv (next, nty) in
    (saved, ty)
  end

and gen_call fx loc fn args =
  let ret, ptys =
    match Hashtbl.find_opt fx.c.sigs fn with
    | Some s -> s
    | None -> fail loc "call to undeclared function %S" fn
  in
  if List.length ptys <> List.length args then
    fail loc "%s expects %d arguments, got %d" fn (List.length ptys)
      (List.length args);
  let vargs =
    List.map2
      (fun pty a ->
        let v, ty = gen_expr fx a in
        convert fx loc (v, ty) pty)
      ptys args
  in
  match ret with
  | Tvoid ->
      emit_call fx None fn vargs;
      (n_const fx I.I32 0, Tint)
  | _ ->
      let t = I.new_temp fx.fn (cty_to_ir loc ret) in
      emit_call fx (Some t) fn vargs;
      (n_temp fx t, ret)

(* &&, || and ?: as values: evaluated with control flow into a temp. *)
and gen_bool_value fx (e : expr) =
  let loc = e.eloc in
  match e.ek with
  | Econd (c, a, b) ->
      let ljoin = I.new_label fx.fn "join" in
      let lfalse = I.new_label fx.fn "else" in
      let ta = probe_type fx a in
      let t = I.new_temp fx.fn (cty_to_ir loc ta) in
      gen_cond_false fx c lfalse;
      let va, ta' = gen_expr fx a in
      assign fx t (convert fx loc (va, ta') ta);
      emit_jump fx ljoin;
      start_block fx lfalse;
      let vb, tb = gen_expr fx b in
      assign fx t (convert fx loc (vb, tb) ta);
      start_block fx ljoin;
      (n_temp fx t, ta)
  | Ebin ((Bland | Blor), _, _) ->
      let t = I.new_temp fx.fn I.I32 in
      let lfalse = I.new_label fx.fn "false" in
      let ljoin = I.new_label fx.fn "join" in
      gen_cond_false fx e lfalse;
      assign fx t (n_const fx I.I32 1);
      emit_jump fx ljoin;
      start_block fx lfalse;
      assign fx t (n_const fx I.I32 0);
      start_block fx ljoin;
      (n_temp fx t, Tint)
  | _ -> gen_expr fx e

(* the C type an expression will have, computed without emitting code;
   used to type the ?: result temp *)
and probe_type fx (e : expr) : cty =
  let loc = e.eloc in
  match e.ek with
  | Eint _ | Echar _ -> Tint
  | Efloat _ -> Tdouble
  | Estr _ -> Tptr Tchar
  | Eid name -> snd (lookup fx loc name)
  | Ebin ((Beq | Bne | Blt | Ble | Bgt | Bge | Bland | Blor), _, _) -> Tint
  | Ebin (_, a, b) ->
      let ta = probe_type fx a and tb = probe_type fx b in
      if is_arith ta && is_arith tb then arith_result ta tb else ta
  | Eassign (_, lhs, _) -> probe_type fx lhs
  | Eun (Uneg, a) -> probe_type fx a
  | Eun ((Ubnot | Ulnot), _) -> Tint
  | Eun (Uderef, a) -> (
      match probe_type fx a with Tptr el | Tarray (el, _) -> el | _ -> Tint)
  | Eun (Uaddr, a) -> Tptr (probe_type fx a)
  | Ecall (fn, _) -> (
      match Hashtbl.find_opt fx.c.sigs fn with
      | Some (r, _) -> r
      | None -> Tint)
  | Eindex (a, _) -> (
      match probe_type fx a with Tptr el | Tarray (el, _) -> el | _ -> Tint)
  | Ecast (ty, _) -> ty
  | Econd (_, a, _) -> probe_type fx a
  | Eincdec { lhs; _ } -> probe_type fx lhs

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

(* branch to [ltrue] if e is true, fall through otherwise *)
and gen_cond_true fx (e : expr) ltrue =
  let loc = e.eloc in
  match e.ek with
  | Ebin (Bland, a, b) ->
      let lnext = I.new_label fx.fn "and" in
      gen_cond_false fx a lnext;
      gen_cond_true fx b ltrue;
      start_block fx lnext
  | Ebin (Blor, a, b) ->
      gen_cond_true fx a ltrue;
      gen_cond_true fx b ltrue
  | Eun (Ulnot, a) -> gen_cond_false fx a ltrue
  | Ebin ((Beq | Bne | Blt | Ble | Bgt | Bge) as op, a, b) ->
      let rel = relop_of op in
      let va, ta = gen_expr fx a in
      let vb, tb = gen_expr fx b in
      let rt =
        match (ta, tb) with
        | (Tptr _ | Tarray _), _ | _, (Tptr _ | Tarray _) -> Tint
        | _ -> arith_result ta tb
      in
      let ca = if is_arith ta then convert fx loc (va, ta) rt else va in
      let cb = if is_arith tb then convert fx loc (vb, tb) rt else vb in
      if rt = Tfloat || rt = Tdouble then
        (* float comparisons go through a 0/1 value so targets can route
           them through condition-code registers *)
        emit_cjump fx I.Ne (n_rel fx rel ca cb) (n_const fx I.I32 0) ltrue
      else emit_cjump fx rel ca cb ltrue
  | _ ->
      let v, ty = promote fx loc (gen_expr fx e) in
      if I.ty_is_float (cty_to_ir loc ty) then
        emit_cjump fx I.Ne (n_rel fx I.Ne v (gen_fzero fx ty))
          (n_const fx I.I32 0) ltrue
      else emit_cjump fx I.Ne v (n_const fx I.I32 0) ltrue

(* branch to [lfalse] if e is false *)
and gen_cond_false fx (e : expr) lfalse =
  let loc = e.eloc in
  match e.ek with
  | Ebin (Bland, a, b) ->
      gen_cond_false fx a lfalse;
      gen_cond_false fx b lfalse
  | Ebin (Blor, a, b) ->
      let lnext = I.new_label fx.fn "or" in
      gen_cond_true fx a lnext;
      gen_cond_false fx b lfalse;
      start_block fx lnext
  | Eun (Ulnot, a) -> gen_cond_true fx a lfalse
  | Ebin ((Beq | Bne | Blt | Ble | Bgt | Bge) as op, a, b) ->
      gen_cond_true fx { ek = Ebin (negate_relop op, a, b); eloc = loc } lfalse
  | _ ->
      let v, ty = promote fx loc (gen_expr fx e) in
      if I.ty_is_float (cty_to_ir loc ty) then
        emit_cjump fx I.Ne (n_rel fx I.Eq v (gen_fzero fx ty))
          (n_const fx I.I32 0) lfalse
      else emit_cjump fx I.Eq v (n_const fx I.I32 0) lfalse

(* ------------------------------------------------------------------ *)
(* Address-taken analysis                                              *)
(* ------------------------------------------------------------------ *)

let rec collect_addr_taken acc (e : expr) =
  match e.ek with
  | Eun (Uaddr, { ek = Eid n; _ }) -> n :: acc
  | Eun (_, a) | Ecast (_, a) -> collect_addr_taken acc a
  | Ebin (_, a, b) | Eindex (a, b) ->
      collect_addr_taken (collect_addr_taken acc a) b
  | Eassign (_, a, b) -> collect_addr_taken (collect_addr_taken acc a) b
  | Econd (a, b, c) ->
      collect_addr_taken (collect_addr_taken (collect_addr_taken acc a) b) c
  | Ecall (_, args) -> List.fold_left collect_addr_taken acc args
  | Eincdec { lhs; _ } -> collect_addr_taken acc lhs
  | Eint _ | Efloat _ | Echar _ | Estr _ | Eid _ -> acc

let rec collect_addr_taken_stmt acc (s : stmt) =
  match s.sk with
  | Sexpr e -> collect_addr_taken acc e
  | Sdecl ds ->
      List.fold_left
        (fun acc (_, _, init) ->
          match init with
          | Some i -> collect_addr_taken_init acc i
          | None -> acc)
        acc ds
  | Sif (c, a, b) ->
      let acc = collect_addr_taken acc c in
      let acc = collect_addr_taken_stmt acc a in
      (match b with Some b -> collect_addr_taken_stmt acc b | None -> acc)
  | Swhile (c, b) -> collect_addr_taken_stmt (collect_addr_taken acc c) b
  | Sdo (b, c) -> collect_addr_taken (collect_addr_taken_stmt acc b) c
  | Sfor (i, c, s2, b) ->
      let acc =
        match i with Some i -> collect_addr_taken_stmt acc i | None -> acc
      in
      let acc = match c with Some c -> collect_addr_taken acc c | None -> acc in
      let acc = match s2 with Some s -> collect_addr_taken acc s | None -> acc in
      collect_addr_taken_stmt acc b
  | Sreturn (Some e) -> collect_addr_taken acc e
  | Sreturn None | Sbreak | Scontinue | Sempty -> acc
  | Sblock ss -> List.fold_left collect_addr_taken_stmt acc ss

and collect_addr_taken_init acc = function
  | Iexpr e -> collect_addr_taken acc e
  | Ilist l -> List.fold_left collect_addr_taken_init acc l

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec gen_local_init fx loc st ty init =
  match (init, ty) with
  | Iexpr e, _ -> (
      let v = gen_expr fx e in
      match st with
      | St_temp t -> ignore (write_lvalue fx loc (Lv_temp (t, ty)) v)
      | St_slot s -> ignore (write_lvalue fx loc (Lv_mem (n_slot fx s, ty)) v)
      | St_global _ -> fail loc "internal: local with global storage")
  | Ilist items, Tarray (el, _) -> (
      match st with
      | St_slot s ->
          List.iteri
            (fun i item ->
              let addr =
                n_bin fx I.Add I.I32 (n_slot fx s)
                  (n_const fx I.I32 (i * cty_size el))
              in
              gen_element_init fx loc addr el item)
            items
      | St_temp _ | St_global _ -> fail loc "array initializer on scalar")
  | Ilist _, _ -> fail loc "brace initializer on scalar"

and gen_element_init fx loc addr el init =
  match (init, el) with
  | Iexpr e, _ ->
      let v = gen_expr fx e in
      let v' = convert fx loc v el in
      store fx (cty_to_ir loc el) addr v'
  | Ilist items, Tarray (el', _) ->
      List.iteri
        (fun i item ->
          let addr' =
            n_bin fx I.Add I.I32 addr (n_const fx I.I32 (i * cty_size el'))
          in
          gen_element_init fx loc addr' el' item)
        items
  | Ilist _, _ -> fail loc "brace initializer on scalar element"

let rec gen_stmt fx (s : stmt) =
  let loc = s.sloc in
  match s.sk with
  | Sempty -> ()
  | Sexpr e -> ignore (gen_expr fx e)
  | Sblock ss ->
      fx.scopes <- Hashtbl.create 8 :: fx.scopes;
      List.iter (gen_stmt fx) ss;
      fx.scopes <- List.tl fx.scopes
  | Sdecl ds ->
      List.iter
        (fun (ty, name, init) ->
          let st =
            match ty with
            | Tarray _ ->
                St_slot
                  (I.new_slot fx.fn ~name ~size:(cty_size ty)
                     ~align:(cty_align ty))
            | Tvoid -> fail loc "void variable %S" name
            | _ when List.mem name fx.addr_taken ->
                St_slot
                  (I.new_slot fx.fn ~name ~size:(cty_size ty)
                     ~align:(cty_align ty))
            | _ -> St_temp (I.new_temp fx.fn ~name (cty_to_ir loc ty))
          in
          declare_local fx loc name st ty;
          match init with
          | Some i -> gen_local_init fx loc st ty i
          | None -> ())
        ds
  | Sif (c, a, b) -> (
      match b with
      | None ->
          let lend = I.new_label fx.fn "endif" in
          gen_cond_false fx c lend;
          gen_stmt fx a;
          start_block fx lend
      | Some b ->
          let lelse = I.new_label fx.fn "else" in
          let lend = I.new_label fx.fn "endif" in
          gen_cond_false fx c lelse;
          gen_stmt fx a;
          emit_jump fx lend;
          start_block fx lelse;
          gen_stmt fx b;
          start_block fx lend)
  | Swhile (c, body) ->
      let lhead = I.new_label fx.fn "while" in
      let lend = I.new_label fx.fn "endwhile" in
      start_block fx lhead;
      gen_cond_false fx c lend;
      fx.breaks <- lend :: fx.breaks;
      fx.conts <- lhead :: fx.conts;
      gen_stmt fx body;
      fx.breaks <- List.tl fx.breaks;
      fx.conts <- List.tl fx.conts;
      emit_jump fx lhead;
      start_block fx lend
  | Sdo (body, c) ->
      let lhead = I.new_label fx.fn "do" in
      let lend = I.new_label fx.fn "enddo" in
      let lcont = I.new_label fx.fn "docond" in
      start_block fx lhead;
      fx.breaks <- lend :: fx.breaks;
      fx.conts <- lcont :: fx.conts;
      gen_stmt fx body;
      fx.breaks <- List.tl fx.breaks;
      fx.conts <- List.tl fx.conts;
      start_block fx lcont;
      gen_cond_true fx c lhead;
      start_block fx lend
  | Sfor (init, cond, step, body) ->
      fx.scopes <- Hashtbl.create 8 :: fx.scopes;
      (match init with Some i -> gen_stmt fx i | None -> ());
      let lhead = I.new_label fx.fn "for" in
      let lstep = I.new_label fx.fn "forstep" in
      let lend = I.new_label fx.fn "endfor" in
      start_block fx lhead;
      (match cond with Some c -> gen_cond_false fx c lend | None -> ());
      fx.breaks <- lend :: fx.breaks;
      fx.conts <- lstep :: fx.conts;
      gen_stmt fx body;
      fx.breaks <- List.tl fx.breaks;
      fx.conts <- List.tl fx.conts;
      start_block fx lstep;
      (match step with Some e -> ignore (gen_expr fx e) | None -> ());
      emit_jump fx lhead;
      start_block fx lend;
      fx.scopes <- List.tl fx.scopes
  | Sreturn e -> (
      match (e, fx.ret) with
      | None, Tvoid -> emit_ret fx None
      | None, _ -> fail loc "missing return value"
      | Some _, Tvoid -> fail loc "return value in void function"
      | Some e, rt ->
          let v = gen_expr fx e in
          emit_ret fx (Some (convert fx loc v rt)))
  | Sbreak -> (
      match fx.breaks with
      | l :: _ -> emit_jump fx l
      | [] -> fail loc "break outside a loop")
  | Scontinue -> (
      match fx.conts with
      | l :: _ -> emit_jump fx l
      | [] -> fail loc "continue outside a loop")

(* ------------------------------------------------------------------ *)
(* DAG pass: force multi-parent nodes into temps                       *)
(* ------------------------------------------------------------------ *)

let stmt_children (s : I.stmt) =
  match s with
  | I.Assign (_, e) -> [ e ]
  | I.Store (_, a, v) -> [ a; v ]
  | I.Cjump (_, a, b, _) -> [ a; b ]
  | I.Call { args; _ } -> args
  | I.Jump _ | I.Ret None -> []
  | I.Ret (Some e) -> [ e ]

(* A node of one block's DAG: its parent edges, the statement that first
   reaches it, and the temp it is forced into, if any. *)
type use =
  { node : I.expr; first : int; mutable parents : int;
    mutable temp : I.expr option }

let force_dags fn (b : I.block) =
  let uses : (int, use) Hashtbl.t = Hashtbl.create 32 in
  (* count parent edges; each shared node's subtree is traversed once *)
  let rec count_edges sidx (e : I.expr) =
    match Hashtbl.find uses e.I.e_id with
    | u -> u.parents <- u.parents + 1
    | exception Not_found -> (
        Hashtbl.add uses e.I.e_id
          { node = e; first = sidx; parents = 1; temp = None };
        match e.I.e_kind with
        | I.Const _ | I.Sym _ | I.Slotaddr _ | I.Temp _ -> ()
        | I.Unop (_, a) | I.Load a | I.Cvt (_, a) -> count_edges sidx a
        | I.Binop (_, a, b) | I.Rel (_, a, b) ->
            count_edges sidx a;
            count_edges sidx b)
  in
  List.iteri
    (fun sidx s -> List.iter (count_edges sidx) (stmt_children s))
    b.I.b_stmts;
  (* every shared non-leaf, in creation (bottom-up) order, so nested
     shared nodes substitute *)
  let forced =
    Hashtbl.fold
      (fun id u acc ->
        match u.node.I.e_kind with
        | I.Unop _ | I.Binop _ | I.Rel _ | I.Load _ | I.Cvt _
          when u.parents >= 2 ->
            (id, u) :: acc
        | _ -> acc)
      uses []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  if forced <> [] then begin
    let rec rewrite (e : I.expr) : I.expr =
      match (Hashtbl.find uses e.I.e_id).temp with
      | Some r -> r
      | None -> (
          match e.I.e_kind with
          | I.Const _ | I.Sym _ | I.Slotaddr _ | I.Temp _ -> e
          | I.Unop (op, a) ->
              let a' = rewrite a in
              if a' == a then e else I.mk e.I.e_ty (I.Unop (op, a'))
          | I.Load a ->
              let a' = rewrite a in
              if a' == a then e else I.mk e.I.e_ty (I.Load a')
          | I.Cvt (t, a) ->
              let a' = rewrite a in
              if a' == a then e else I.mk e.I.e_ty (I.Cvt (t, a'))
          | I.Binop (op, a, b) ->
              let a' = rewrite a and b' = rewrite b in
              if a' == a && b' == b then e
              else I.mk e.I.e_ty (I.Binop (op, a', b'))
          | I.Rel (op, a, b) ->
              let a' = rewrite a and b' = rewrite b in
              if a' == a && b' == b then e
              else I.mk e.I.e_ty (I.Rel (op, a', b')))
    in
    (* each statement's temp definitions, newest first *)
    let inserts = Array.make (List.length b.I.b_stmts) [] in
    List.iter
      (fun (_, u) ->
        let e = u.node in
        let def = rewrite e in
        let t = I.new_temp fn e.I.e_ty in
        u.temp <- Some (I.mk e.I.e_ty (I.Temp t));
        inserts.(u.first) <- I.Assign (t, def) :: inserts.(u.first))
      forced;
    let sidx = ref (-1) in
    b.I.b_stmts <-
      List.concat_map
        (fun (s : I.stmt) ->
          incr sidx;
          let s' =
            match s with
            | I.Assign (t, e) -> I.Assign (t, rewrite e)
            | I.Store (ty, a, v) -> I.Store (ty, rewrite a, rewrite v)
            | I.Cjump (op, a, b, l) -> I.Cjump (op, rewrite a, rewrite b, l)
            | I.Call { dst; fn = f; args } ->
                I.Call { dst; fn = f; args = List.map rewrite args }
            | I.Jump _ | I.Ret None -> s
            | I.Ret (Some e) -> I.Ret (Some (rewrite e))
          in
          List.rev_append inserts.(!sidx) [ s' ])
        b.I.b_stmts
  end

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

let rec gen_func ctx (fd : func_def) : I.func =
  let fn =
    {
      I.fn_name = fd.cf_name;
      fn_ret =
        (match fd.cf_ret with
        | Tvoid -> None
        | t -> Some (cty_to_ir fd.cf_loc t));
      fn_params = [];
      fn_blocks = [];
      fn_slots = [];
      fn_next_temp = 0;
      fn_next_label = 0;
    }
  in
  let addr_taken = collect_addr_taken_stmt [] fd.cf_body in
  let fx =
    {
      c = ctx;
      fn;
      addr_taken;
      done_blocks = [];
      cur_label = fd.cf_name ^ "_entry";
      cur_stmts = [];
      scopes = [ Hashtbl.create 16 ];
      breaks = [];
      conts = [];
      cse = Hashtbl.create 64;
      tver = Hashtbl.create 16;
      memver = 0;
      ret = fd.cf_ret;
    }
  in
  (* parameters arrive in temps; address-taken parameters are copied to a
     slot on entry *)
  let params =
    List.map
      (fun (pty, pname) ->
        let t = I.new_temp fn ~name:pname (cty_to_ir fd.cf_loc pty) in
        if List.mem pname addr_taken then begin
          let s =
            I.new_slot fn ~name:pname ~size:(cty_size pty)
              ~align:(cty_align pty)
          in
          declare_local fx fd.cf_loc pname (St_slot s) pty;
          store fx (cty_to_ir fd.cf_loc pty) (n_slot fx s) (n_temp fx t)
        end
        else declare_local fx fd.cf_loc pname (St_temp t) pty;
        (t, cty_to_ir fd.cf_loc pty))
      fd.cf_params
  in
  fn.I.fn_params <- params;
  gen_stmt fx fd.cf_body;
  (* implicit return *)
  (match fx.ret with
  | Tvoid -> emit fx (I.Ret None)
  | (Tfloat | Tdouble) as rt -> emit fx (I.Ret (Some (gen_fzero fx rt)))
  | rt -> emit fx (I.Ret (Some (n_const fx (cty_to_ir fd.cf_loc rt) 0))));
  seal_block fx;
  fn.I.fn_blocks <- List.rev fx.done_blocks;
  prune_unreachable fn;
  List.iter (force_dags fn) fn.I.fn_blocks;
  fn

(* Drop blocks no path from the entry reaches (created by the branch-ends-
   block discipline around returns, breaks and dead else-arms). Removal
   must preserve fallthrough: a reachable block whose fallthrough successor
   dies gets nothing appended because, being unreachable, that successor
   was never its dynamic successor — except when only an intermediate
   block dies, which cannot happen: fallthrough targets of reachable
   blocks are reachable by definition. *)
and prune_unreachable (fn : I.func) =
  match fn.I.fn_blocks with
  | [] -> ()
  | entry :: _ ->
      let blocks = Array.of_list fn.I.fn_blocks in
      let n = Array.length blocks in
      let index = Hashtbl.create 16 in
      Array.iteri (fun i b -> Hashtbl.replace index b.I.b_label i) blocks;
      let reachable = Array.make n false in
      let rec visit i =
        if i < n && not reachable.(i) then begin
          reachable.(i) <- true;
          let next =
            if i + 1 < n then Some blocks.(i + 1).I.b_label else None
          in
          List.iter
            (fun l ->
              match Hashtbl.find_opt index l with
              | Some j -> visit j
              | None -> ())
            (I.block_succs ~next blocks.(i))
        end
      in
      visit (Hashtbl.find index entry.I.b_label);
      (* a dying block whose reachable predecessor falls through into it
         would change behaviour; the visit above marks every fallthrough
         successor of a reachable block reachable, so filtering is safe *)
      fn.I.fn_blocks <-
        List.filteri (fun i _ -> reachable.(i)) fn.I.fn_blocks

(* ------------------------------------------------------------------ *)
(* Globals                                                             *)
(* ------------------------------------------------------------------ *)

let rec const_eval loc (e : expr) : [ `Int of int | `Flt of float ] =
  match e.ek with
  | Eint n -> `Int n
  | Echar c -> `Int (Char.code c)
  | Efloat f -> `Flt f
  | Eun (Uneg, a) -> (
      match const_eval loc a with `Int n -> `Int (-n) | `Flt f -> `Flt (-.f))
  | Ebin (op, a, b) -> (
      let lift = function `Int n -> float_of_int n | `Flt f -> f in
      match (const_eval loc a, const_eval loc b) with
      | `Int x, `Int y -> (
          let irop =
            match op with
            | Badd -> Some I.Add
            | Bsub -> Some I.Sub
            | Bmul -> Some I.Mul
            | Bdiv -> Some I.Div
            | _ -> None
          in
          match irop with
          | Some o -> (
              match I.fold_binop o x y with
              | Some v -> `Int v
              | None -> fail loc "division by zero in constant")
          | None -> fail loc "unsupported constant expression")
      | (a', b') -> (
          let x = lift a' and y = lift b' in
          match op with
          | Badd -> `Flt (x +. y)
          | Bsub -> `Flt (x -. y)
          | Bmul -> `Flt (x *. y)
          | Bdiv -> `Flt (x /. y)
          | _ -> fail loc "unsupported constant expression"))
  | Ecast (Tint, a) -> (
      match const_eval loc a with
      | `Int n -> `Int n
      | `Flt f -> `Int (int_of_float f))
  | Ecast ((Tdouble | Tfloat), a) -> (
      match const_eval loc a with
      | `Int n -> `Flt (float_of_int n)
      | `Flt f -> `Flt f)
  | _ -> fail loc "initializer is not a constant expression"

let write_scalar loc b off ty v =
  match (ty, v) with
  | Tchar, `Int n -> Bytes.set_uint8 b off (n land 0xFF)
  | Tshort, `Int n -> Bytes.set_uint16_le b off (n land 0xFFFF)
  | (Tint | Tptr _), `Int n -> Bytes.set_int32_le b off (Int32.of_int n)
  | Tfloat, `Flt f -> Bytes.set_int32_le b off (Int32.bits_of_float f)
  | Tdouble, `Flt f -> Bytes.set_int64_le b off (Int64.bits_of_float f)
  | Tfloat, `Int n ->
      Bytes.set_int32_le b off (Int32.bits_of_float (float_of_int n))
  | Tdouble, `Int n ->
      Bytes.set_int64_le b off (Int64.bits_of_float (float_of_int n))
  | (Tchar | Tshort | Tint | Tptr _), `Flt f ->
      Bytes.set_int32_le b off (Int32.of_float f)
  | (Tvoid | Tarray _), _ -> fail loc "bad initializer"

let rec init_bytes loc b off ty init =
  match (init, ty) with
  | Iexpr e, _ -> write_scalar loc b off ty (const_eval loc e)
  | Ilist items, Tarray (el, _) ->
      List.iteri
        (fun i item -> init_bytes loc b (off + (i * cty_size el)) el item)
        items
  | Ilist _, _ -> fail loc "brace initializer on scalar"

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let gen (tu : tunit) : I.prog =
  let ctx =
    {
      sigs = Hashtbl.create 16;
      gtypes = Hashtbl.create 16;
      out_globals = [];
      fpool = Hashtbl.create 16;
      pool_n = 0;
    }
  in
  List.iter (fun (n, s) -> Hashtbl.replace ctx.sigs n s) builtin_sigs;
  List.iter
    (fun top ->
      match top with
      | Tfunc fd ->
          Hashtbl.replace ctx.sigs fd.cf_name
            (fd.cf_ret, List.map fst fd.cf_params)
      | Tglobal (ty, name, _, _) -> Hashtbl.replace ctx.gtypes name ty)
    tu;
  let globals =
    List.filter_map
      (fun top ->
        match top with
        | Tfunc _ -> None
        | Tglobal (ty, name, init, loc) ->
            let b = Bytes.make (max 1 (cty_size ty)) '\000' in
            (match init with Some i -> init_bytes loc b 0 ty i | None -> ());
            Some { I.gl_name = name; gl_align = cty_align ty; gl_bytes = b })
      tu
  in
  let funcs =
    List.filter_map
      (fun top ->
        match top with Tfunc fd -> Some (gen_func ctx fd) | Tglobal _ -> None)
      tu
  in
  { I.globals = globals @ List.rev ctx.out_globals; funcs }

let compile ~file src = gen (Cparse.parse ~file src)
