exception No_pattern of string

(* internal: a pattern did not match; backtrack to the next one *)
exception Reject

let vtype_to_ir = Glue.vtype_to_ir

let class_for_ty model (ty : Ir.ty) =
  let prefs = Glue.ir_to_vtypes ty in
  let rec go = function
    | [] ->
        raise
          (No_pattern
             (Printf.sprintf "no %%general register class holds %s values"
                (Ir.ty_to_string ty)))
    | vt :: tl -> (
        match Model.class_of_type model vt with
        | Some c -> c
        | None -> go tl)
  in
  go prefs

(* ------------------------------------------------------------------ *)
(* Move emission (shared with the allocator and strategies)            *)
(* ------------------------------------------------------------------ *)

let emit_move fn ~dst ~src ~cls =
  let model = fn.Mir.f_model in
  match Model.move_for_class model cls with
  | None ->
      raise
        (No_pattern
           (Printf.sprintf "no %%move instruction for class %s"
              (Model.class_exn model cls).Model.c_name))
  | Some mv ->
      if mv.Model.i_escape then Funcs.expand model fn ~name:mv.Model.i_name [| dst; src |]
      else begin
        (* fill remaining fixed operands (e.g. TOYP's r[0] third operand) *)
        let ops =
          Array.mapi
            (fun i k ->
              match (i, k) with
              | 0, _ -> dst
              | 1, _ -> src
              | _, Model.Kregfix r -> Mir.Ophys r
              | _, Model.Kimm _ -> Mir.Oimm 0
              | _, (Model.Kreg _ | Model.Klab _) ->
                  raise
                    (No_pattern
                       (Printf.sprintf "%%move %s has an unbindable operand"
                          mv.Model.i_name)))
            mv.Model.i_opnds
        in
        [ Mir.mk_inst fn mv ops ]
      end

(* ------------------------------------------------------------------ *)
(* Selection context                                                   *)
(* ------------------------------------------------------------------ *)

type ctx = {
  model : Model.t;
  fn : Mir.func;
  temps : (int, Mir.preg) Hashtbl.t;
  slot_map : (int, int) Hashtbl.t;  (* Ir slot id -> Mir slot id *)
  mutable out : Mir.inst list;  (* current block, reversed *)
  mutable in_const_split : bool;
      (* the constant-splitting fallback is re-entrant through reg-reg
         patterns (or r,r,r -> select the low half -> fallback -> ...);
         this flag bounds it to one level *)
}

let emit ctx i = ctx.out <- i :: ctx.out

let emit_all ctx is = List.iter (emit ctx) is

type checkpoint = { cp_out : Mir.inst list; cp_preg : int; cp_inst : int }

let save ctx =
  { cp_out = ctx.out; cp_preg = ctx.fn.Mir.f_next_preg; cp_inst = ctx.fn.Mir.f_next_inst }

let restore ctx cp =
  ctx.out <- cp.cp_out;
  ctx.fn.Mir.f_next_preg <- cp.cp_preg;
  ctx.fn.Mir.f_next_inst <- cp.cp_inst

let preg_of_temp ctx (t : Ir.temp) =
  match Hashtbl.find_opt ctx.temps t.Ir.t_id with
  | Some p -> p
  | None ->
      let cls = class_for_ty ctx.model t.Ir.t_ty in
      let p = Mir.fresh_preg ?name:t.Ir.t_name ctx.fn cls in
      Hashtbl.replace ctx.temps t.Ir.t_id p;
      p

let mir_slot ctx (s : Ir.slot) =
  match Hashtbl.find_opt ctx.slot_map s.Ir.s_id with
  | Some id -> id
  | None ->
      let id = Mir.new_slot ctx.fn ~size:s.Ir.s_size ~align:s.Ir.s_align in
      Hashtbl.replace ctx.slot_map s.Ir.s_id id;
      id

let fp_operand ctx = Mir.Ophys ctx.model.Model.cwvm.Model.v_fp

(* is this instruction a pure register-to-register move pattern? those are
   used by the driver, never matched against values *)
let is_pure_move (i : Model.instr) =
  match i.Model.i_sem with
  | [ Ast.Sassign (Ast.Lopnd 1, Ast.Eopnd n) ] -> (
      n >= 1
      && n <= Array.length i.Model.i_opnds
      &&
      match i.Model.i_opnds.(n - 1) with
      | Model.Kreg _ | Model.Kregfix _ -> true
      | Model.Kimm _ | Model.Klab _ -> false)
  | _ -> false

(* zero-cost dummy conversion (paper 3.3): same register class in and out,
   empty resource vector; selection aliases instead of emitting *)
let is_alias_cvt (i : Model.instr) =
  i.Model.i_cost = 0
  && Array.length i.Model.i_rvec = 0
  &&
  match i.Model.i_sem with
  | [ Ast.Sassign (Ast.Lopnd 1, Ast.Ecvt (_, Ast.Eopnd 2)) ] -> (
      Array.length i.Model.i_opnds = 2
      &&
      match (i.Model.i_opnds.(0), i.Model.i_opnds.(1)) with
      | Model.Kreg a, Model.Kreg b -> a = b
      | _ -> false)
  | _ -> false

let imm_in_range (d : Model.def) v = v >= d.Model.d_lo && v <= d.Model.d_hi

let ty_matches_vtype ty vt = List.mem vt (Glue.ir_to_vtypes ty)

(* the memory width an instruction's load/store moves, from the type
   constraint or an explicit conversion around the stored value *)
let store_width_of_pattern (i : Model.instr) (vpat : Ast.expr) =
  match vpat with
  | Ast.Ecvt (vt, _) -> Some (vtype_to_ir vt)
  | _ -> Option.map vtype_to_ir i.Model.i_type

(* ------------------------------------------------------------------ *)
(* The matcher                                                         *)
(* ------------------------------------------------------------------ *)

let rec select_into_class ctx cls (e : Ir.expr) : Mir.operand =
  match e.Ir.e_kind with
  | Ir.Temp t ->
      let p = preg_of_temp ctx t in
      if p.Mir.p_cls <> cls then raise Reject;
      Mir.Opreg p
  | Ir.Const v
    when List.exists
           (fun (hr, hv) -> hr.Model.cls = cls && hv = v)
           ctx.model.Model.cwvm.Model.v_hard ->
      let hr, _ =
        List.find
          (fun (hr, hv) -> hr.Model.cls = cls && hv = v)
          ctx.model.Model.cwvm.Model.v_hard
      in
      Mir.Ophys hr
  | _ -> select_by_pattern ctx cls e

and select_by_pattern ctx cls (e : Ir.expr) : Mir.operand =
  let model = ctx.model in
  let n = Array.length model.Model.instrs in
  let rec try_instr k =
    if k >= n then fallback ctx cls e
    else
      let i = model.Model.instrs.(k) in
      let applicable =
        (not (is_pure_move i))
        && Array.length i.Model.i_opnds > 0
        && (match i.Model.i_opnds.(0) with
           | Model.Kreg c -> c = cls
           | Model.Kregfix _ | Model.Kimm _ | Model.Klab _ -> false)
        && (match i.Model.i_type with
           | Some vt -> ty_matches_vtype e.Ir.e_ty vt
           | None -> true)
        &&
        match i.Model.i_sem with
        | [ Ast.Sassign (Ast.Lopnd 1, _) ] -> true
        | _ -> false
      in
      if not applicable then try_instr (k + 1)
      else
        let rhs =
          match i.Model.i_sem with
          | [ Ast.Sassign (Ast.Lopnd 1, rhs) ] -> rhs
          | _ -> assert false
        in
        let cp = save ctx in
        match
          let bindings = Array.make (Array.length i.Model.i_opnds) None in
          match_value ctx i bindings rhs e;
          bindings
        with
        | bindings ->
            if is_alias_cvt i then
              match bindings.(1) with
              | Some src -> src
              | None -> raise Reject
            else begin
              let dst = Mir.fresh_preg ctx.fn cls in
              bindings.(0) <- Some (Mir.Opreg dst);
              finish_emit ctx i bindings;
              Mir.Opreg dst
            end
        | exception Reject ->
            restore ctx cp;
            try_instr (k + 1)
  in
  try_instr 0

(* out-of-range constants split into high and low halves and re-select:
   the description's lui/ori-style patterns pick the pieces up. Failure is
   a Reject — an enclosing pattern may still match another way. *)
and fallback ctx cls (e : Ir.expr) : Mir.operand =
  match e.Ir.e_kind with
  | Ir.Const _ when ctx.in_const_split -> raise Reject
  | Ir.Const v ->
      let hi = (Ir.mask32 v lsr 16) land 0xFFFF in
      let lo = v land 0xFFFF in
      let with_guard f =
        ctx.in_const_split <- true;
        Fun.protect ~finally:(fun () -> ctx.in_const_split <- false) f
      in
      if hi = 0 then
        (* a 16-bit unsigned constant outside the signed immediate range:
           rebuild as 0 | lo so an or-immediate pattern picks it up *)
        with_guard (fun () ->
            select_by_pattern ctx cls
              (Ir.mk Ir.I32
                 (Ir.Binop
                    (Ir.Or, Ir.mk Ir.I32 (Ir.Const 0), Ir.mk Ir.I32 (Ir.Const lo)))))
      else
        let split =
          if lo = 0 then
            Ir.mk Ir.I32
              (Ir.Binop (Ir.Shl, Ir.mk Ir.I32 (Ir.Const hi), Ir.mk Ir.I32 (Ir.Const 16)))
          else
            Ir.mk Ir.I32
              (Ir.Binop
                 ( Ir.Or,
                   Ir.mk Ir.I32
                     (Ir.Binop
                        (Ir.Shl, Ir.mk Ir.I32 (Ir.Const hi), Ir.mk Ir.I32 (Ir.Const 16))),
                   Ir.mk Ir.I32 (Ir.Const lo) ))
        in
        with_guard (fun () -> select_by_pattern ctx cls split)
  | _ -> raise Reject

(* top-level entry: convert matcher rejection into a user-facing error *)
and select_top ctx cls (e : Ir.expr) : Mir.operand =
  try select_into_class ctx cls e
  with Reject ->
    raise
      (No_pattern
         (Format.asprintf "%s: no pattern matches %a (type %s, class %s)"
            ctx.model.Model.name Ir.pp_expr e
            (Ir.ty_to_string e.Ir.e_ty)
            (Model.class_exn ctx.model cls).Model.c_name))

and finish_emit ctx (i : Model.instr) bindings =
  let ops =
    Array.mapi
      (fun k b ->
        match b with
        | Some o -> o
        | None -> (
            (* operand never referenced by the pattern: fixed registers keep
               their register, immediates default to zero *)
            match i.Model.i_opnds.(k) with
            | Model.Kregfix r -> Mir.Ophys r
            | Model.Kimm _ -> Mir.Oimm 0
            | Model.Kreg _ | Model.Klab _ -> raise Reject))
      bindings
  in
  if i.Model.i_escape then
    emit_all ctx (Funcs.expand ctx.model ctx.fn ~name:i.Model.i_name ops)
  else emit ctx (Mir.mk_inst ctx.fn i ops)

and bind ctx (i : Model.instr) bindings n (o : Mir.operand) =
  ignore ctx;
  ignore i;
  match bindings.(n) with
  | None -> bindings.(n) <- Some o
  | Some prev -> if prev <> o then raise Reject

(* match a pattern operand $n against an IL subtree *)
and match_operand ctx (i : Model.instr) bindings n (il : Ir.expr) =
  if n < 1 || n > Array.length i.Model.i_opnds then raise Reject;
  match i.Model.i_opnds.(n - 1) with
  | Model.Kreg c ->
      (* a register operand: the subtree must be selectable into class c,
         and its type must be at home there *)
      if not (Glue.class_accepts ctx.model (Model.class_exn ctx.model c) il.Ir.e_ty)
      then raise Reject;
      let o = select_into_class ctx c il in
      bind ctx i bindings (n - 1) o
  | Model.Kregfix r -> (
      (* a fixed register matches a constant equal to its hardwired value *)
      match (il.Ir.e_kind, Model.hard_value ctx.model r) with
      | Ir.Const v, Some hv when v = hv -> bind ctx i bindings (n - 1) (Mir.Ophys r)
      | _ -> raise Reject)
  | Model.Kimm d -> (
      let def = ctx.model.Model.defs.(d) in
      let abs = List.mem Ast.Fabs def.Model.d_flags in
      match il.Ir.e_kind with
      | Ir.Const v when (not abs) && imm_in_range def v ->
          bind ctx i bindings (n - 1) (Mir.Oimm v)
      | Ir.Sym s when abs -> bind ctx i bindings (n - 1) (Mir.Osym (s, 0))
      | Ir.Slotaddr s when abs ->
          (* frame addresses are not absolute; force through registers *)
          ignore s;
          raise Reject
      | _ -> raise Reject)
  | Model.Klab _ -> raise Reject

and match_value ctx (i : Model.instr) bindings (pat : Ast.expr) (il : Ir.expr) =
  match pat with
  | Ast.Eopnd n -> match_operand ctx i bindings n il
  | Ast.Eint k -> (
      match il.Ir.e_kind with
      | Ir.Const v when v = k -> ()
      | _ -> raise Reject)
  | Ast.Ebinop (mop, p1, p2) -> match_binop ctx i bindings mop p1 p2 il
  | Ast.Erel (mrel, p1, p2) -> (
      match (Glue.relop_of_maril mrel, il.Ir.e_kind) with
      | Some irel, Ir.Rel (iop, a, b) when iop = irel ->
          match_value ctx i bindings p1 a;
          match_value ctx i bindings p2 b
      | _ -> raise Reject)
  | Ast.Eunop (mop, p) -> (
      let iop =
        match mop with
        | Ast.Neg -> Ir.Neg
        | Ast.Bnot -> Ir.Bnot
        | Ast.Lnot -> Ir.Lnot
      in
      match il.Ir.e_kind with
      | Ir.Unop (op, a) when op = iop -> match_value ctx i bindings p a
      | _ -> raise Reject)
  | Ast.Ecvt (vt, p) -> (
      match il.Ir.e_kind with
      | Ir.Cvt (t, a) when t = vtype_to_ir vt -> match_value ctx i bindings p a
      | _ -> raise Reject)
  | Ast.Emem (_, addr_pat) -> (
      (* a load: width given by the instruction's type constraint *)
      match il.Ir.e_kind with
      | Ir.Load a -> (
          match i.Model.i_type with
          | Some vt when vtype_to_ir vt = il.Ir.e_ty ->
              match_addr ctx i bindings addr_pat a
          | Some _ -> raise Reject
          | None -> match_addr ctx i bindings addr_pat a)
      | _ -> raise Reject)
  | Ast.Ebuiltin ("high", [ Ast.Eopnd n ]) -> (
      match il.Ir.e_kind with
      | Ir.Const v ->
          bind ctx i bindings (n - 1) (Mir.Oimm ((Ir.mask32 v lsr 16) land 0xFFFF))
      | _ -> raise Reject)
  | Ast.Ebuiltin ("low", [ Ast.Eopnd n ]) -> (
      match il.Ir.e_kind with
      | Ir.Const v -> bind ctx i bindings (n - 1) (Mir.Oimm (v land 0xFFFF))
      | _ -> raise Reject)
  | Ast.Eflt _ | Ast.Ename _ | Ast.Ebuiltin _ -> raise Reject

and match_binop ctx i bindings mop p1 p2 (il : Ir.expr) =
  let iop = Glue.binop_of_maril mop in
  (* frame-slot addresses look like fp + offset to the patterns *)
  let slot_case () =
    match (mop, p1, p2, il.Ir.e_kind) with
    | Ast.Add, Ast.Eopnd a, Ast.Eopnd b, Ir.Slotaddr s -> (
        match (i.Model.i_opnds.(a - 1), i.Model.i_opnds.(b - 1)) with
        | Model.Kreg c, Model.Kimm _
          when c = ctx.model.Model.cwvm.Model.v_fp.Model.cls ->
            bind ctx i bindings (a - 1) (fp_operand ctx);
            bind ctx i bindings (b - 1) (Mir.Oslot (mir_slot ctx s, 0));
            true
        | _ -> false)
    | ( Ast.Add,
        Ast.Eopnd a,
        Ast.Eopnd b,
        Ir.Binop (Ir.Add, { Ir.e_kind = Ir.Slotaddr s; _ }, { Ir.e_kind = Ir.Const c; _ })
      ) -> (
        match (i.Model.i_opnds.(a - 1), i.Model.i_opnds.(b - 1)) with
        | Model.Kreg rc, Model.Kimm _
          when rc = ctx.model.Model.cwvm.Model.v_fp.Model.cls ->
            bind ctx i bindings (a - 1) (fp_operand ctx);
            bind ctx i bindings (b - 1) (Mir.Oslot (mir_slot ctx s, c));
            true
        | _ -> false)
    | _ -> false
  in
  if slot_case () then ()
  else
    match il.Ir.e_kind with
    | Ir.Binop (op, a, b) when op = iop ->
        match_value ctx i bindings p1 a;
        match_value ctx i bindings p2 b
    | _ -> raise Reject

(* address matching with the reg+imm accommodation: if the address does not
   decompose as base+offset, bind the offset to 0 and the base to the whole
   address (paper 2.1: addressing choices managed with the ordered list) *)
and match_addr ctx (i : Model.instr) bindings addr_pat (addr : Ir.expr) =
  match addr_pat with
  | Ast.Ebinop (Ast.Add, (Ast.Eopnd a as p1), (Ast.Eopnd b as p2)) -> (
      let base_is_reg =
        match i.Model.i_opnds.(a - 1) with
        | Model.Kreg _ -> true
        | Model.Kregfix _ | Model.Kimm _ | Model.Klab _ -> false
      in
      let off_is_imm =
        match i.Model.i_opnds.(b - 1) with
        | Model.Kimm _ -> true
        | Model.Kreg _ | Model.Kregfix _ | Model.Klab _ -> false
      in
      let cp = save ctx in
      let saved_bindings = Array.copy bindings in
      match match_binop ctx i bindings Ast.Add p1 p2 addr with
      | () -> ()
      | exception Reject ->
          restore ctx cp;
          Array.blit saved_bindings 0 bindings 0 (Array.length bindings);
          if base_is_reg && off_is_imm then begin
            match_operand ctx i bindings a addr;
            bind ctx i bindings (b - 1) (Mir.Oimm 0)
          end
          else raise Reject)
  | _ -> match_value ctx i bindings addr_pat addr

(* ------------------------------------------------------------------ *)
(* Values with a required destination                                  *)
(* ------------------------------------------------------------------ *)

(* select e and leave the result in [dst] (a preg or a physical reg) *)
let select_into_dst ctx cls (dst : Mir.operand) (e : Ir.expr) =
  let o = select_top ctx cls e in
  if o = dst then ()
  else emit_all ctx (emit_move ctx.fn ~dst ~src:o ~cls)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let find_stmt_instr ctx pred =
  let found = ref None in
  Array.iter
    (fun i -> if !found = None && pred i then found := Some i)
    ctx.model.Model.instrs;
  !found

let select_jump ctx target =
  let jmp =
    find_stmt_instr ctx (fun i ->
        (not i.Model.i_escape)
        &&
        match i.Model.i_sem with
        | [ Ast.Sgoto n ] -> (
            n >= 1
            && n <= Array.length i.Model.i_opnds
            &&
            match i.Model.i_opnds.(n - 1) with
            | Model.Klab _ -> true
            | Model.Kreg _ | Model.Kregfix _ | Model.Kimm _ -> false)
        | _ -> false)
  in
  match jmp with
  | Some i ->
      let ops =
        Array.map
          (fun k ->
            match k with
            | Model.Klab _ -> Mir.Olab target
            | Model.Kregfix r -> Mir.Ophys r
            | Model.Kimm _ -> Mir.Oimm 0
            | Model.Kreg _ -> raise (No_pattern "jump with register operand"))
          i.Model.i_opnds
      in
      emit ctx (Mir.mk_inst ctx.fn i ops)
  | None -> raise (No_pattern "no unconditional jump instruction")

let select_cjump ctx rel a b target =
  let cond_il = Ir.mk Ir.I32 (Ir.Rel (rel, a, b)) in
  let n = Array.length ctx.model.Model.instrs in
  let rec try_instr k =
    if k >= n then
      raise
        (No_pattern
           (Format.asprintf "%s: no branch pattern matches %a"
              ctx.model.Model.name Ir.pp_expr cond_il))
    else
      let i = ctx.model.Model.instrs.(k) in
      match i.Model.i_sem with
      | [ Ast.Sifgoto (cond_pat, ln) ] when not i.Model.i_escape -> (
          let cp = save ctx in
          match
            let bindings = Array.make (Array.length i.Model.i_opnds) None in
            match_value ctx i bindings cond_pat cond_il;
            bind ctx i bindings (ln - 1) (Mir.Olab target);
            bindings
          with
          | bindings -> finish_emit ctx i bindings
          | exception Reject ->
              restore ctx cp;
              try_instr (k + 1))
      | _ -> try_instr (k + 1)
  in
  try_instr 0

let select_store ctx ty addr value =
  let n = Array.length ctx.model.Model.instrs in
  let rec try_instr k =
    if k >= n then
      raise
        (No_pattern
           (Format.asprintf "%s: no store pattern for %s[%a]"
              ctx.model.Model.name (Ir.ty_to_string ty) Ir.pp_expr addr))
    else
      let i = ctx.model.Model.instrs.(k) in
      match i.Model.i_sem with
      | [ Ast.Sassign (Ast.Lmem (_, addr_pat), vpat) ] when not i.Model.i_escape
        -> (
          let width_ok =
            match store_width_of_pattern i vpat with
            | Some w -> w = ty
            | None -> (
                (* fall back to the value operand's class: size and
                   float-ness must agree *)
                match vpat with
                | Ast.Eopnd vn -> (
                    match i.Model.i_opnds.(vn - 1) with
                    | Model.Kreg c ->
                        let cl = Model.class_exn ctx.model c in
                        cl.Model.c_size = Ir.ty_size ty
                        && Glue.class_accepts ctx.model cl ty
                    | Model.Kregfix _ | Model.Kimm _ | Model.Klab _ -> false)
                | _ -> false)
          in
          if not width_ok then try_instr (k + 1)
          else
            let cp = save ctx in
            match
              let bindings = Array.make (Array.length i.Model.i_opnds) None in
              (match vpat with
              | Ast.Ecvt (vt, inner) -> (
                  (* stored value arrives wrapped in the conversion *)
                  match value.Ir.e_kind with
                  | Ir.Cvt (t, x) when t = vtype_to_ir vt ->
                      match_value ctx i bindings inner x
                  | _ -> match_value ctx i bindings inner value)
              | _ -> match_value ctx i bindings vpat value);
              match_addr ctx i bindings addr_pat addr;
              bindings
            with
            | bindings -> finish_emit ctx i bindings
            | exception Reject ->
                restore ctx cp;
                try_instr (k + 1))
      | _ -> try_instr (k + 1)
  in
  try_instr 0

(* calls: arguments to CWVM argument registers, clobbers recorded, result
   fetched from the CWVM result register.

   Argument registers may alias through %equiv (TOYP passes its double
   argument in d1 = r2:r3, the same storage as its two integer argument
   registers), so assignment walks the whole signature and skips any
   register that overlaps one already taken — the MIPS o32 discipline.
   Caller and callee run the same algorithm, so they agree. *)
let assign_args ctx (tys : Ir.ty list) : Model.reg option list =
  let taken : Model.reg list ref = ref [] in
  List.map
    (fun ty ->
      let wanted = Glue.ir_to_vtypes ty in
      let candidates =
        List.concat_map
          (fun vt ->
            List.filter (fun (avt, _, _) -> avt = vt)
              ctx.model.Model.cwvm.Model.v_args)
          wanted
        |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
      in
      let pick =
        List.find_opt
          (fun (_, r, _) ->
            not
              (List.exists
                 (fun t -> Model.regs_overlap ctx.model t r)
                 !taken))
          candidates
      in
      match pick with
      | Some (_, r, _) ->
          taken := r :: !taken;
          Some r
      | None -> None)
    tys

let result_reg ctx (ty : Ir.ty) =
  let wanted = Glue.ir_to_vtypes ty in
  List.find_map
    (fun vt ->
      List.find_map
        (fun (r, rvt) -> if rvt = vt then Some r else None)
        ctx.model.Model.cwvm.Model.v_results)
    wanted

let call_clobbers ctx =
  let m = ctx.model in
  List.filter (fun r -> not (Model.is_callee_save m r)) m.Model.cwvm.Model.v_allocable
  @ [ m.Model.cwvm.Model.v_retaddr ]

let select_call ctx (dst : Ir.temp option) fname (args : Ir.expr list) =
  ctx.fn.Mir.f_has_calls <- true;
  (* evaluate arguments into temporaries first *)
  let evaluated =
    List.map
      (fun (a : Ir.expr) ->
        let cls = class_for_ty ctx.model a.Ir.e_ty in
        (select_top ctx cls a, cls, a.Ir.e_ty))
      args
  in
  (* then move them into the argument registers *)
  let assignment =
    assign_args ctx (List.map (fun (a : Ir.expr) -> a.Ir.e_ty) args)
  in
  let used_arg_regs =
    List.map2
      (fun (idx, (o, cls, _)) reg ->
        match reg with
        | Some r ->
            emit_all ctx (emit_move ctx.fn ~dst:(Mir.Ophys r) ~src:o ~cls);
            r
        | None ->
            raise
              (No_pattern
                 (Printf.sprintf
                    "%s: no CWVM argument register for argument %d of %s"
                    ctx.model.Model.name (idx + 1) fname)))
      (List.mapi (fun i e -> (i, e)) evaluated)
      assignment
  in
  let call =
    find_stmt_instr ctx (fun i ->
        (not i.Model.i_escape)
        &&
        match i.Model.i_sem with
        | [ Ast.Scall n ] -> (
            n >= 1
            && n <= Array.length i.Model.i_opnds
            &&
            match i.Model.i_opnds.(n - 1) with
            | Model.Klab _ -> true
            | Model.Kreg _ | Model.Kregfix _ | Model.Kimm _ -> false)
        | _ -> false)
  in
  (match call with
  | Some i ->
      let ops =
        Array.map
          (fun k ->
            match k with
            | Model.Klab _ -> Mir.Osym (fname, 0)
            | Model.Kregfix r -> Mir.Ophys r
            | Model.Kimm _ -> Mir.Oimm 0
            | Model.Kreg _ -> raise (No_pattern "call with register operand"))
          i.Model.i_opnds
      in
      emit ctx
        (Mir.mk_inst ~xuse:used_arg_regs ~xdef:(call_clobbers ctx) ctx.fn i ops)
  | None -> raise (No_pattern "no call instruction in the description"));
  match dst with
  | None -> ()
  | Some t -> (
      let p = preg_of_temp ctx t in
      match result_reg ctx t.Ir.t_ty with
      | Some r ->
          emit_all ctx
            (emit_move ctx.fn ~dst:(Mir.Opreg p) ~src:(Mir.Ophys r)
               ~cls:p.Mir.p_cls)
      | None ->
          raise
            (No_pattern
               (Printf.sprintf "%s: no CWVM result register for type %s"
                  ctx.model.Model.name
                  (Ir.ty_to_string t.Ir.t_ty))))

let exit_label (fn : Ir.func) = fn.Ir.fn_name ^ "__exit"

let select_stmt ctx irfn (s : Ir.stmt) =
  match s with
  | Ir.Assign (t, e) ->
      let p = preg_of_temp ctx t in
      select_into_dst ctx p.Mir.p_cls (Mir.Opreg p) e
  | Ir.Store (ty, addr, v) -> select_store ctx ty addr v
  | Ir.Jump l -> select_jump ctx l
  | Ir.Cjump (rel, a, b, l) -> select_cjump ctx rel a b l
  | Ir.Call { dst; fn; args } -> select_call ctx dst fn args
  | Ir.Ret e -> (
      (match e with
      | None -> ()
      | Some v -> (
          match result_reg ctx v.Ir.e_ty with
          | Some r ->
              let cls = class_for_ty ctx.model v.Ir.e_ty in
              select_into_dst ctx cls (Mir.Ophys r) v
          | None ->
              raise
                (No_pattern
                   (Printf.sprintf "%s: no CWVM result register for type %s"
                      ctx.model.Model.name
                      (Ir.ty_to_string v.Ir.e_ty)))));
      select_jump ctx (exit_label irfn))

(* ------------------------------------------------------------------ *)
(* Functions and programs                                              *)
(* ------------------------------------------------------------------ *)

let mark_globals (fn : Mir.func) =
  let seen : (int, Mir.block) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          Array.iter
            (fun o ->
              match Mir.operand_reg o with
              | Some (`Preg p) -> (
                  match Hashtbl.find_opt seen p.Mir.p_id with
                  | None -> Hashtbl.replace seen p.Mir.p_id b
                  | Some b' -> if b' != b then p.Mir.p_global <- true)
              | Some (`Phys _) | None -> ())
            i.Mir.n_ops)
        b.Mir.b_insts)
    fn.Mir.f_blocks

let select_func model (irfn : Ir.func) : Mir.func =
  let fn = Mir.new_func model irfn.Ir.fn_name in
  let ctx =
    {
      model;
      fn;
      temps = Hashtbl.create 32;
      slot_map = Hashtbl.create 8;
      out = [];
      in_const_split = false;
    }
  in
  let blocks = ref [] in
  let rec layout = function
    | [] -> ()
    | (b : Ir.block) :: rest ->
        ctx.out <- [];
        (* entry block: copy the incoming arguments out of the CWVM
           argument registers into the parameter pseudo-registers *)
        if !blocks = [] then begin
          let assignment =
            assign_args ctx (List.map snd irfn.Ir.fn_params)
          in
          (* copy narrow-class parameters out first: their argument
             registers may alias halves of wide argument registers (TOYP's
             r4 is half of d2), and freeing them early keeps the wide
             copies colorable *)
          let moves =
            List.mapi
              (fun idx ((t : Ir.temp), (_ : Ir.ty)) ->
                match List.nth assignment idx with
                | Some r -> (t, r)
                | None ->
                    raise
                      (No_pattern
                         (Printf.sprintf
                            "%s: no CWVM argument register for parameter %d of %s"
                            model.Model.name (idx + 1) irfn.Ir.fn_name)))
              irfn.Ir.fn_params
            |> List.stable_sort (fun (_, r1) (_, r2) ->
                   compare
                     (Model.class_exn model r1.Model.cls).Model.c_size
                     (Model.class_exn model r2.Model.cls).Model.c_size)
          in
          List.iter
            (fun (t, r) ->
              let p = preg_of_temp ctx t in
              emit_all ctx
                (emit_move ctx.fn ~dst:(Mir.Opreg p) ~src:(Mir.Ophys r)
                   ~cls:p.Mir.p_cls))
            moves
        end;
        List.iter (select_stmt ctx irfn) b.Ir.b_stmts;
        let mb = Mir.new_block b.Ir.b_label in
        mb.Mir.b_insts <- List.rev ctx.out;
        let next =
          match rest with (nb : Ir.block) :: _ -> Some nb.Ir.b_label | [] -> None
        in
        mb.Mir.b_succs <-
          (match Ir.block_succs ~next b with
          | [] when rest = [] -> [ exit_label irfn ]
          | [] -> [ exit_label irfn ]
          | succs -> succs);
        blocks := mb :: !blocks;
        layout rest
  in
  layout irfn.Ir.fn_blocks;
  let exit_block = Mir.new_block (exit_label irfn) in
  fn.Mir.f_blocks <- List.rev (exit_block :: !blocks);
  mark_globals fn;
  fn

let select_prog model (prog : Ir.prog) : Mir.prog =
  List.iter (Glue.transform_func model) prog.Ir.funcs;
  {
    Mir.p_model = model;
    p_globals =
      List.map
        (fun (g : Ir.global) ->
          { Mir.g_name = g.Ir.gl_name; g_align = g.Ir.gl_align; g_bytes = g.Ir.gl_bytes })
        prog.Ir.globals;
    p_funcs = List.map (select_func model) prog.Ir.funcs;
  }
