type cache_config = { lines : int; line_bytes : int; miss_penalty : int }

type config = {
  memory_size : int;
  fuel : int;
  cache : cache_config option;
  trace_limit : int;  (* record the first N issued instructions *)
}

let default_config =
  { memory_size = 8 * 1024 * 1024; fuel = 400_000_000; cache = None;
    trace_limit = 0 }

type result = {
  output : string;
  return_value : int;
  cycles : int;
  instructions : int;
  block_freq : (string, int) Hashtbl.t;
  loads : int;
  cache_misses : int;
  trace : (int * string) list;  (* (cycle, instruction) for the first
                                    [trace_limit] issues *)
}

exception Sim_error of string

let fail fmt = Format.kasprintf (fun m -> raise (Sim_error m)) fmt

(* ------------------------------------------------------------------ *)
(* Values                                                              *)
(* ------------------------------------------------------------------ *)

type value = Vi of int | Vf of float

let vi = function Vi n -> n | Vf f -> int_of_float f

let vf = function Vf f -> f | Vi n -> float_of_int n

(* memory / register access kinds *)
type access = { a_width : int; a_float : bool }

let access_of_vtype = function
  | Ast.Char -> { a_width = 1; a_float = false }
  | Ast.Short -> { a_width = 2; a_float = false }
  | Ast.Int | Ast.Long -> { a_width = 4; a_float = false }
  | Ast.Float -> { a_width = 4; a_float = true }
  | Ast.Double -> { a_width = 8; a_float = true }

let access_of_class model cid =
  let c = Model.class_exn model cid in
  let flt =
    List.exists (fun t -> t = Ast.Float || t = Ast.Double) c.Model.c_types
  in
  { a_width = c.Model.c_size; a_float = flt }

(* ------------------------------------------------------------------ *)
(* Loaded program                                                      *)
(* ------------------------------------------------------------------ *)

type soperand =
  | Simm of int
  | Sreg of Model.reg
  | Slab of int  (* code index *)

type sinst = {
  s_op : Model.instr;
  s_ops : soperand array;
  s_label : string option;  (* set on the first instruction of a block *)
  s_load_kind : access option;
  s_store_kind : access option;
}

type program = {
  code : sinst array;
  entry : int;  (* index of main *)
  data : bytes;  (* initial memory image (globals) *)
  data_end : int;
  builtin_at : (int, string) Hashtbl.t;  (* code index -> builtin name *)
}

let builtin_names = [ "print_int"; "print_char"; "print_double" ]

let store_kind model (op : Model.instr) =
  let rec find_store = function
    | [] -> None
    | Ast.Sassign (Ast.Lmem (_, _), v) :: _ -> Some v
    | _ :: tl -> find_store tl
  in
  match find_store op.Model.i_sem with
  | None -> None
  | Some (Ast.Ecvt (vt, _)) -> Some (access_of_vtype vt)
  | Some v -> (
      match op.Model.i_type with
      | Some vt -> Some (access_of_vtype vt)
      | None -> (
          match v with
          | Ast.Eopnd n -> (
              match op.Model.i_opnds.(n - 1) with
              | Model.Kreg c -> Some (access_of_class model c)
              | Model.Kregfix r -> Some (access_of_class model r.Model.cls)
              | Model.Kimm _ | Model.Klab _ -> Some { a_width = 4; a_float = false })
          | _ -> Some { a_width = 4; a_float = false }))

let load_kind model (op : Model.instr) =
  if not op.Model.i_loads then None
  else
    match op.Model.i_type with
    | Some vt -> Some (access_of_vtype vt)
    | None -> (
        (* fall back to the destination operand's class *)
        match op.Model.i_writes with
        | pos :: _ -> (
            match op.Model.i_opnds.(pos) with
            | Model.Kreg c -> Some (access_of_class model c)
            | Model.Kregfix r -> Some (access_of_class model r.Model.cls)
            | Model.Kimm _ | Model.Klab _ -> Some { a_width = 4; a_float = false })
        | [] -> Some { a_width = 4; a_float = false })

let align_up v a = (v + a - 1) / a * a

let load_program (prog : Mir.prog) memory_size : program =
  let model = prog.Mir.p_model in
  (* data segment *)
  let data = Bytes.make memory_size '\000' in
  let daddr : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let cursor = ref 64 in
  List.iter
    (fun (g : Mir.global) ->
      cursor := align_up !cursor (max 1 g.Mir.g_align);
      Hashtbl.replace daddr g.Mir.g_name !cursor;
      Bytes.blit g.Mir.g_bytes 0 data !cursor (Bytes.length g.Mir.g_bytes);
      cursor := !cursor + Bytes.length g.Mir.g_bytes)
    prog.Mir.p_globals;
  (* code layout: two passes (labels first) *)
  let label_at : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let builtin_at = Hashtbl.create 4 in
  let counter = ref 0 in
  List.iter
    (fun (fn : Mir.func) ->
      Hashtbl.replace label_at fn.Mir.f_name !counter;
      List.iter
        (fun (b : Mir.block) ->
          Hashtbl.replace label_at b.Mir.b_label !counter;
          counter := !counter + List.length b.Mir.b_insts)
        fn.Mir.f_blocks)
    prog.Mir.p_funcs;
  (* builtins get one pseudo slot each so calls have a target index *)
  List.iter
    (fun name ->
      Hashtbl.replace label_at name !counter;
      Hashtbl.replace builtin_at !counter name;
      incr counter)
    builtin_names;
  let ncode = !counter in
  let dummy =
    {
      s_op =
        (match Model.find_nop model with
        | Some n -> n
        | None -> fail "%s: description has no nop instruction" model.Model.name);
      s_ops = [||];
      s_label = None;
      s_load_kind = None;
      s_store_kind = None;
    }
  in
  let code = Array.make ncode dummy in
  let resolve_operand (o : Mir.operand) : soperand =
    match o with
    | Mir.Oimm v -> Simm v
    | Mir.Ophys r -> Sreg r
    | Mir.Osym (s, a) -> (
        match Hashtbl.find_opt daddr s with
        | Some addr -> Simm (addr + a)
        | None -> (
            match Hashtbl.find_opt label_at s with
            | Some idx -> Slab idx
            | None -> fail "undefined symbol %S" s))
    | Mir.Olab l -> (
        match Hashtbl.find_opt label_at l with
        | Some idx -> Slab idx
        | None -> fail "undefined label %S" l)
    | Mir.Opreg _ | Mir.Opart _ | Mir.Oslot _ ->
        fail "unresolved operand reaches the simulator (%s)"
          (Format.asprintf "%a" (Mir.pp_operand model) o)
  in
  let pos = ref 0 in
  List.iter
    (fun (fn : Mir.func) ->
      List.iter
        (fun (b : Mir.block) ->
          List.iteri
            (fun k (i : Mir.inst) ->
              code.(!pos) <-
                {
                  s_op = i.Mir.n_op;
                  s_ops = Array.map resolve_operand i.Mir.n_ops;
                  s_label = (if k = 0 then Some b.Mir.b_label else None);
                  s_load_kind = load_kind model i.Mir.n_op;
                  s_store_kind = store_kind model i.Mir.n_op;
                };
              incr pos)
            b.Mir.b_insts;
          (* empty blocks still need their frequency recorded: attach the
             label to the next instruction slot if it exists *)
          if b.Mir.b_insts = [] then ())
        fn.Mir.f_blocks)
    prog.Mir.p_funcs;
  let entry =
    match Hashtbl.find_opt label_at "main" with
    | Some e -> e
    | None -> fail "program has no main function"
  in
  { code; entry; data; data_end = !cursor; builtin_at }

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)
(* ------------------------------------------------------------------ *)

type state = {
  model : Model.t;
  cfg : config;
  prog : program;
  banks : Bytes.t array;
  ready : int array array;  (* per bank, per byte: cycle the value is ready *)
  writer : int array array;  (* flat code index of the last writer, or -1 *)
  wcycle : int array array;
  mem : Bytes.t;
  out : Buffer.t;
  mutable pc : int;
  mutable cycle : int;
  mutable icount : int;
  mutable nloads : int;
  mutable misses : int;
  (* pending branch: target, slots remaining *)
  mutable redirect : (int * int) option;
  mutable halted : bool;
  mutable trace_acc : (int * string) list;
  block_freq : (string, int) Hashtbl.t;
  (* busy resources over a ring-buffer window of cycles *)
  busy : Scoreboard.t;
  lat : Latency.t;
  mutable cur_class : Bitset.t option;
  cache_tags : int array;  (* -1 = invalid *)
  halt_index : int;
}

let bank_bytes st r =
  let bank, off, size = Model.reg_bytes st.model r in
  (bank, off, size)

let read_reg st (r : Model.reg) : value =
  let a = access_of_class st.model r.Model.cls in
  let bank, off, _ = bank_bytes st r in
  let b = st.banks.(bank) in
  if a.a_float then
    if a.a_width = 8 then Vf (Int64.float_of_bits (Bytes.get_int64_le b off))
    else Vf (Int32.float_of_bits (Bytes.get_int32_le b off))
  else
    match a.a_width with
    | 1 ->
        let v = Bytes.get_uint8 b off in
        Vi (if v land 0x80 <> 0 then v - 0x100 else v)
    | 2 ->
        let v = Bytes.get_uint16_le b off in
        Vi (if v land 0x8000 <> 0 then v - 0x10000 else v)
    | _ -> Vi (Int32.to_int (Bytes.get_int32_le b off))

let write_reg st (r : Model.reg) (v : value) =
  let a = access_of_class st.model r.Model.cls in
  let bank, off, _ = bank_bytes st r in
  let b = st.banks.(bank) in
  if a.a_float then
    if a.a_width = 8 then Bytes.set_int64_le b off (Int64.bits_of_float (vf v))
    else Bytes.set_int32_le b off (Int32.bits_of_float (vf v))
  else
    match a.a_width with
    | 1 -> Bytes.set_uint8 b off (vi v land 0xFF)
    | 2 -> Bytes.set_uint16_le b off (vi v land 0xFFFF)
    | _ -> Bytes.set_int32_le b off (Int32.of_int (vi v))

let mem_load st (a : access) addr : value =
  if addr < 0 || addr + a.a_width > Bytes.length st.mem then
    fail "load out of bounds at %d (pc=%d)" addr st.pc;
  if a.a_float then
    if a.a_width = 8 then Vf (Int64.float_of_bits (Bytes.get_int64_le st.mem addr))
    else Vf (Int32.float_of_bits (Bytes.get_int32_le st.mem addr))
  else
    match a.a_width with
    | 1 ->
        let v = Bytes.get_uint8 st.mem addr in
        Vi (if v land 0x80 <> 0 then v - 0x100 else v)
    | 2 ->
        let v = Bytes.get_uint16_le st.mem addr in
        Vi (if v land 0x8000 <> 0 then v - 0x10000 else v)
    | _ -> Vi (Int32.to_int (Bytes.get_int32_le st.mem addr))

let mem_store st (a : access) addr (v : value) =
  if addr < 0 || addr + a.a_width > Bytes.length st.mem then
    fail "store out of bounds at %d (pc=%d)" addr st.pc;
  if a.a_float then
    if a.a_width = 8 then Bytes.set_int64_le st.mem addr (Int64.bits_of_float (vf v))
    else Bytes.set_int32_le st.mem addr (Int32.bits_of_float (vf v))
  else
    match a.a_width with
    | 1 -> Bytes.set_uint8 st.mem addr (vi v land 0xFF)
    | 2 -> Bytes.set_uint16_le st.mem addr (vi v land 0xFFFF)
    | _ -> Bytes.set_int32_le st.mem addr (Int32.of_int (vi v))

(* direct-mapped cache lookup for loads *)
let cache_access st addr =
  match st.cfg.cache with
  | None -> 0
  | Some c ->
      st.nloads <- st.nloads + 1;
      let line = addr / c.line_bytes in
      let idx = line mod c.lines in
      if st.cache_tags.(idx) = line then 0
      else begin
        st.cache_tags.(idx) <- line;
        st.misses <- st.misses + 1;
        c.miss_penalty
      end

(* ------------------------------------------------------------------ *)
(* Hazard bookkeeping                                                  *)
(* ------------------------------------------------------------------ *)

let reg_ready_for st (consumer : Model.instr) (r : Model.reg) =
  let bank, off, size = bank_bytes st r in
  let req = ref 0 in
  for b = off to off + size - 1 do
    let t =
      if st.writer.(bank).(b) >= 0 then begin
        let widx = st.writer.(bank).(b) in
        let wop = st.prog.code.(widx).s_op in
        let opnd_eq a bpos =
          (* operand condition of %aux: compare the operand values of the
             two instructions *)
          a >= 0
          && a < Array.length st.prog.code.(widx).s_ops
          && bpos >= 0
          &&
          (* the consumer instruction being checked is at st.pc *)
          bpos < Array.length st.prog.code.(st.pc).s_ops
          && st.prog.code.(widx).s_ops.(a) = st.prog.code.(st.pc).s_ops.(bpos)
        in
        match Latency.find st.lat ~first:wop ~second:consumer ~opnd_eq with
        | Some l -> st.wcycle.(bank).(b) + l
        | None -> st.ready.(bank).(b)
      end
      else st.ready.(bank).(b)
    in
    if t > !req then req := t
  done;
  !req

let mark_written st (r : Model.reg) latency =
  let bank, off, size = bank_bytes st r in
  for b = off to off + size - 1 do
    st.ready.(bank).(b) <- st.cycle + max 1 latency;
    st.writer.(bank).(b) <- st.pc;
    st.wcycle.(bank).(b) <- st.cycle
  done

(* ------------------------------------------------------------------ *)
(* Semantics evaluation                                                *)
(* ------------------------------------------------------------------ *)

let find_named st name =
  match Model.find_class st.model name with
  | Some c -> Locs.named_reg st.model c.Model.c_id
  | None -> fail "unknown register name %S in semantics" name

let operand_value st (si : sinst) n : value =
  match si.s_ops.(n - 1) with
  | Simm v -> Vi v
  | Slab idx -> Vi idx
  | Sreg r -> read_reg st r

let rec eval st (si : sinst) (e : Ast.expr) : value =
  match e with
  | Ast.Eint n -> Vi n
  | Ast.Eflt f -> Vf f
  | Ast.Eopnd n -> operand_value st si n
  | Ast.Ename name -> read_reg st (find_named st name)
  | Ast.Emem (_, a) -> (
      let addr = vi (eval st si a) in
      match si.s_load_kind with
      | Some k -> mem_load st k addr
      | None -> mem_load st { a_width = 4; a_float = false } addr)
  | Ast.Ebinop (op, a, b) -> eval_binop st op (eval st si a) (eval st si b)
  | Ast.Erel (op, a, b) -> eval_rel st op (eval st si a) (eval st si b)
  | Ast.Eunop (Ast.Neg, a) -> (
      match eval st si a with
      | Vi n -> Vi (Arith32.sext32 (-n))
      | Vf f -> Vf (-.f))
  | Ast.Eunop (Ast.Bnot, a) -> Vi (Arith32.sext32 (lnot (vi (eval st si a))))
  | Ast.Eunop (Ast.Lnot, a) -> Vi (if vi (eval st si a) = 0 then 1 else 0)
  | Ast.Ecvt (vt, a) -> (
      let v = eval st si a in
      match vt with
      | Ast.Char ->
          let m = vi v land 0xFF in
          Vi (if m land 0x80 <> 0 then m - 0x100 else m)
      | Ast.Short ->
          let m = vi v land 0xFFFF in
          Vi (if m land 0x8000 <> 0 then m - 0x10000 else m)
      | Ast.Int | Ast.Long -> Vi (Arith32.sext32 (vi v))
      | Ast.Float -> Vf (Int32.float_of_bits (Int32.bits_of_float (vf v)))
      | Ast.Double -> Vf (vf v))
  | Ast.Ebuiltin ("high", [ a ]) ->
      Vi ((Arith32.mask32 (vi (eval st si a)) lsr 16) land 0xFFFF)
  | Ast.Ebuiltin ("low", [ a ]) -> Vi (vi (eval st si a) land 0xFFFF)
  | Ast.Ebuiltin ("eval", [ a ]) -> eval st si a
  | Ast.Ebuiltin (f, _) -> fail "unknown builtin %S in semantics" f

and eval_binop st op a b =
  ignore st;
  match (a, b) with
  | Vi x, Vi y -> (
      let s = Arith32.sext32 in
      match op with
      | Ast.Add -> Vi (s (x + y))
      | Ast.Sub -> Vi (s (x - y))
      | Ast.Mul -> Vi (s (x * y))
      | Ast.Div -> if y = 0 then fail "division by zero" else Vi (s (x / y))
      | Ast.Rem -> if y = 0 then fail "modulo by zero" else Vi (s (x mod y))
      | Ast.And -> Vi (x land y)
      | Ast.Or -> Vi (x lor y)
      | Ast.Xor -> Vi (x lxor y)
      | Ast.Shl -> Vi (s (x lsl (y land 31)))
      | Ast.Sar -> Vi (s (x asr (y land 31)))
      | Ast.Shr -> Vi (s (Arith32.mask32 x lsr (y land 31)))
      | Ast.Cmp -> Vi (compare x y))
  | (Vf _, _ | _, Vf _) -> (
      let x = vf a and y = vf b in
      match op with
      | Ast.Add -> Vf (x +. y)
      | Ast.Sub -> Vf (x -. y)
      | Ast.Mul -> Vf (x *. y)
      | Ast.Div -> Vf (x /. y)
      | Ast.Cmp -> Vi (compare x y)
      | Ast.Rem | Ast.And | Ast.Or | Ast.Xor | Ast.Shl | Ast.Sar | Ast.Shr ->
          fail "float operand on an integer operation")

and eval_rel st op a b =
  ignore st;
  let c =
    match (a, b) with
    | Vi x, Vi y -> compare x y
    | _ -> compare (vf a) (vf b)
  in
  let r =
    match op with
    | Ast.Eq -> c = 0
    | Ast.Ne -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Le -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Ge -> c >= 0
    | Ast.Ltu | Ast.Geu -> fail "unsigned comparisons are not modeled"
  in
  Vi (if r then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Issue and execute                                                   *)
(* ------------------------------------------------------------------ *)

let data_ready st (si : sinst) =
  let op = si.s_op in
  List.for_all
    (fun pos ->
      match si.s_ops.(pos) with
      | Sreg r -> reg_ready_for st op r <= st.cycle
      | Simm _ | Slab _ -> true)
    op.Model.i_reads
  && List.for_all
       (fun cid -> reg_ready_for st op (Locs.named_reg st.model cid) <= st.cycle)
       op.Model.i_rnames

let resources_free st (si : sinst) =
  not (Scoreboard.conflict st.busy ~cycle:st.cycle si.s_op.Model.i_rvec)

let class_ok st (si : sinst) =
  match (si.s_op.Model.i_class, st.cur_class) with
  | None, _ -> true
  | Some _, None -> true
  | Some k, Some cur -> not (Bitset.inter_empty cur k)

let do_builtin st name =
  let cwvm = st.model.Model.cwvm in
  let arg vt =
    match
      List.find_opt (fun (t, _, n) -> t = vt && n = 1) cwvm.Model.v_args
    with
    | Some (_, r, _) -> read_reg st r
    | None -> fail "CWVM has no first %s argument register" (Ast.vtype_to_string vt)
  in
  match name with
  | "print_int" ->
      Buffer.add_string st.out (string_of_int (vi (arg Ast.Int)));
      Buffer.add_char st.out '\n'
  | "print_char" -> Buffer.add_char st.out (Char.chr (vi (arg Ast.Int) land 0xFF))
  | "print_double" ->
      Buffer.add_string st.out (Printf.sprintf "%.6f\n" (vf (arg Ast.Double)))
  | other -> fail "unknown builtin %S" other

let exec_sem st (si : sinst) =
  let op = si.s_op in
  let slots = abs op.Model.i_slots in
  (* a load's cache penalty: its address must be read before the
     semantics run, since the destination may be the base register *)
  let penalty =
    if op.Model.i_loads && st.cfg.cache <> None then
      let rec addr_of = function
        | [] -> None
        | Ast.Sassign (_, Ast.Emem (_, a)) :: _ -> Some a
        | _ :: tl -> addr_of tl
      in
      match addr_of op.Model.i_sem with
      | Some a -> cache_access st (vi (eval st si a))
      | None -> 0
    else 0
  in
  List.iter
    (fun (s : Ast.stmt) ->
      match s with
      | Ast.Snop -> ()
      | Ast.Sassign (lhs, e) -> (
          let v = eval st si e in
          match lhs with
          | Ast.Lopnd n -> (
              match si.s_ops.(n - 1) with
              | Sreg r ->
                  write_reg st r v;
                  mark_written st r op.Model.i_latency
              | Simm _ | Slab _ -> fail "assignment to a non-register operand")
          | Ast.Lname name ->
              let r = find_named st name in
              write_reg st r v;
              mark_written st r op.Model.i_latency
          | Ast.Lmem (_, a) -> (
              let addr = vi (eval st si a) in
              match si.s_store_kind with
              | Some k -> mem_store st k addr v
              | None -> mem_store st { a_width = 4; a_float = false } addr v))
      | Ast.Sifgoto (c, n) ->
          if vi (eval st si c) <> 0 then
            let target =
              match si.s_ops.(n - 1) with
              | Slab t -> t
              | Sreg r -> vi (read_reg st r)
              | Simm t -> t
            in
            st.redirect <- Some (target, slots)
      | Ast.Sgoto n ->
          let target =
            match si.s_ops.(n - 1) with
            | Slab t -> t
            | Sreg r -> vi (read_reg st r)
            | Simm t -> t
          in
          st.redirect <- Some (target, slots)
      | Ast.Scall n -> (
          let target =
            match si.s_ops.(n - 1) with
            | Slab t -> t
            | Sreg r -> vi (read_reg st r)
            | Simm t -> t
          in
          let ra = st.model.Model.cwvm.Model.v_retaddr in
          write_reg st ra (Vi (st.pc + 1 + slots));
          mark_written st ra op.Model.i_latency;
          match Hashtbl.find_opt st.prog.builtin_at target with
          | Some name -> do_builtin st name
          | None -> st.redirect <- Some (target, slots))
      | Ast.Sret ->
          let ra = st.model.Model.cwvm.Model.v_retaddr in
          st.redirect <- Some (vi (read_reg st ra), slots))
    op.Model.i_sem;
  (* loads pay the cache penalty on their destination *)
  if penalty > 0 then
    List.iter
      (fun pos ->
        match si.s_ops.(pos) with
        | Sreg r ->
            let bank, off, size = bank_bytes st r in
            for b = off to off + size - 1 do
              st.ready.(bank).(b) <- st.ready.(bank).(b) + penalty
            done
        | Simm _ | Slab _ -> ())
      op.Model.i_writes

let render_sinst st (si : sinst) =
  let b = Buffer.create 32 in
  Buffer.add_string b si.s_op.Model.i_name;
  Array.iteri
    (fun k o ->
      Buffer.add_string b (if k = 0 then " " else ", ");
      match o with
      | Simm v -> Buffer.add_string b (string_of_int v)
      | Slab t -> Buffer.add_string b (Printf.sprintf "@%d" t)
      | Sreg r ->
          Buffer.add_string b (Format.asprintf "%a" (Model.pp_reg st.model) r))
    si.s_ops;
  Buffer.contents b

let issue st =
  let si = st.prog.code.(st.pc) in
  if st.icount < st.cfg.trace_limit then
    st.trace_acc <- (st.cycle, render_sinst st si) :: st.trace_acc;
  (match si.s_label with
  | Some l ->
      Hashtbl.replace st.block_freq l
        (1 + Option.value ~default:0 (Hashtbl.find_opt st.block_freq l))
  | None -> ());
  Scoreboard.reserve st.busy ~cycle:st.cycle si.s_op.Model.i_rvec;
  (match si.s_op.Model.i_class with
  | Some k -> (
      match st.cur_class with
      | None -> st.cur_class <- Some (Bitset.copy k)
      | Some cur ->
          let inter = Bitset.copy cur in
          Bitset.iter (fun b -> if not (Bitset.mem k b) then Bitset.unset inter b) cur;
          st.cur_class <- Some inter)
  | None -> ());
  exec_sem st si;
  st.icount <- st.icount + 1;
  (* advance pc honouring any pending redirect and its delay slots *)
  (match st.redirect with
  | Some (target, 0) ->
      st.redirect <- None;
      if target = st.halt_index then st.halted <- true else st.pc <- target
  | Some (target, k) ->
      st.redirect <- Some (target, k - 1);
      st.pc <- st.pc + 1
  | None -> st.pc <- st.pc + 1);
  if (not st.halted) && st.pc >= Array.length st.prog.code then
    fail "program counter fell off the end of the code"

let run ?(config = default_config) (prog : Mir.prog) : result =
  let model = prog.Mir.p_model in
  let loaded = load_program prog config.memory_size in
  let banks = Array.map (fun sz -> Bytes.make (max 8 sz) '\000') model.Model.banks in
  let st =
    {
      model;
      cfg = config;
      prog = loaded;
      banks;
      ready = Array.map (fun b -> Array.make (Bytes.length b) 0) banks;
      writer = Array.map (fun b -> Array.make (Bytes.length b) (-1)) banks;
      wcycle = Array.map (fun b -> Array.make (Bytes.length b) 0) banks;
      mem = loaded.data;
      out = Buffer.create 256;
      pc = loaded.entry;
      cycle = 0;
      icount = 0;
      nloads = 0;
      misses = 0;
      redirect = None;
      halted = false;
      trace_acc = [];
      block_freq = Hashtbl.create 64;
      busy = Scoreboard.create model;
      lat = Latency.for_model model;
      cur_class = None;
      cache_tags =
        (match config.cache with
        | Some c -> Array.make c.lines (-1)
        | None -> [||]);
      halt_index = Array.length loaded.code;
    }
  in
  (* hard registers hold their wired values; sp starts at the top *)
  List.iter (fun (r, v) -> write_reg st r (Vi v)) model.Model.cwvm.Model.v_hard;
  let sp = model.Model.cwvm.Model.v_sp in
  write_reg st sp (Vi (config.memory_size - 64));
  (* return from main halts *)
  let ra = model.Model.cwvm.Model.v_retaddr in
  write_reg st ra (Vi st.halt_index);
  Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) st.ready;
  Array.iter (fun a -> Array.fill a 0 (Array.length a) (-1)) st.writer;
  while not st.halted do
    if st.icount > config.fuel then fail "out of fuel after %d instructions" st.icount;
    let si = st.prog.code.(st.pc) in
    if data_ready st si && resources_free st si && class_ok st si then issue st
    else begin
      st.cycle <- st.cycle + 1;
      st.cur_class <- None
    end
  done;
  let result_reg =
    List.find_map
      (fun (r, vt) ->
        match vt with Ast.Int | Ast.Long -> Some r | _ -> None)
      model.Model.cwvm.Model.v_results
  in
  {
    output = Buffer.contents st.out;
    return_value = (match result_reg with Some r -> vi (read_reg st r) | None -> 0);
    cycles = st.cycle + 1;
    instructions = st.icount;
    block_freq = st.block_freq;
    loads = st.nloads;
    cache_misses = st.misses;
    trace = List.rev st.trace_acc;
  }
