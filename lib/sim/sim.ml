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
(* Access kinds                                                        *)
(* ------------------------------------------------------------------ *)

(* memory / register access kinds *)
type access = { a_width : int; a_float : bool }

let word = { a_width = 4; a_float = false }

let access_of_vtype = function
  | Ast.Char -> { a_width = 1; a_float = false }
  | Ast.Short -> { a_width = 2; a_float = false }
  | Ast.Int | Ast.Long -> word
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
  data : bytes;  (* memory image: zeroes plus the globals *)
  builtin_base : int;  (* code index of the first builtin pseudo slot *)
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
              | Model.Kimm _ | Model.Klab _ -> Some word)
          | _ -> Some word))

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
            | Model.Kimm _ | Model.Klab _ -> Some word)
        | [] -> Some word)

let align_up v a = (v + a - 1) / a * a

(* One data segment per domain, zeroed again for every run: a run's
   memory is dead once its result is built, and allocating a fresh
   segment per run leaves the major GC several dead ones to free. *)
let segment = Domain.DLS.new_key (fun () -> Bytes.empty)

let zeroed_segment size =
  let seg = Domain.DLS.get segment in
  if Bytes.length seg = size then begin
    Bytes.fill seg 0 size '\000';
    seg
  end
  else begin
    let seg = Bytes.make size '\000' in
    Domain.DLS.set segment seg;
    seg
  end

let load_program (prog : Mir.prog) memory_size : program =
  let model = prog.Mir.p_model in
  (* data segment *)
  let data = zeroed_segment memory_size in
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
  let builtin_base = !counter in
  List.iter
    (fun name ->
      Hashtbl.replace label_at name !counter;
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
            b.Mir.b_insts)
        fn.Mir.f_blocks)
    prog.Mir.p_funcs;
  let entry =
    match Hashtbl.find_opt label_at "main" with
    | Some e -> e
    | None -> fail "program has no main function"
  in
  { code; entry; data; builtin_base }

(* ------------------------------------------------------------------ *)
(* Machine state                                                       *)
(* ------------------------------------------------------------------ *)

(* The float accumulator: a float-valued compiled expression leaves its
   value here, since a float returned from a closure would be boxed. *)
type facc = { mutable f : float }

(* An instruction with its semantics compiled against the run's state. *)
type cinst = {
  c_op : Model.instr;
  c_ops : soperand array;
  c_label : string option;
  c_reads : int array;  (* scoreboard bytes the instruction waits on *)
  c_aux : bool;  (* the op is the first instruction of some %aux *)
  c_exec : unit -> unit;  (* semantics, cache penalty and redirects *)
}

type state = {
  model : Model.t;
  cfg : config;
  mutable code : cinst array;
  banks : Bytes.t array;
  bank_base : int array;  (* index of each bank's byte 0 in the tables *)
  (* per register byte over all banks: the cycle its value is ready, the
     code index of its last writer (or -1) and that writer's issue cycle *)
  ready : int array;
  writer : int array;
  wcycle : int array;
  aux_memo : (int, int) Hashtbl.t;  (* writer * ncode + consumer -> lat *)
  (* the last pair looked up there and its latency: the bytes of one
     register usually share their writer *)
  mutable aux_key : int;
  mutable aux_lat : int;
  mem : Bytes.t;
  acc : facc;
  out : Buffer.t;
  mutable pc : int;
  mutable cycle : int;
  mutable icount : int;
  mutable nloads : int;
  mutable misses : int;
  (* pending branch: target and delay slots remaining, -1 when none *)
  mutable redirect_to : int;
  mutable redirect_in : int;
  mutable halted : bool;
  mutable trace_acc : (int * string) list;
  (* issues per block-leading code index, and those indices in the order
     of their first issue *)
  freq : int array;
  seen : int array;
  mutable nseen : int;
  (* busy resources over a ring-buffer window of cycles, and the
     packing classes still open *)
  busy : Scoreboard.t;
  lat : Latency.t;
  cache_tags : int array;  (* -1 = invalid *)
  halt_index : int;
  builtin_base : int;
  (* the segment timing memo: the extent entered at each code index, and
     buffers for a key and for the timing a miss records *)
  extents : extent array;
  key : int array;
  timing : int array;
}

(* A straight-line extent: the code from its entry up to the next label,
   ending earlier after an instruction that can redirect and its delay
   slots, so a redirect takes effect only at its end. [exposed] holds the
   (position, scoreboard byte) pairs read before an earlier instruction
   of the extent writes the byte. Each memo entry is a key followed by
   the timing of the extent from a state with that key. *)
and extent = {
  len : int;  (* 0: the extent is stepped *)
  exposed : int array;
  mutable memo : int array list;  (* at most [max_memo] *)
}

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
(* Register and memory access                                          *)
(* ------------------------------------------------------------------ *)

(* A register resolved once: its bank bytes, offset and access kind, and
   the index of its first byte in the scoreboard tables. A register that
   does not fit its bank gets index -1, so its first scoreboard access
   raises the same out-of-bounds error the bank access would. *)
type slot = {
  bank : Bytes.t;
  off : int;
  first : int;
  width : int;
  flt : bool;
}

let slot st (r : Model.reg) =
  let bank, off, size = Model.reg_bytes st.model r in
  let a = access_of_class st.model r.Model.cls in
  let b = st.banks.(bank) in
  let first =
    if off >= 0 && off + size <= Bytes.length b then st.bank_base.(bank) + off
    else -1
  in
  { bank = b; off; first; width = size; flt = a.a_float }

let sext_byte m = if m land 0x80 <> 0 then m - 0x100 else m

let sext_half m = if m land 0x8000 <> 0 then m - 0x10000 else m

let get_int b off width =
  match width with
  | 1 -> sext_byte (Bytes.get_uint8 b off)
  | 2 -> sext_half (Bytes.get_uint16_le b off)
  | _ -> Int32.to_int (Bytes.get_int32_le b off)

let set_int b off width v =
  match width with
  | 1 -> Bytes.set_uint8 b off (v land 0xFF)
  | 2 -> Bytes.set_uint16_le b off (v land 0xFFFF)
  | _ -> Bytes.set_int32_le b off (Int32.of_int v)

(* floats pass through the accumulator, never as boxed arguments *)
let get_float acc b off width =
  acc.f <-
    (if width = 8 then Int64.float_of_bits (Bytes.get_int64_le b off)
     else Int32.float_of_bits (Bytes.get_int32_le b off))

let set_float acc b off width =
  if width = 8 then Bytes.set_int64_le b off (Int64.bits_of_float acc.f)
  else Bytes.set_int32_le b off (Int32.bits_of_float acc.f)

let mark_written st first size latency =
  for b = first to first + size - 1 do
    st.ready.(b) <- st.cycle + latency;
    st.writer.(b) <- st.pc;
    st.wcycle.(b) <- st.cycle
  done

(* ------------------------------------------------------------------ *)
(* Semantics compilation                                               *)
(* ------------------------------------------------------------------ *)

(* Once operands are bound, every semantics expression has a fixed kind:
   registers carry their class, immediates and labels are ints, a binop
   with a float side is float and a conversion decides by its type. So
   each compiles to a closure over unboxed ints, or to one that leaves a
   float in the accumulator. Errors stay in the closures and are raised
   only when the instruction executes. Binop and comparison operands
   evaluate right to left: the order decides which error an expression
   with two faulting operands raises. *)
type cexpr = I of (unit -> int) | F of (unit -> unit)

let as_int acc = function
  | I g -> g
  | F g ->
      fun () ->
        g ();
        int_of_float acc.f

let as_float acc = function
  | F g -> g
  | I g -> fun () -> acc.f <- float_of_int (g ())

let evaluate = function
  | I g -> fun () -> ignore (g ())
  | F g -> g

let out_of_bounds () = invalid_arg "index out of bounds"

let read_slot acc (s : slot) =
  let { bank; off; width; _ } = s in
  if s.flt then F (fun () -> get_float acc bank off width)
  else I (fun () -> get_int bank off width)

(* [s] := [v], converted to the register's kind *)
let assign acc (s : slot) v =
  let { bank; off; width; _ } = s in
  match (s.flt, v) with
  | false, I g -> fun () -> set_int bank off width (g ())
  | false, F g ->
      fun () ->
        g ();
        set_int bank off width (int_of_float acc.f)
  | true, I g ->
      fun () ->
        acc.f <- float_of_int (g ());
        set_float acc bank off width
  | true, F g ->
      fun () ->
        g ();
        set_float acc bank off width

let find_named st name =
  match Model.find_class st.model name with
  | Some c -> Some (slot st (Locs.named_reg st.model c.Model.c_id))
  | None -> None

let int_binop op x y =
  let s = Arith32.sext32 in
  match op with
  | Ast.Add -> s (x + y)
  | Ast.Sub -> s (x - y)
  | Ast.Mul -> s (x * y)
  | Ast.Div -> if y = 0 then fail "division by zero" else s (x / y)
  | Ast.Rem -> if y = 0 then fail "modulo by zero" else s (x mod y)
  | Ast.And -> x land y
  | Ast.Or -> x lor y
  | Ast.Xor -> x lxor y
  | Ast.Shl -> s (x lsl (y land 31))
  | Ast.Sar -> s (x asr (y land 31))
  | Ast.Shr -> s (Arith32.mask32 x lsr (y land 31))
  | Ast.Cmp -> compare x y

(* float arithmetic stays inline in each closure so no float is boxed *)
let float_binop acc op fa fb =
  match op with
  | Ast.Add ->
      F (fun () -> fb (); let y = acc.f in fa (); acc.f <- acc.f +. y)
  | Ast.Sub ->
      F (fun () -> fb (); let y = acc.f in fa (); acc.f <- acc.f -. y)
  | Ast.Mul ->
      F (fun () -> fb (); let y = acc.f in fa (); acc.f <- acc.f *. y)
  | Ast.Div ->
      F (fun () -> fb (); let y = acc.f in fa (); acc.f <- acc.f /. y)
  | Ast.Cmp -> I (fun () -> fb (); let y = acc.f in fa (); compare acc.f y)
  | Ast.Rem | Ast.And | Ast.Or | Ast.Xor | Ast.Shl | Ast.Sar | Ast.Shr ->
      I
        (fun () ->
          fb ();
          fa ();
          fail "float operand on an integer operation")

let rel op c =
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
  if r then 1 else 0

let rec compile_expr st pc (si : sinst) (e : Ast.expr) : cexpr =
  let acc = st.acc in
  match e with
  | Ast.Eint n -> I (fun () -> n)
  | Ast.Eflt x -> F (fun () -> acc.f <- x)
  | Ast.Eopnd n ->
      if n < 1 || n > Array.length si.s_ops then I out_of_bounds
      else (
        match si.s_ops.(n - 1) with
        | Simm v | Slab v -> I (fun () -> v)
        | Sreg r -> read_slot acc (slot st r))
  | Ast.Ename name -> (
      match find_named st name with
      | Some s -> read_slot acc s
      | None -> I (fun () -> fail "unknown register name %S in semantics" name))
  | Ast.Emem (_, a) ->
      let addr = as_int acc (compile_expr st pc si a) in
      let k = Option.value ~default:word si.s_load_kind in
      let mem = st.mem and width = k.a_width in
      let checked () =
        let p = addr () in
        if p < 0 || p + width > Bytes.length mem then
          fail "load out of bounds at %d (pc=%d)" p pc;
        p
      in
      if k.a_float then F (fun () -> get_float acc mem (checked ()) width)
      else I (fun () -> get_int mem (checked ()) width)
  | Ast.Ebinop (op, a, b) -> (
      match (compile_expr st pc si a, compile_expr st pc si b) with
      | I x, I y ->
          I
            (fun () ->
              let b = y () in
              int_binop op (x ()) b)
      | a, b -> float_binop acc op (as_float acc a) (as_float acc b))
  | Ast.Erel (op, a, b) -> (
      match (compile_expr st pc si a, compile_expr st pc si b) with
      | I x, I y ->
          I
            (fun () ->
              let b = y () in
              rel op (compare (x ()) b))
      | a, b ->
          let fa = as_float acc a and fb = as_float acc b in
          I (fun () -> fb (); let y = acc.f in fa (); rel op (compare acc.f y)))
  | Ast.Eunop (Ast.Neg, a) -> (
      match compile_expr st pc si a with
      | I g -> I (fun () -> Arith32.sext32 (-g ()))
      | F g -> F (fun () -> g (); acc.f <- -.acc.f))
  | Ast.Eunop (Ast.Bnot, a) ->
      let g = as_int acc (compile_expr st pc si a) in
      I (fun () -> Arith32.sext32 (lnot (g ())))
  | Ast.Eunop (Ast.Lnot, a) ->
      let g = as_int acc (compile_expr st pc si a) in
      I (fun () -> if g () = 0 then 1 else 0)
  | Ast.Ecvt (vt, a) -> (
      let v = compile_expr st pc si a in
      match vt with
      | Ast.Char ->
          let g = as_int acc v in
          I (fun () -> sext_byte (g () land 0xFF))
      | Ast.Short ->
          let g = as_int acc v in
          I (fun () -> sext_half (g () land 0xFFFF))
      | Ast.Int | Ast.Long ->
          let g = as_int acc v in
          I (fun () -> Arith32.sext32 (g ()))
      | Ast.Float ->
          let g = as_float acc v in
          F
            (fun () ->
              g ();
              acc.f <- Int32.float_of_bits (Int32.bits_of_float acc.f))
      | Ast.Double -> F (as_float acc v))
  | Ast.Ebuiltin ("high", [ a ]) ->
      let g = as_int acc (compile_expr st pc si a) in
      I (fun () -> (Arith32.mask32 (g ()) lsr 16) land 0xFFFF)
  | Ast.Ebuiltin ("low", [ a ]) ->
      let g = as_int acc (compile_expr st pc si a) in
      I (fun () -> g () land 0xFFFF)
  | Ast.Ebuiltin ("eval", [ a ]) -> compile_expr st pc si a
  | Ast.Ebuiltin (f, _) ->
      I (fun () -> fail "unknown builtin %S in semantics" f)

let redirect st target slots =
  st.redirect_to <- target;
  st.redirect_in <- slots

(* the output builtins, in [builtin_names] order *)
let compile_builtins st =
  let cwvm = st.model.Model.cwvm in
  let arg vt k =
    match
      List.find_opt (fun (t, _, n) -> t = vt && n = 1) cwvm.Model.v_args
    with
    | Some (_, r, _) -> k (read_slot st.acc (slot st r))
    | None ->
        fun () ->
          fail "CWVM has no first %s argument register" (Ast.vtype_to_string vt)
  in
  [|
    arg Ast.Int (fun v ->
        let g = as_int st.acc v in
        fun () ->
          Buffer.add_string st.out (string_of_int (g ()));
          Buffer.add_char st.out '\n');
    arg Ast.Int (fun v ->
        let g = as_int st.acc v in
        fun () -> Buffer.add_char st.out (Char.chr (g () land 0xFF)));
    arg Ast.Double (fun v ->
        let g = as_float st.acc v in
        fun () ->
          g ();
          Buffer.add_string st.out (Printf.sprintf "%.6f\n" st.acc.f));
  |]

(* [s] := [v], marking [s]'s bytes written by an instruction of
   [latency] *)
let write st latency (s : slot) v =
  let w = assign st.acc s v and first = s.first and width = s.width in
  fun () ->
    w ();
    mark_written st first width latency

let target st (si : sinst) n =
  if n < 1 || n > Array.length si.s_ops then out_of_bounds
  else
    match si.s_ops.(n - 1) with
    | Slab t | Simm t -> fun () -> t
    | Sreg r -> as_int st.acc (read_slot st.acc (slot st r))

let ra st = slot st st.model.Model.cwvm.Model.v_retaddr

(* The helpers above are functions of their own, not closures: this
   runs for every statement of every instruction of a run. *)
let compile_stmt st pc (si : sinst) builtins (s : Ast.stmt) : unit -> unit =
  let acc = st.acc in
  let op = si.s_op in
  let slots = abs op.Model.i_slots in
  let latency = max 1 op.Model.i_latency in
  match s with
  | Ast.Snop -> fun () -> ()
  | Ast.Sassign (lhs, e) -> (
      let v = compile_expr st pc si e in
      let then_fail f =
        let g = evaluate v in
        fun () ->
          g ();
          f ()
      in
      match lhs with
      | Ast.Lopnd n -> (
          if n < 1 || n > Array.length si.s_ops then then_fail out_of_bounds
          else
            match si.s_ops.(n - 1) with
            | Sreg r -> write st latency (slot st r) v
            | Simm _ | Slab _ ->
                then_fail (fun () ->
                    fail "assignment to a non-register operand"))
      | Ast.Lname name -> (
          match find_named st name with
          | Some s -> write st latency s v
          | None ->
              then_fail (fun () ->
                  fail "unknown register name %S in semantics" name))
      | Ast.Lmem (_, a) -> (
          (* the value is evaluated before the address *)
          let addr = as_int acc (compile_expr st pc si a) in
          let k = Option.value ~default:word si.s_store_kind in
          let mem = st.mem and width = k.a_width in
          let checked p =
            if p < 0 || p + width > Bytes.length mem then
              fail "store out of bounds at %d (pc=%d)" p pc
          in
          if not k.a_float then (
            let g = as_int acc v in
            fun () ->
              let x = g () in
              let p = addr () in
              checked p;
              set_int mem p width x)
          else
            let g = as_float acc v in
            fun () ->
              g ();
              let x = acc.f in
              let p = addr () in
              checked p;
              acc.f <- x;
              set_float acc mem p width))
  | Ast.Sifgoto (c, n) ->
      let c = as_int acc (compile_expr st pc si c) and t = target st si n in
      fun () -> if c () <> 0 then redirect st (t ()) slots
  | Ast.Sgoto n ->
      let t = target st si n in
      fun () -> redirect st (t ()) slots
  | Ast.Scall n ->
      let t = target st si n in
      let link = write st latency (ra st) (I (fun () -> pc + 1 + slots)) in
      fun () ->
        let target = t () in
        link ();
        let k = target - st.builtin_base in
        if k >= 0 && k < Array.length builtins then builtins.(k) ()
        else redirect st target slots
  | Ast.Sret ->
      let back = as_int acc (read_slot acc (ra st)) in
      fun () -> redirect st (back ()) slots

(* The scoreboard bytes of the operands at [positions], then of the
   named registers of classes [cids] (an out-of-range position or a
   register outside its bank yields -1: the access raises when made).
   Sized first and filled in place: every instruction builds one. *)
let scoreboard_bytes st (si : sinst) positions cids =
  let size cid = (Model.class_exn st.model cid).Model.c_size in
  let n =
    List.fold_left
      (fun n pos ->
        if pos < 0 || pos >= Array.length si.s_ops then n + 1
        else
          match si.s_ops.(pos) with
          | Sreg r -> n + size r.Model.cls
          | Simm _ | Slab _ -> n)
      0 positions
    + List.fold_left (fun n cid -> n + size cid) 0 cids
  in
  let bytes = Array.make n (-1) and at = ref 0 in
  let add (s : slot) =
    if s.first >= 0 then
      for k = 0 to s.width - 1 do
        bytes.(!at + k) <- s.first + k
      done;
    at := !at + s.width
  in
  List.iter
    (fun pos ->
      if pos < 0 || pos >= Array.length si.s_ops then incr at
      else
        match si.s_ops.(pos) with
        | Sreg r -> add (slot st r)
        | Simm _ | Slab _ -> ())
    positions;
  List.iter (fun cid -> add (slot st (Locs.named_reg st.model cid))) cids;
  bytes

let compile_inst st builtins pc (si : sinst) : cinst =
  let op = si.s_op in
  let stmts =
    Array.of_list (List.map (compile_stmt st pc si builtins) op.Model.i_sem)
  in
  let run () =
    for k = 0 to Array.length stmts - 1 do
      stmts.(k) ()
    done
  in
  (* a load's cache penalty: its address must be read before the
     semantics run, since the destination may be the base register;
     the penalty then delays every byte the load writes *)
  let address =
    if op.Model.i_loads && st.cfg.cache <> None then
      List.find_map
        (function
          | Ast.Sassign (_, Ast.Emem (_, a)) ->
              Some (as_int st.acc (compile_expr st pc si a))
          | _ -> None)
        op.Model.i_sem
    else None
  in
  let exec =
    match address with
    | None -> run
    | Some address ->
        let delayed = scoreboard_bytes st si op.Model.i_writes [] in
        fun () ->
          let penalty = cache_access st (address ()) in
          run ();
          if penalty > 0 then
            Array.iter (fun b -> st.ready.(b) <- st.ready.(b) + penalty) delayed
  in
  {
    c_op = op;
    c_ops = si.s_ops;
    c_label = si.s_label;
    c_reads = scoreboard_bytes st si op.Model.i_reads op.Model.i_rnames;
    c_aux = Latency.producer st.lat op;
    c_exec = exec;
  }

(* ------------------------------------------------------------------ *)
(* Issue and execute                                                   *)
(* ------------------------------------------------------------------ *)

let no_override = min_int

(* The %aux latency between the instructions at code indices [w] and
   [pc], or [no_override]. It depends only on the two instructions' ops
   and bound operands, so it is looked up once per pair. *)
let aux_override st w pc =
  let key = (w * Array.length st.code) + pc in
  if key = st.aux_key then st.aux_lat
  else
  match Hashtbl.find st.aux_memo key with
  | l ->
      st.aux_key <- key;
      st.aux_lat <- l;
      l
  | exception Not_found ->
      let wi = st.code.(w) and ci = st.code.(pc) in
      let opnd_eq a b =
        (* operand condition of %aux: compare the operand values of the
           two instructions *)
        a >= 0
        && a < Array.length wi.c_ops
        && b >= 0
        && b < Array.length ci.c_ops
        && wi.c_ops.(a) = ci.c_ops.(b)
      in
      let l =
        Option.value ~default:no_override
          (Latency.find st.lat ~first:wi.c_op ~second:ci.c_op ~opnd_eq)
      in
      Hashtbl.add st.aux_memo key l;
      l

(* the cycle at which byte [b] is ready for the instruction at [pc] *)
let ready_for st b pc =
  let w = st.writer.(b) in
  if w >= 0 && st.code.(w).c_aux then begin
    let l = aux_override st w pc in
    if l = no_override then st.ready.(b) else st.wcycle.(b) + l
  end
  else st.ready.(b)

(* the first cycle at which every byte [ci] reads is ready for it *)
let required st (ci : cinst) =
  let reads = ci.c_reads in
  let req = ref 0 in
  for k = 0 to Array.length reads - 1 do
    let t = ready_for st reads.(k) st.pc in
    if t > !req then req := t
  done;
  !req

let render st (ci : cinst) =
  let b = Buffer.create 32 in
  Buffer.add_string b ci.c_op.Model.i_name;
  Array.iteri
    (fun k o ->
      Buffer.add_string b (if k = 0 then " " else ", ");
      match o with
      | Simm v -> Buffer.add_string b (string_of_int v)
      | Slab t -> Buffer.add_string b (Printf.sprintf "@%d" t)
      | Sreg r ->
          Buffer.add_string b (Format.asprintf "%a" (Model.pp_reg st.model) r))
    ci.c_ops;
  Buffer.contents b

(* everything of an issue at [st.cycle] but the reservation *)
let execute st (ci : cinst) =
  (match ci.c_label with
  | Some _ ->
      let n = st.freq.(st.pc) in
      if n = 0 then begin
        st.seen.(st.nseen) <- st.pc;
        st.nseen <- st.nseen + 1
      end;
      st.freq.(st.pc) <- n + 1
  | None -> ());
  ci.c_exec ();
  st.icount <- st.icount + 1;
  (* advance pc honouring any pending redirect and its delay slots *)
  if st.redirect_in = 0 then begin
    st.redirect_in <- -1;
    if st.redirect_to = st.halt_index then st.halted <- true
    else st.pc <- st.redirect_to
  end
  else begin
    if st.redirect_in > 0 then st.redirect_in <- st.redirect_in - 1;
    st.pc <- st.pc + 1
  end;
  if (not st.halted) && st.pc >= Array.length st.code then
    fail "program counter fell off the end of the code"

let issue st (ci : cinst) =
  if st.icount < st.cfg.trace_limit then
    st.trace_acc <- (st.cycle, render st ci) :: st.trace_acc;
  Scoreboard.reserve st.busy ~cycle:st.cycle ci.c_op;
  execute st ci

(* An instruction issues at the first cycle, from the current one, at
   which its operands are ready, its packing class is open and its
   resources are free. While it stalls nothing issues, so the cycle at
   which its last operand byte is ready stays constant, and so does
   the scoreboard: the clock jumps straight to the issue cycle, which
   [Scoreboard.first_free] finds from the readiness cycle on. The
   scoreboard window advances over a jump exactly as over single
   steps, and every class is open at a cycle past the current one.
   So each step issues one instruction, and at most [fuel] issue. *)
let step st =
  if st.icount >= st.cfg.fuel then
    fail "out of fuel after %d instructions" st.icount;
  let ci = st.code.(st.pc) in
  st.cycle <-
    Scoreboard.first_free st.busy ~cycle:(max st.cycle (required st ci))
      ci.c_op;
  issue st ci

(* ------------------------------------------------------------------ *)
(* Segment timing memo                                                 *)
(* ------------------------------------------------------------------ *)

(* Inside an extent the code runs in order whatever the semantics
   compute, so the issue cycles of its instructions, relative to the
   cycle [c] at entry, depend only on: for each position, the latest
   cycle at which a byte it reads from before the extent is ready for
   it, counted from [c] and clipped at 0 (the clock never goes back);
   and the scoreboard's state at [c]. Bytes written inside the extent
   are ready at cycles the extent's own timing decides. That key, built
   in [st.key], maps to the issue offsets and the scoreboard's state at
   the exit cycle. A hit runs the semantics at the recorded cycles and
   restores the scoreboard; a miss steps and records. *)

let max_extent = 32

let max_memo = 8

(* shared sentinels: never written *)
let unknown = { len = 0; exposed = [||]; memo = [] }

let stepped = { len = 0; exposed = [||]; memo = [] }

let redirects (op : Model.instr) =
  List.exists
    (function
      | Ast.Sgoto _ | Ast.Sifgoto _ | Ast.Scall _ | Ast.Sret -> true
      | Ast.Sassign _ | Ast.Snop -> false)
    op.Model.i_sem

(* the registers whose bytes [compile_stmt] marks written *)
let written st (ci : cinst) =
  List.filter_map
    (function
      | Ast.Sassign (Ast.Lopnd n, _) when n >= 1 && n <= Array.length ci.c_ops
        -> (
          match ci.c_ops.(n - 1) with
          | Sreg r -> Some (slot st r)
          | Simm _ | Slab _ -> None)
      | Ast.Sassign (Ast.Lname name, _) -> find_named st name
      | Ast.Scall _ -> Some (slot st st.model.Model.cwvm.Model.v_retaddr)
      | Ast.Sassign ((Ast.Lopnd _ | Ast.Lmem _), _)
      | Ast.Sgoto _ | Ast.Sifgoto _ | Ast.Sret | Ast.Snop ->
          None)
    ci.c_op.Model.i_sem

(* whether a position before [k] writes byte [b], by the (position,
   first byte, width) ranges [ws] *)
let rec written_before k b = function
  | [] -> false
  | (j, first, width) :: ws ->
      (j < k && b >= first && b < first + width) || written_before k b ws

(* The extent entered at [entry]; stepped when a byte it reads or writes
   is outside the scoreboard, which raises on the step loop's access.
   Built once per entry, so it allocates little: the write ranges, then
   the exposed pairs counted before they are filled in. *)
let extent_at st entry =
  let stop = ref (min (Array.length st.code) (entry + max_extent)) in
  let pc = ref entry and ok = ref true and ws = ref [] in
  while !pc < !stop do
    let ci = st.code.(!pc) in
    if !pc > entry && ci.c_label <> None then stop := !pc
    else begin
      for i = 0 to Array.length ci.c_reads - 1 do
        if ci.c_reads.(i) < 0 then ok := false
      done;
      List.iter
        (fun (s : slot) ->
          if s.first < 0 then ok := false
          else ws := (!pc - entry, s.first, s.width) :: !ws)
        (written st ci);
      if redirects ci.c_op then
        stop := min !stop (!pc + 1 + abs ci.c_op.Model.i_slots);
      incr pc
    end
  done;
  if not !ok then stepped
  else begin
    let len = !stop - entry and ws = !ws in
    let each f =
      for k = 0 to len - 1 do
        let reads = st.code.(entry + k).c_reads in
        for i = 0 to Array.length reads - 1 do
          if not (written_before k reads.(i) ws) then f k reads.(i)
        done
      done
    in
    let n = ref 0 in
    each (fun _ _ -> incr n);
    let exposed = Array.make (2 * !n) 0 and at = ref 0 in
    each (fun k b ->
        exposed.(!at) <- k;
        exposed.(!at + 1) <- b;
        at := !at + 2);
    { len; exposed; memo = [] }
  end

(* The key of the state at entry to [e], from [st.key.(0)]; returns its
   length. *)
let build_key st e =
  let key = st.key and c = st.cycle and entry = st.pc in
  for k = 0 to e.len - 1 do
    key.(k) <- 0
  done;
  let ex = e.exposed in
  let i = ref 0 in
  while !i < Array.length ex do
    let k = ex.(!i) in
    let t = ready_for st ex.(!i + 1) (entry + k) - c in
    if t > key.(k) then key.(k) <- t;
    i := !i + 2
  done;
  Scoreboard.export st.busy ~cycle:c key e.len

(* the memo entry whose key is [st.key.(0 .. klen-1)], or [[||]] *)
let rec lookup key klen = function
  | [] -> [||]
  | (m : int array) :: rest ->
      let i = ref 0 in
      while !i < klen && m.(!i) = key.(!i) do
        incr i
      done;
      if !i = klen then m else lookup key klen rest

let run_extent st e =
  let klen = build_key st e in
  let m = lookup st.key klen e.memo in
  let c = st.cycle in
  if Array.length m > 0 then begin
    for k = 0 to e.len - 1 do
      st.cycle <- c + m.(klen + k);
      execute st st.code.(st.pc)
    done;
    Scoreboard.import st.busy ~cycle:st.cycle m (klen + e.len)
  end
  else begin
    let timing = st.timing in
    for k = 0 to e.len - 1 do
      step st;
      timing.(k) <- st.cycle - c
    done;
    if List.length e.memo < max_memo then begin
      let tlen = Scoreboard.export st.busy ~cycle:st.cycle timing e.len in
      let m = Array.make (klen + tlen) 0 in
      Array.blit st.key 0 m 0 klen;
      Array.blit timing 0 m klen tlen;
      e.memo <- m :: e.memo
    end
  end

(* An extent entered with a redirect pending, one that cannot be
   memoized and one in which fuel would run out are stepped one
   instruction at a time: the next entry decides afresh. *)
let advance st =
  if st.redirect_in >= 0 then step st
  else begin
    let e = st.extents.(st.pc) in
    let e =
      if e != unknown then e
      else begin
        let e = extent_at st st.pc in
        st.extents.(st.pc) <- e;
        e
      end
    in
    if e.len = 0 || st.icount + e.len > st.cfg.fuel then step st
    else run_extent st e
  end

(* the block frequencies, each label inserted at its first issue, so the
   table iterates in the same order as one updated on every issue *)
let block_freq st =
  let t = Hashtbl.create 64 in
  for k = 0 to st.nseen - 1 do
    let pc = st.seen.(k) in
    match st.code.(pc).c_label with
    | Some l ->
        Hashtbl.replace t l
          (st.freq.(pc) + Option.value ~default:0 (Hashtbl.find_opt t l))
    | None -> ()
  done;
  t

let run ?(config = default_config) (prog : Mir.prog) : result =
  let model = prog.Mir.p_model in
  let loaded = load_program prog config.memory_size in
  let banks = Array.map (fun sz -> Bytes.make (max 8 sz) '\000') model.Model.banks in
  let bank_base = Array.make (Array.length banks) 0 in
  let nbytes = ref 0 in
  Array.iteri
    (fun k b ->
      bank_base.(k) <- !nbytes;
      nbytes := !nbytes + Bytes.length b)
    banks;
  let ncode = Array.length loaded.code in
  (* the memo serves runs without a cache or a trace *)
  let memo = config.cache = None && config.trace_limit <= 0 in
  let busy = Scoreboard.create model in
  let st =
    {
      model;
      cfg = config;
      code = [||];
      banks;
      bank_base;
      ready = Array.make !nbytes 0;
      writer = Array.make !nbytes (-1);
      wcycle = Array.make !nbytes 0;
      aux_memo = Hashtbl.create 64;
      aux_key = -1;
      aux_lat = no_override;
      mem = loaded.data;
      acc = { f = 0.0 };
      out = Buffer.create 256;
      pc = loaded.entry;
      cycle = 0;
      icount = 0;
      nloads = 0;
      misses = 0;
      redirect_to = 0;
      redirect_in = -1;
      halted = false;
      trace_acc = [];
      freq = Array.make ncode 0;
      seen = Array.make ncode 0;
      nseen = 0;
      busy;
      lat = Latency.for_model model;
      cache_tags =
        (match config.cache with
        | Some c -> Array.make c.lines (-1)
        | None -> [||]);
      halt_index = ncode;
      builtin_base = loaded.builtin_base;
      extents = (if memo then Array.make ncode unknown else [||]);
      key =
        (if memo then Array.make (max_extent + Scoreboard.state_words busy) 0
         else [||]);
      timing =
        (if memo then Array.make (max_extent + Scoreboard.state_words busy) 0
         else [||]);
    }
  in
  let set r v = assign st.acc (slot st r) (I (fun () -> v)) () in
  (* hard registers hold their wired values; sp starts at the top *)
  List.iter (fun (r, v) -> set r v) model.Model.cwvm.Model.v_hard;
  set model.Model.cwvm.Model.v_sp (config.memory_size - 64);
  (* return from main halts *)
  set model.Model.cwvm.Model.v_retaddr st.halt_index;
  let builtins = compile_builtins st in
  st.code <- Array.mapi (compile_inst st builtins) loaded.code;
  while not st.halted do
    if memo then advance st else step st
  done;
  let result_reg =
    List.find_map
      (fun (r, vt) ->
        match vt with Ast.Int | Ast.Long -> Some r | _ -> None)
      model.Model.cwvm.Model.v_results
  in
  {
    output = Buffer.contents st.out;
    return_value =
      (match result_reg with
      | Some r -> as_int st.acc (read_slot st.acc (slot st r)) ()
      | None -> 0);
    cycles = st.cycle + 1;
    instructions = st.icount;
    block_freq = block_freq st;
    loads = st.nloads;
    cache_misses = st.misses;
    trace = List.rev st.trace_acc;
  }
