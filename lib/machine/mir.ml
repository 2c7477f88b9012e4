(* Machine-level IR: target instructions over pseudo-registers.

   Produced by code selection, rewritten by register allocation, ordered by
   instruction scheduling, executed by the simulator. The instruction
   behaviour comes from the Maril description ({!Model.instr}); MIR adds the
   concrete operands plus the implicit register effects (call clobbers,
   argument/result registers) the description cannot express per-site. *)

type preg = {
  p_id : int;
  p_cls : int;  (* register class *)
  p_name : string option;  (* user variable behind this pseudo, if any *)
  mutable p_global : bool;  (* live in more than one basic block *)
}

type operand =
  | Opreg of preg
  | Ophys of Model.reg
  | Opart of operand * int
      (* [Opart (r, i)]: the i-th half-width part of register operand [r];
         used by func escapes that manipulate register halves (paper 3.4) *)
  | Oimm of int
  | Oslot of int * int
      (* frame slot id + addend; becomes an [Oimm] frame-pointer offset
         once the frame is laid out after register allocation *)
  | Osym of string * int  (* symbol + addend; resolved at link time *)
  | Olab of string  (* code label *)

type inst = {
  n_id : int;
  n_op : Model.instr;
  n_ops : operand array;
  n_xuse : Model.reg list;  (* implicit physical-register uses *)
  n_xdef : Model.reg list;  (* implicit physical-register defs (clobbers) *)
}

type block = {
  b_label : string;
  mutable b_insts : inst list;
  mutable b_succs : string list;  (* labels; fallthrough included *)
}

(* where register allocation put a pseudo-register: a physical register
   or a frame slot. Recorded per function so independent checkers
   (translation validation) can audit the allocator's claim *)
type location = Lreg of Model.reg | Lslot of int

type func = {
  f_name : string;
  f_model : Model.t;
  mutable f_blocks : block list;  (* layout order *)
  mutable f_frame_size : int;
  mutable f_next_preg : int;
  mutable f_next_inst : int;
  mutable f_saved : Model.reg list;  (* callee-save registers we clobber *)
  mutable f_slots : (int * int * int) list;  (* slot id, size, align *)
  f_slot_offsets : (int, int) Hashtbl.t;  (* filled by frame layout *)
  mutable f_next_slot : int;
  mutable f_has_calls : bool;
  mutable f_locations : (int * location) list;
      (* pseudo-register id -> final location; filled by Regalloc *)
}

let new_slot fn ~size ~align =
  let id = fn.f_next_slot in
  fn.f_next_slot <- id + 1;
  fn.f_slots <- fn.f_slots @ [ (id, size, align) ];
  id

type global = { g_name : string; g_align : int; g_bytes : bytes }

type prog = { p_model : Model.t; p_globals : global list; p_funcs : func list }

let new_func model name =
  {
    f_name = name;
    f_model = model;
    f_blocks = [];
    f_frame_size = 0;
    f_next_preg = 0;
    f_next_inst = 0;
    f_saved = [];
    f_slots = [];
    f_slot_offsets = Hashtbl.create 8;
    f_next_slot = 0;
    f_has_calls = false;
    f_locations = [];
  }

let fresh_preg ?name fn cls =
  let p = { p_id = fn.f_next_preg; p_cls = cls; p_name = name; p_global = false } in
  fn.f_next_preg <- fn.f_next_preg + 1;
  p

let mk_inst ?(xuse = []) ?(xdef = []) fn op ops =
  let i =
    { n_id = fn.f_next_inst; n_op = op; n_ops = ops; n_xuse = xuse; n_xdef = xdef }
  in
  fn.f_next_inst <- fn.f_next_inst + 1;
  i

let clone_inst fn i =
  let n = { i with n_id = fn.f_next_inst } in
  fn.f_next_inst <- fn.f_next_inst + 1;
  n

let new_block label = { b_label = label; b_insts = []; b_succs = [] }

(* ------------------------------------------------------------------ *)
(* Operand queries                                                     *)
(* ------------------------------------------------------------------ *)

(* The physical or pseudo register at the root of an operand. *)
let rec operand_reg = function
  | Opreg p -> Some (`Preg p)
  | Ophys r -> Some (`Phys r)
  | Opart (o, _) -> operand_reg o
  | Oimm _ | Oslot _ | Osym _ | Olab _ -> None

(* ------------------------------------------------------------------ *)
(* Printing (assembly-like dumps)                                      *)
(* ------------------------------------------------------------------ *)

let rec pp_operand model ppf = function
  | Opreg p -> (
      let c = Model.class_exn model p.p_cls in
      match p.p_name with
      | Some n -> Format.fprintf ppf "%%%s.%d:%s" n p.p_id c.Model.c_name
      | None -> Format.fprintf ppf "%%p%d:%s" p.p_id c.Model.c_name)
  | Ophys r -> Model.pp_reg model ppf r
  | Opart (o, i) -> Format.fprintf ppf "%a.part%d" (pp_operand model) o i
  | Oimm v -> Format.fprintf ppf "%d" v
  | Oslot (s, 0) -> Format.fprintf ppf "slot%d" s
  | Oslot (s, a) -> Format.fprintf ppf "slot%d+%d" s a
  | Osym (s, 0) -> Format.fprintf ppf "%s" s
  | Osym (s, a) -> Format.fprintf ppf "%s+%d" s a
  | Olab l -> Format.fprintf ppf "%s" l

let pp_inst model ppf i =
  Format.fprintf ppf "%s" i.n_op.Model.i_name;
  Array.iteri
    (fun k o ->
      if k = 0 then Format.fprintf ppf " %a" (pp_operand model) o
      else Format.fprintf ppf ", %a" (pp_operand model) o)
    i.n_ops

let pp_block model ppf b =
  Format.fprintf ppf "%s:@." b.b_label;
  List.iter (fun i -> Format.fprintf ppf "\t%a@." (pp_inst model) i) b.b_insts

let pp_func ppf fn =
  Format.fprintf ppf "%s:  # frame %d@." fn.f_name fn.f_frame_size;
  List.iter (pp_block fn.f_model ppf) fn.f_blocks

let pp_prog ppf p =
  List.iter
    (fun g ->
      Format.fprintf ppf "%s: .space %d@." g.g_name (Bytes.length g.g_bytes))
    p.p_globals;
  List.iter (fun f -> Format.fprintf ppf "@.%a" pp_func f) p.p_funcs
