(* The compiled machine model: what the paper's code generator generator
   produces from a Maril description (tables consumed by the
   target-independent back end). Built by {!Builder}. *)



(* A physical register: class id + architectural index (r[3] has idx 3). *)
type reg = { cls : int; idx : int }

type rclass = {
  c_id : int;
  c_name : string;
  c_size : int;  (* bytes per register *)
  c_lo : int;
  c_hi : int;
  c_types : Ast.vtype list;
  c_clock : int option;
  c_temporal : bool;
  c_bank : int;
  c_base : int;  (* byte offset of register [c_lo] within the bank *)
  c_loc : Loc.t;  (* %reg declaration site, for diagnostics *)
}

type def = { d_id : int; d_name : string; d_lo : int; d_hi : int; d_flags : Ast.flag list }

type labdef = { l_id : int; l_name : string; l_lo : int; l_hi : int; l_relative : bool }

type mem = { m_id : int; m_name : string; m_lo : int; m_hi : int }

type okind =
  | Kreg of int  (* register class id *)
  | Kregfix of reg
  | Kimm of int  (* def id *)
  | Klab of int  (* label id *)

type instr = {
  i_id : int;
  i_name : string;
  i_escape : bool;  (* func escape: expanded by a registered function *)
  i_tag : string option;
  i_move : bool;
  i_opnds : okind array;
  i_type : Ast.vtype option;
  i_affects : int option;  (* EAP clock this instruction advances *)
  i_sem : Ast.stmt list;
  i_rvec : Bitset.t array;  (* resources needed on each cycle after issue *)
  i_cost : int;
  i_latency : int;
  i_slots : int;
  i_class : Bitset.t option;  (* packing class: set of word elements *)
  (* Derived facts used by the scheduler, allocator and simulator: *)
  i_writes : int list;  (* 0-based operand positions written (registers) *)
  i_reads : int list;  (* 0-based operand positions read (registers) *)
  i_wnames : int list;  (* single-register classes written by name *)
  i_rnames : int list;  (* single-register classes read by name *)
  i_loads : bool;
  i_stores : bool;
  i_branch : bool;  (* transfers control *)
  i_call : bool;
  i_loc : Loc.t;  (* %instr declaration site, for diagnostics *)
}

type aux = {
  x_first : string;  (* mnemonic of the producing instruction *)
  x_second : string;  (* mnemonic of the consuming instruction *)
  x_cond : Ast.aux_cond option;
  x_latency : int;
  x_loc : Loc.t;  (* %aux declaration site, for diagnostics *)
}

type cwvm = {
  v_general : (Ast.vtype * int) list;
  v_allocable : reg list;
  v_calleesave : reg list;
  v_sp : reg;
  v_fp : reg;
  v_gp : reg option;
  v_retaddr : reg;
  v_sp_down : bool;
  v_hard : (reg * int) list;
  v_args : (Ast.vtype * reg * int) list;
  v_results : (reg * Ast.vtype) list;
}

type t = {
  name : string;
  resources : string array;
  banks : int array;  (* byte size of each register bank *)
  classes : rclass array;
  defs : def array;
  labels : labdef array;
  memories : mem array;
  clocks : string array;
  elements : string array;
  named_classes : (string * Bitset.t) array;
  instrs : instr array;  (* in description order: first match wins *)
  auxes : aux list;
  glues : Ast.glue_decl list;
  cwvm : cwvm;
}

(* ------------------------------------------------------------------ *)
(* Lookups                                                             *)
(* ------------------------------------------------------------------ *)

let find_class t name =
  let found = ref None in
  Array.iter (fun c -> if c.c_name = name then found := Some c) t.classes;
  !found

let class_exn t id = t.classes.(id)

let find_def t name =
  let found = ref None in
  Array.iter (fun d -> if d.d_name = name then found := Some d) t.defs;
  !found

let reg_equal a b = a.cls = b.cls && a.idx = b.idx

let pp_reg t ppf r =
  let c = class_exn t r.cls in
  if c.c_lo = 0 && c.c_hi = 0 && c.c_temporal then
    Format.pp_print_string ppf c.c_name
  else Format.fprintf ppf "%s%d" c.c_name r.idx

(* Byte interval occupied by a register within its bank. *)
let reg_bytes t r =
  let c = class_exn t r.cls in
  let off = c.c_base + ((r.idx - c.c_lo) * c.c_size) in
  (c.c_bank, off, c.c_size)

(* Two registers overlap if their byte intervals in the same bank meet;
   this is how %equiv register pairs interfere. *)
let regs_overlap t a b =
  let ba, oa, sa = reg_bytes t a and bb, ob, sb = reg_bytes t b in
  ba = bb && oa < ob + sb && ob < oa + sa

let hard_value t r =
  List.find_map
    (fun (hr, v) -> if reg_equal hr r then Some v else None)
    t.cwvm.v_hard

let class_of_type t ty =
  List.find_map
    (fun (vt, cid) -> if vt = ty then Some cid else None)
    t.cwvm.v_general

(* The move instruction for a register class: the first %move whose first
   operand is in that class. Escapes are included; the caller decides how
   to expand them. *)
let move_for_class t cid =
  let found = ref None in
  Array.iter
    (fun i ->
      if !found = None && i.i_move then
        match i.i_opnds with
        | [||] -> ()
        | ops -> (
            match ops.(0) with
            | Kreg c when c = cid -> found := Some i
            | Kreg _ | Kregfix _ | Kimm _ | Klab _ -> ()))
    t.instrs;
  !found

let instr_by_tag t tag =
  let found = ref None in
  Array.iter
    (fun i -> if i.i_tag = Some tag && !found = None then found := Some i)
    t.instrs;
  !found

let instrs_by_name t name =
  Array.to_list t.instrs |> List.filter (fun i -> i.i_name = name)

let find_nop t =
  let found = ref None in
  Array.iter
    (fun i ->
      if !found = None && i.i_name = "nop" && not i.i_escape then
        found := Some i)
    t.instrs;
  !found

(* Auxiliary latency (paper 3.3): %aux first : second (cond) (n) overrides
   the latency of [first] when its result feeds [second] and the operand
   condition holds. [opnd_eq i j] must decide whether operand i of the
   first instruction equals operand j of the second. *)
let aux_latency t ~first ~second ~opnd_eq =
  List.find_map
    (fun x ->
      if x.x_first = first.i_name && x.x_second = second.i_name then
        match x.x_cond with
        | None -> Some x.x_latency
        | Some { Ast.left = _, a; right = _, b } ->
            if opnd_eq (a - 1) (b - 1) then Some x.x_latency else None
      else None)
    t.auxes

(* The register covering the k-th part of [r] at half its width: how
   Opart operands from *func escapes resolve once registers are known
   (e.g. part 1 of TOYP's d1 is r3). *)
let subreg t r k =
  let bank, off, size = reg_bytes t r in
  let half = size / 2 in
  let target = off + (k * half) in
  let found = ref None in
  Array.iter
    (fun c ->
      if !found = None && c.c_bank = bank && c.c_size = half then begin
        let rel = target - c.c_base in
        if rel >= 0 && rel mod half = 0 then begin
          let idx = c.c_lo + (rel / half) in
          if idx >= c.c_lo && idx <= c.c_hi then
            found := Some { cls = c.c_id; idx }
        end
      end)
    t.classes;
  !found

let allocable_of_class t cid =
  List.filter (fun r -> r.cls = cid) t.cwvm.v_allocable

let is_callee_save t r =
  List.exists (fun s -> regs_overlap t s r) t.cwvm.v_calleesave

(* Keyed by physical identity: models are built once per target and never
   mutated (the contract Ckey.of_model also relies on). The few live
   models fit a short list; only the list is guarded. *)
let memo f =
  let table = ref [] and lock = Mutex.create () in
  fun model ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        match List.assq_opt model !table with
        | Some v -> v
        | None ->
            let v = f model in
            table := (model, v) :: List.filteri (fun i _ -> i < 7) !table;
            v)
