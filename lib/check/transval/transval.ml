(* Translation validation; see transval.mli for the contract and codes. *)

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let copy_inst (i : Mir.inst) = { i with Mir.n_ops = Array.copy i.Mir.n_ops }

let capture (fn : Mir.func) =
  {
    fn with
    Mir.f_blocks =
      List.map
        (fun (b : Mir.block) ->
          { b with Mir.b_insts = List.map copy_inst b.Mir.b_insts })
        fn.Mir.f_blocks;
  }

let validated_phase = function
  | Diag.Post_regalloc | Diag.Post_sched -> true
  | Diag.Post_select | Diag.Final -> false

(* ------------------------------------------------------------------ *)
(* Shared helpers                                                      *)
(* ------------------------------------------------------------------ *)

let pp_i model ppf i = Mir.pp_inst model ppf i

(* The validator re-derives the move shape rather than importing the
   allocator's: a validator sharing the code it audits proves less. *)
let move_shape (i : Mir.inst) =
  match i.Mir.n_op.Model.i_sem with
  | [ Ast.Sassign (Ast.Lopnd 1, Ast.Eopnd n) ]
    when n >= 1 && n <= Array.length i.Mir.n_ops -> (
      match
        (Mir.operand_reg i.Mir.n_ops.(0), Mir.operand_reg i.Mir.n_ops.(n - 1))
      with
      | Some d, Some s -> Some (d, s)
      | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Schedval: legal linearization of the rebuilt dependence DAG         *)
(* ------------------------------------------------------------------ *)

let edge_code = function
  | Dag.True -> "V004"
  | Dag.Mem -> "V005"
  | Dag.Anti -> "V006"
  | Dag.Temporal _ -> "V007"

let edge_kind_name = function
  | Dag.True -> "true-dependence"
  | Dag.Mem -> "memory-ordering"
  | Dag.Anti -> "anti/output (or sequence-protection)"
  | Dag.Temporal k -> Printf.sprintf "temporal (clock %d)" k

(* Per-instruction state over the dense instruction ids, allocated once
   per function and valid for the block whose stamp it carries: whether
   an id is in the block's input, and its position in the output. *)
type scratch = {
  mutable stamp : int;
  in_at : int array;
  pos : int array;
  pos_at : int array;
}

let scratch n =
  {
    stamp = 0;
    in_at = Array.make n 0;
    pos = Array.make n 0;
    pos_at = Array.make n 0;
  }

let schedval_block model sc ?func ?block ?oracle ~before
    (out : Mir.inst list) : Diag.t list =
  let ds = ref [] in
  let report ~code fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          Diag.make ~phase:Diag.Post_sched ?func ?block ~code msg :: !ds)
      fmt
  in
  sc.stamp <- sc.stamp + 1;
  let st = sc.stamp in
  (* the scheduler drops pre-existing nops and re-inserts fresh ones for
     unfilled delay slots: compare modulo nops on both sides *)
  let body = List.filter (fun i -> not (Listsched.is_nop i)) before in
  List.iter (fun (i : Mir.inst) -> sc.in_at.(i.Mir.n_id) <- st) body;
  List.iteri
    (fun k (i : Mir.inst) ->
      let id = i.Mir.n_id in
      if sc.in_at.(id) = st then begin
        if sc.pos_at.(id) = st then
          report ~code:"V002"
            "instruction `%a' appears more than once in the schedule"
            (pp_i model) i
        else begin
          sc.pos.(id) <- k;
          sc.pos_at.(id) <- st
        end
      end
      else if not (Listsched.is_nop i) then
        report ~code:"V003"
          "scheduling inserted non-nop instruction `%a'" (pp_i model) i)
    out;
  List.iter
    (fun (i : Mir.inst) ->
      if sc.pos_at.(i.Mir.n_id) <> st then
        report ~code:"V001" "instruction `%a' was dropped by scheduling"
          (pp_i model) i)
    body;
  (* rebuild the DAG the scheduler saw — type 1/2/3 edges, %aux latency
     overrides, temporal sequence protection, and the same alias oracle
     when disambiguation was on — and require the output order to respect
     every edge *)
  let dag = Dag.build ?oracle model body in
  List.iter
    (fun (e : Dag.edge) ->
      let src = dag.Dag.insts.(e.Dag.e_src) in
      let dst = dag.Dag.insts.(e.Dag.e_dst) in
      let s = src.Mir.n_id and d = dst.Mir.n_id in
      if sc.pos_at.(s) = st && sc.pos_at.(d) = st && sc.pos.(s) >= sc.pos.(d)
      then
        report ~code:(edge_code e.Dag.e_kind)
          "%s edge violated: `%a' must issue before `%a' (label %d)"
          (edge_kind_name e.Dag.e_kind)
          (pp_i model) src (pp_i model) dst e.Dag.e_label)
    dag.Dag.edges;
  List.rev !ds

let schedval model ?func ?block ?oracle ~before out =
  let top = List.fold_left (fun n (i : Mir.inst) -> max n (i.Mir.n_id + 1)) in
  schedval_block model
    (scratch (top (top 0 before) out))
    ?func ?block ?oracle ~before out

let schedval_func ?(disambig = false) ?analysis ~before (after : Mir.func) =
  let model = after.Mir.f_model in
  let func = after.Mir.f_name in
  (* the same oracle the scheduler used: disambiguation is computed from
     the pre-pass function state, which is exactly the captured input.
     [analysis] lets the caller hand over the analysis it already
     computed from that state (capture preserves instruction ids, so the
     oracle applies verbatim) instead of solving again. *)
  let oracle =
    if disambig then
      let d =
        match analysis with
        | Some d -> d
        | None -> Disambig.compute before
      in
      Some (Dag.oracle (Disambig.may_alias d))
    else None
  in
  let sc = scratch (max before.Mir.f_next_inst after.Mir.f_next_inst) in
  let ds = ref [] in
  let structure fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          Diag.make ~phase:Diag.Post_sched ~func ~code:"V008" msg :: !ds)
      fmt
  in
  let rec pair bs1 bs2 =
    match (bs1, bs2) with
    | [], [] -> ()
    | (b1 : Mir.block) :: t1, (b2 : Mir.block) :: t2
      when b1.Mir.b_label = b2.Mir.b_label ->
        ds :=
          List.rev_append
            (schedval_block model sc ~func ~block:b1.Mir.b_label ?oracle
               ~before:b1.Mir.b_insts b2.Mir.b_insts)
            !ds;
        pair t1 t2
    | b1 :: _, b2 :: _ ->
        structure "block structure changed by scheduling: %s became %s"
          b1.Mir.b_label b2.Mir.b_label
    | b :: _, [] ->
        structure "block %s disappeared during scheduling" b.Mir.b_label
    | [], b :: _ ->
        structure "block %s appeared during scheduling" b.Mir.b_label
  in
  pair before.Mir.f_blocks after.Mir.f_blocks;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Regval: symbolic lockstep execution of allocation + spilling        *)
(* ------------------------------------------------------------------ *)

(* Symbolic values are integer tags over byte-granular storage: each
   register bank is a byte array of tags (0 = untouched since block
   entry), tracked separately for the input (pre-allocation) and output
   (post-allocation) versions, so %equiv pair clobbering falls out of
   byte overlap. Pseudo-registers carry a current tag on the input side;
   allocator-created spill slots carry one on the output side.

   Regval runs after every allocation, so its passing path allocates
   next to nothing: the per-pseudo, per-slot and per-instruction tables
   are arrays over the dense ids, valid for the block whose stamp they
   carry; registers are located without building tuples; and a
   diagnostic's text is formatted only when it is reported. *)

type bank_state = int array array

(* what reading a register's bytes finds: [untouched] (0), [mixed] when
   the bytes disagree, or else the one tag they all hold *)
let untouched = 0

let mixed = min_int

let read_bytes (arr : bank_state) bk off sz =
  let bank = arr.(bk) in
  let t = bank.(off) in
  let k = ref (off + 1) in
  while !k < off + sz && bank.(!k) = t do
    incr k
  done;
  if !k < off + sz then mixed else t

let write_bytes (arr : bank_state) bk off sz t = Array.fill arr.(bk) off sz t

(* a register's bytes: bank [c_bank], [byte_off c idx], [c_size] *)
let byte_off (c : Model.rclass) idx =
  c.Model.c_base + ((idx - c.Model.c_lo) * c.Model.c_size)

let read_reg model arr (r : Model.reg) =
  let c = Model.class_exn model r.Model.cls in
  read_bytes arr c.Model.c_bank (byte_off c r.Model.idx) c.Model.c_size

let write_reg model arr (r : Model.reg) t =
  let c = Model.class_exn model r.Model.cls in
  write_bytes arr c.Model.c_bank (byte_off c r.Model.idx) c.Model.c_size t

(* after a partial (Opart) def, the untouched bytes of the containing
   register are semantically part of the new value: retag the maximal
   contiguous run of old-tagged bytes around the written range, within
   [lo, hi) (the containing register's bytes when known, else the
   bank) *)
let extend_adjacent (arr : bank_state) bk off sz ~lo ~hi ~old t =
  let bank = arr.(bk) in
  let k = ref (off - 1) in
  while !k >= lo && bank.(!k) = old do
    bank.(!k) <- t;
    decr k
  done;
  let k = ref (off + sz) in
  while !k < hi && bank.(!k) = old do
    bank.(!k) <- t;
    incr k
  done

(* a partial def [part] of the register [root]: the part takes [t], and
   the root's other bytes join it only where they still hold [old], the
   value before the def. A half clobbered in between keeps its own tag,
   so a later read of the whole register is mixed. *)
let write_part model (arr : bank_state) ~(root : Model.reg) (part : Model.reg)
    ~old t =
  let rc = Model.class_exn model root.Model.cls in
  let lo = byte_off rc root.Model.idx in
  let c = Model.class_exn model part.Model.cls in
  let bk = c.Model.c_bank
  and off = byte_off c part.Model.idx
  and sz = c.Model.c_size in
  write_bytes arr bk off sz t;
  extend_adjacent arr bk off sz ~lo ~hi:(lo + rc.Model.c_size) ~old t

(* the operand at the root of [Opart]s *)
let rec root (o : Mir.operand) =
  match o with Mir.Opart (inner, _) -> root inner | o -> o

let is_reg o = match root o with Mir.Opreg _ | Mir.Ophys _ -> true | _ -> false

(* [Opreg p] under an assigned register, [Opart]s resolved to
   subregisters — what a correct rewrite must have produced *)
let rec rewrite_preg_operand model (o : Mir.operand) r =
  match o with
  | Mir.Opreg _ -> Some (Mir.Ophys r)
  | Mir.Opart (inner, k) -> (
      match rewrite_preg_operand model inner r with
      | Some (Mir.Ophys rr) -> (
          match Model.subreg model rr k with
          | Some sub -> Some (Mir.Ophys sub)
          | None -> None)
      | _ -> None)
  | _ -> None

(* a physical-register operand after rewriting: unchanged, with
   [Opart]s resolved *)
let rec resolve_parts model (o : Mir.operand) =
  match o with
  | Mir.Ophys r -> Some (Mir.Ophys r)
  | Mir.Opart (inner, k) -> (
      match resolve_parts model inner with
      | Some (Mir.Ophys r) -> (
          match Model.subreg model r k with
          | Some sub -> Some (Mir.Ophys sub)
          | None -> None)
      | _ -> None)
  | _ -> None

(* is [o_out] the rewrite of the pseudo operand [o_in] under [r]? A
   whole pseudo, the common case, is compared without building the
   rewrite *)
let rewritten_to model (o_in : Mir.operand) r (o_out : Mir.operand) =
  match (o_in, o_out) with
  | Mir.Opreg _, Mir.Ophys w -> Model.reg_equal w r
  | Mir.Opreg _, _ -> false
  | _ -> (
      match rewrite_preg_operand model o_in r with
      | Some w -> w = o_out
      | None -> false)

(* is [o_out] the physical operand [o_in], parts resolved? *)
let resolved_to model (o_in : Mir.operand) (o_out : Mir.operand) =
  match (o_in, o_out) with
  | Mir.Ophys r, Mir.Ophys w -> Model.reg_equal r w
  | Mir.Ophys _, _ -> false
  | _ -> (
      match resolve_parts model o_in with
      | Some w -> w = o_out
      | None -> false)

let regval_func ~before (after : Mir.func) =
  let model = after.Mir.f_model in
  let func = after.Mir.f_name in
  let ds = ref [] in
  let block = ref "" in
  let report ~code fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          Diag.make ~phase:Diag.Post_regalloc ~func ~block:!block ~code msg
          :: !ds)
      fmt
  in
  (* the use a value check is about: operand [pos] of [i], or, for a
     negative [pos], an implicit use by [i] *)
  let pp_use ppf ((i : Mir.inst), pos) =
    if pos >= 0 then
      Format.fprintf ppf "use of operand %d of `%a'" (pos + 1) (pp_i model) i
    else Format.fprintf ppf "implicit use by `%a'" (pp_i model) i
  in
  (* the allocator's claimed assignment (Mir.f_locations), by p_id; the
     first entry for a pseudo wins, the last for a slot *)
  let n_preg =
    List.fold_left
      (fun n (pid, _) -> max n (pid + 1))
      (max before.Mir.f_next_preg after.Mir.f_next_preg)
      after.Mir.f_locations
  in
  let n_slot =
    List.fold_left
      (fun n (_, l) -> match l with Mir.Lslot s -> max n (s + 1) | _ -> n)
      (max before.Mir.f_next_slot after.Mir.f_next_slot)
      after.Mir.f_locations
  in
  let n_inst = max before.Mir.f_next_inst after.Mir.f_next_inst in
  let loc_of = Array.make n_preg None in
  let preg_of_slot = Array.make n_slot (-1) in
  List.iter
    (fun (pid, l) ->
      if Option.is_none loc_of.(pid) then loc_of.(pid) <- Some l;
      match l with
      | Mir.Lslot s -> preg_of_slot.(s) <- pid
      | Mir.Lreg _ -> ())
    after.Mir.f_locations;
  (* slots at ids >= the captured next-slot are allocator-created spill
     slots; everything below is program memory, which stays opaque *)
  let base_slot = before.Mir.f_next_slot in
  let tag_ctr = ref 0 in
  let fresh_tag () =
    incr tag_ctr;
    !tag_ctr
  in
  let fp = model.Model.cwvm.Model.v_fp in
  (* per-block state, allocated once: an array entry belongs to the
     current block when its stamp is [!blk] *)
  let blk = ref 0 in
  let bytes_in : bank_state =
    Array.map (fun n -> Array.make (max n 1) 0) model.Model.banks
  in
  let bytes_out : bank_state =
    Array.map (fun n -> Array.make (max n 1) 0) model.Model.banks
  in
  let ptag = Array.make n_preg 0 and ptag_at = Array.make n_preg 0 in
  let pentry = Array.make n_preg 0 and pentry_at = Array.make n_preg 0 in
  (* a spill operand may name a slot no [Mir.new_slot] made: the slot
     tables grow to it *)
  let slot_tag = ref (Array.make n_slot 0)
  and slot_at = ref (Array.make n_slot 0) in
  let preg_of_slot = ref preg_of_slot in
  let reach s =
    let n = Array.length !slot_at in
    if s >= n then begin
      let grow a fill =
        let b = Array.make (max (s + 1) (2 * n)) fill in
        Array.blit a 0 b 0 n;
        b
      in
      slot_tag := grow !slot_tag 0;
      slot_at := grow !slot_at 0;
      preg_of_slot := grow !preg_of_slot (-1)
    end
  in
  let in_pos = Array.make n_inst 0 and in_at = Array.make n_inst 0 in
  let matched_at = Array.make n_inst 0 in
  let set_ptag pid t =
    ptag.(pid) <- t;
    ptag_at.(pid) <- !blk
  in
  let set_pentry pid t =
    pentry.(pid) <- t;
    pentry_at.(pid) <- !blk
  in
  let set_slot s t =
    !slot_tag.(s) <- t;
    !slot_at.(s) <- !blk
  in
  let tag_of_preg pid =
    if ptag_at.(pid) = !blk then ptag.(pid)
    else begin
      let t = fresh_tag () in
      set_ptag pid t;
      set_pentry pid t;
      t
    end
  in
  let entry_tag pid =
    if pentry_at.(pid) = !blk then pentry.(pid)
    else begin
      let t = fresh_tag () in
      set_pentry pid t;
      if ptag_at.(pid) <> !blk then set_ptag pid t;
      t
    end
  in
  let slot_value s =
    reach s;
    if !slot_at.(s) = !blk then !slot_tag.(s)
    else begin
      (* first touch: the slot holds its pseudo's block-entry value *)
      let t =
        let pid = !preg_of_slot.(s) in
        if pid >= 0 then entry_tag pid else fresh_tag ()
      in
      set_slot s t;
      t
    end
  in
  (* Lazy live-in binding: untouched physical storage is bound to a
     fresh value at first touch — on BOTH sides, because a block-entry
     register holds the same value in the input and output versions
     (the allocator does not move live-in physical registers). A side
     already partially written keeps its bytes. *)
  let bind_entry bk off sz =
    let t = fresh_tag () in
    if read_bytes bytes_in bk off sz = untouched then
      write_bytes bytes_in bk off sz t;
    if read_bytes bytes_out bk off sz = untouched then
      write_bytes bytes_out bk off sz t;
    t
  in
  (* read a register's bytes lazily: untouched storage is bound to the
     expected value at first use (live-in trust, see transval.mli);
     [mixed] when they disagree *)
  let read_in (r : Model.reg) =
    let c = Model.class_exn model r.Model.cls in
    let bk = c.Model.c_bank
    and off = byte_off c r.Model.idx
    and sz = c.Model.c_size in
    let v = read_bytes bytes_in bk off sz in
    if v = untouched then bind_entry bk off sz else v
  in
  let check_out_value i_in pos (w : Model.reg) expected ~bind_untouched
      ~miss_code =
    let v = read_reg model bytes_out w in
    if v = expected && v <> untouched && v <> mixed then ()
    else if v = untouched then begin
      if bind_untouched then write_reg model bytes_out w expected
      else
        report ~code:miss_code "%a reads %a, which holds no reloaded value"
          pp_use (i_in, pos) (Model.pp_reg model) w
    end
    else if v = mixed then
      report ~code:"V019" "%a reads %a, which is partially clobbered" pp_use
        (i_in, pos) (Model.pp_reg model) w
    else
      report ~code:miss_code "%a reads %a, which holds a different value"
        pp_use (i_in, pos) (Model.pp_reg model) w
  in
  let check_read (i_in : Mir.inst) (i_out : Mir.inst) pos =
    let o_in = i_in.Mir.n_ops.(pos) and o_out = i_out.Mir.n_ops.(pos) in
    match root o_in with
    | Mir.Opreg p -> (
        let expected = tag_of_preg p.Mir.p_id in
        match loc_of.(p.Mir.p_id) with
        | Some (Mir.Lreg r) -> (
            if not (rewritten_to model o_in r o_out) then
              report ~code:"V012"
                "operand %d of `%a' is not %%p%d's assigned register %a \
                 (found `%a')"
                (pos + 1) (pp_i model) i_in p.Mir.p_id (Model.pp_reg model) r
                (Mir.pp_operand model) o_out;
            match root o_out with
            | Mir.Ophys w ->
                check_out_value i_in pos w expected ~bind_untouched:true
                  ~miss_code:"V017"
            | _ -> ())
        | Some (Mir.Lslot _) -> (
            (* spilled: the use must read a reloaded temporary *)
            match root o_out with
            | Mir.Ophys w ->
                check_out_value i_in pos w expected ~bind_untouched:false
                  ~miss_code:"V018"
            | _ ->
                report ~code:"V018"
                  "%a of spilled %%p%d was not rewritten to a register" pp_use
                  (i_in, pos) p.Mir.p_id)
        | None ->
            report ~code:"V011" "pseudo-register %%p%d has no recorded location"
              p.Mir.p_id)
    | Mir.Ophys r -> (
        if not (resolved_to model o_in o_out) then
          report ~code:"V012" "physical operand %d of `%a' changed to `%a'"
            (pos + 1) (pp_i model) i_in (Mir.pp_operand model) o_out;
        let t = read_in r in
        match root o_out with
        | Mir.Ophys w when t <> mixed ->
            check_out_value i_in pos w t ~bind_untouched:true
              ~miss_code:"V017"
        | _ -> ())
    | _ ->
        if o_in <> o_out then
          report ~code:"V012" "operand %d of `%a' changed from `%a' to `%a'"
            (pos + 1) (pp_i model) i_in (Mir.pp_operand model) o_in
            (Mir.pp_operand model) o_out
  in
  let check_def (i_in : Mir.inst) (i_out : Mir.inst) pos =
    let o_in = i_in.Mir.n_ops.(pos) and o_out = i_out.Mir.n_ops.(pos) in
    let t = fresh_tag () in
    let partial = match o_in with Mir.Opart _ -> true | _ -> false in
    match root o_in with
    | Mir.Opreg p -> (
        let pid = p.Mir.p_id in
        let had_old = ptag_at.(pid) = !blk in
        let old = if had_old then ptag.(pid) else 0 in
        set_ptag pid t;
        if pentry_at.(pid) <> !blk then set_pentry pid (-1);
        match loc_of.(pid) with
        | Some (Mir.Lreg r) -> (
            if not (rewritten_to model o_in r o_out) then
              report ~code:"V012"
                "def operand %d of `%a' is not %%p%d's assigned register %a \
                 (found `%a')"
                (pos + 1) (pp_i model) i_in pid (Model.pp_reg model) r
                (Mir.pp_operand model) o_out;
            match root o_out with
            | Mir.Ophys w when partial ->
                (* before its first touch in the block the register
                   holds the pseudo's entry value, still untouched *)
                write_part model bytes_out ~root:r w ~old t
            | _ -> write_reg model bytes_out r t)
        | Some (Mir.Lslot _) -> (
            (* spilled: the def writes a temporary; a spill store must
               follow (checked when the store is consumed) *)
            match root o_out with
            | Mir.Ophys w ->
                let c = Model.class_exn model w.Model.cls in
                let bk = c.Model.c_bank
                and off = byte_off c w.Model.idx
                and sz = c.Model.c_size in
                write_bytes bytes_out bk off sz t;
                if partial && had_old then
                  extend_adjacent bytes_out bk off sz ~lo:0
                    ~hi:(Array.length bytes_out.(bk))
                    ~old t
            | _ ->
                report ~code:"V012"
                  "def of spilled %%p%d was not rewritten to a register" pid)
        | None ->
            report ~code:"V011" "pseudo-register %%p%d has no recorded location"
              pid)
    | Mir.Ophys r -> (
        if not (resolved_to model o_in o_out) then
          report ~code:"V012" "physical def operand %d of `%a' changed to `%a'"
            (pos + 1) (pp_i model) i_in (Mir.pp_operand model) o_out;
        match if partial then resolve_parts model o_in else None with
        | Some (Mir.Ophys w) ->
            (* both sides extend over the input's old value, so a half
               the output clobbered in between stays apart *)
            let old =
              let v = read_reg model bytes_in r in
              if v = mixed then -1 else v
            in
            write_part model bytes_in ~root:r w ~old t;
            write_part model bytes_out ~root:r w ~old t
        | _ ->
            write_reg model bytes_in r t;
            write_reg model bytes_out r t)
    | _ ->
        if o_in <> o_out then
          report ~code:"V012" "operand %d of `%a' changed from `%a' to `%a'"
            (pos + 1) (pp_i model) i_in (Mir.pp_operand model) o_in
            (Mir.pp_operand model) o_out
  in
  let rec reads i_in i_out arity = function
    | [] -> ()
    | pos :: rest ->
        if pos < arity then check_read i_in i_out pos;
        reads i_in i_out arity rest
  in
  let rec defs i_in i_out arity = function
    | [] -> ()
    | pos :: rest ->
        if pos < arity then check_def i_in i_out pos;
        defs i_in i_out arity rest
  in
  (* implicit reads: same registers on both sides, values must agree *)
  let rec implicit_uses i_in = function
    | [] -> ()
    | r :: rest ->
        let t = read_in r in
        if t <> mixed then
          check_out_value i_in (-1) r t ~bind_untouched:true ~miss_code:"V017";
        implicit_uses i_in rest
  in
  (* implicit defs (call clobbers, named single-register classes) havoc
     the same storage on both sides with one shared tag *)
  let clobber r =
    let t = fresh_tag () in
    write_reg model bytes_in r t;
    write_reg model bytes_out r t
  in
  let handle_matched (i_in : Mir.inst) (i_out : Mir.inst) =
    let arity = Array.length i_in.Mir.n_ops in
    if arity <> Array.length i_out.Mir.n_ops then
      report ~code:"V012" "`%a' changed arity during allocation" (pp_i model)
        i_in
    else begin
      let op = i_in.Mir.n_op in
      (* non-register operands must survive unchanged *)
      for k = 0 to arity - 1 do
        let o_in = i_in.Mir.n_ops.(k) in
        if (not (is_reg o_in)) && o_in <> i_out.Mir.n_ops.(k) then
          report ~code:"V012" "operand %d of `%a' changed from `%a' to `%a'"
            (k + 1) (pp_i model) i_in (Mir.pp_operand model) o_in
            (Mir.pp_operand model) i_out.Mir.n_ops.(k)
      done;
      reads i_in i_out arity op.Model.i_reads;
      implicit_uses i_in i_in.Mir.n_xuse;
      defs i_in i_out arity op.Model.i_writes;
      List.iter clobber i_in.Mir.n_xdef;
      List.iter
        (fun cid -> clobber (Locs.named_reg model cid))
        op.Model.i_wnames
    end
  in
  let spill_slot_of (i : Mir.inst) =
    Array.fold_left
      (fun acc o ->
        match (acc, o) with
        | None, Mir.Oslot (s, _) when s >= base_slot -> Some s
        | _ -> acc)
      None i.Mir.n_ops
  in
  let handle_fresh (o : Mir.inst) =
    if Listsched.is_nop o then ()
    else
      match spill_slot_of o with
      | Some s when o.Mir.n_op.Model.i_loads -> (
          (* spill reload: the destination receives the slot's value *)
          let dst =
            List.fold_left
              (fun acc pos ->
                match acc with
                | Some _ -> acc
                | None -> (
                    match root o.Mir.n_ops.(pos) with
                    | Mir.Ophys w -> Some w
                    | _ -> None))
              None o.Mir.n_op.Model.i_writes
          in
          match dst with
          | Some w -> write_reg model bytes_out w (slot_value s)
          | None ->
              report ~code:"V016"
                "inserted reload `%a' has no register destination" (pp_i model)
                o)
      | Some s when o.Mir.n_op.Model.i_stores -> (
          (* spill store: the slot receives the value register's tag;
             the frame pointer base is not the value *)
          let vals =
            List.filter_map
              (fun pos ->
                match root o.Mir.n_ops.(pos) with
                | Mir.Ophys w when not (Model.reg_equal w fp) -> Some w
                | _ -> None)
              o.Mir.n_op.Model.i_reads
          in
          match vals with
          | [ w ] ->
              let c = Model.class_exn model w.Model.cls in
              let bk = c.Model.c_bank
              and off = byte_off c w.Model.idx
              and sz = c.Model.c_size in
              let v = read_bytes bytes_out bk off sz in
              if v = mixed then
                report ~code:"V020"
                  "spill store `%a' writes a partially clobbered value"
                  (pp_i model) o
              else begin
                reach s;
                set_slot s (if v = untouched then bind_entry bk off sz else v)
              end
          | _ ->
              report ~code:"V016"
                "inserted spill store `%a' has no single value register"
                (pp_i model) o)
      | _ -> (
          match move_shape o with
          | Some (`Phys d, `Phys s) ->
              (* an inserted copy: byte-wise value transfer *)
              let cs = Model.class_exn model s.Model.cls in
              let bks = cs.Model.c_bank
              and offs = byte_off cs s.Model.idx
              and szs = cs.Model.c_size in
              let cd = Model.class_exn model d.Model.cls in
              let bkd = cd.Model.c_bank and offd = byte_off cd d.Model.idx in
              if read_bytes bytes_out bks offs szs = untouched then
                ignore (bind_entry bks offs szs);
              for k = 0 to min szs cd.Model.c_size - 1 do
                bytes_out.(bkd).(offd + k) <- bytes_out.(bks).(offs + k)
              done
          | _ ->
              report ~code:"V016"
                "allocation inserted unrecognized instruction `%a'"
                (pp_i model) o)
  in
  let handle_deleted (i : Mir.inst) =
    match move_shape i with
    | Some (d, s) -> (
        (* a move that became the identity: on the input side the
           destination now aliases the source's value; coherence of
           later uses enforces that the identity claim was true *)
        let src_tag =
          match s with
          | `Preg q -> tag_of_preg q.Mir.p_id
          | `Phys r -> read_in r
        in
        if src_tag <> mixed then
          match d with
          | `Preg p -> set_ptag p.Mir.p_id src_tag
          | `Phys r -> write_reg model bytes_in r src_tag)
    | None ->
        report ~code:"V015" "allocation deleted non-move instruction `%a'"
          (pp_i model) i
  in
  let check_block (b_in : Mir.block) (b_out : Mir.block) =
    block := b_in.Mir.b_label;
    incr blk;
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) bytes_in;
    Array.iter (fun a -> Array.fill a 0 (Array.length a) 0) bytes_out;
    let input = Array.of_list b_in.Mir.b_insts in
    Array.iteri
      (fun k (i : Mir.inst) ->
        in_pos.(i.Mir.n_id) <- k;
        in_at.(i.Mir.n_id) <- !blk)
      input;
    let cursor = ref 0 in
    List.iter
      (fun (o : Mir.inst) ->
        let id = o.Mir.n_id in
        if in_at.(id) <> !blk then handle_fresh o
        else
          let k = in_pos.(id) in
          if matched_at.(id) = !blk then
            report ~code:"V014"
              "instruction `%a' appears more than once after allocation"
              (pp_i model) o
          else if k < !cursor then
            report ~code:"V013" "allocation reordered instruction `%a'"
              (pp_i model) o
          else begin
            for j = !cursor to k - 1 do
              handle_deleted input.(j)
            done;
            cursor := k + 1;
            matched_at.(id) <- !blk;
            handle_matched input.(k) o
          end)
      b_out.Mir.b_insts;
    for j = !cursor to Array.length input - 1 do
      handle_deleted input.(j)
    done
  in
  let structure fmt =
    Format.kasprintf
      (fun msg ->
        ds :=
          Diag.make ~phase:Diag.Post_regalloc ~func ~code:"V010" msg :: !ds)
      fmt
  in
  let rec pair bs1 bs2 =
    match (bs1, bs2) with
    | [], [] -> ()
    | (b1 : Mir.block) :: t1, (b2 : Mir.block) :: t2
      when b1.Mir.b_label = b2.Mir.b_label ->
        check_block b1 b2;
        pair t1 t2
    | b1 :: _, b2 :: _ ->
        structure "block structure changed by allocation: %s became %s"
          b1.Mir.b_label b2.Mir.b_label
    | b :: _, [] ->
        structure "block %s disappeared during allocation" b.Mir.b_label
    | [], b :: _ ->
        structure "block %s appeared during allocation" b.Mir.b_label
  in
  pair before.Mir.f_blocks after.Mir.f_blocks;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Drivers                                                             *)
(* ------------------------------------------------------------------ *)

let validate_func ?disambig ?analysis phase ~before (fn : Mir.func) =
  match phase with
  | Diag.Post_regalloc -> regval_func ~before fn
  | Diag.Post_sched -> schedval_func ?disambig ?analysis ~before fn
  | Diag.Post_select | Diag.Final -> []

let validate_prog ?disambig phase ~before (prog : Mir.prog) =
  if not (validated_phase phase) then []
  else begin
    let structure_code =
      match phase with Diag.Post_regalloc -> "V010" | _ -> "V008"
    in
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun (fn : Mir.func) -> Hashtbl.replace by_name fn.Mir.f_name fn)
      before.Mir.p_funcs;
    let ds = ref [] in
    List.iter
      (fun (fn : Mir.func) ->
        match Hashtbl.find_opt by_name fn.Mir.f_name with
        | Some b ->
            Hashtbl.remove by_name fn.Mir.f_name;
            ds :=
              List.rev_append (validate_func ?disambig phase ~before:b fn) !ds
        | None ->
            ds :=
              Diag.make ~phase ~func:fn.Mir.f_name ~code:structure_code
                "function appeared during the pass"
              :: !ds)
      prog.Mir.p_funcs;
    Hashtbl.iter
      (fun name _ ->
        ds :=
          Diag.make ~phase ~func:name ~code:structure_code
            "function disappeared during the pass"
          :: !ds)
      by_name;
    List.rev !ds
  end
