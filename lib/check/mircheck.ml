(* Phase-aware MIR verifier; see mircheck.mli.

   Deliberately an independent re-implementation of the structural rules
   the selector, allocator, scheduler and simulator share, so a bug in
   any one phase shows up as a disagreement here rather than as a silent
   miscompile. It shares one thing with them: {!Locs}'s effect walk,
   which only projects the machine model's operand tables (read and
   written positions, implicit and by-name effects) onto the raw MIR.
   Everything else it re-derives from the model ({!Model.t}) and the
   MIR: operand shapes, byte-level def-before-use over %equiv pairs,
   layout and the temporal discipline. *)

let rank = function
  | Diag.Post_select -> 0
  | Diag.Post_regalloc -> 1
  | Diag.Post_sched -> 2
  | Diag.Final -> 3

let at_least phase p = rank phase >= rank p

(* ------------------------------------------------------------------ *)
(* Model helpers (guarded: the verifier must survive malformed input) *)

let class_valid = Locs.class_valid

let reg_valid = Locs.reg_valid

let class_name model cid =
  if class_valid model cid then (Model.class_exn model cid).Model.c_name
  else Printf.sprintf "<class#%d>" cid

let reg_name model (r : Model.reg) =
  if reg_valid model r then Format.asprintf "%a" (Model.pp_reg model) r
  else Printf.sprintf "%s[%d]" (class_name model r.Model.cls) r.Model.idx

let preg_name (p : Mir.preg) =
  match p.Mir.p_name with
  | Some n -> Printf.sprintf "%%%d(%s)" p.Mir.p_id n
  | None -> Printf.sprintf "%%%d" p.Mir.p_id

let is_term (op : Model.instr) = op.Model.i_branch && not op.Model.i_call

(* ------------------------------------------------------------------ *)
(* definitely-assigned dataflow (M031) *)

(* Keys form a dense space so the sets can be bit vectors: one key per
   byte of every register bank (so %equiv pairs interact correctly),
   then one key per pseudo-register. The dense layout matters: the
   fixpoint runs at every phase point of every compile, and word-wise
   set operations keep its cost a few percent of back-end time. The
   register half is per model: each hard register's byte keys are
   [lo.(id) .. lo.(id) + len.(id) - 1], computed once. *)
type keys = {
  tab : Regtab.t;
  lo : int array;  (* Regtab id -> its first byte key *)
  len : int array;  (* Regtab id -> its byte count *)
  nphys : int;
  seed : (int * int) list;
      (* the byte-key ranges (first key, count) of the registers the
         calling convention guarantees are meaningful on function entry:
         the CWVM environment *)
}

let keys =
  Model.memo (fun model ->
      let tab = Regtab.get model in
      let banks = model.Model.banks in
      let bank_base = Array.make (Array.length banks) 0 in
      let acc = ref 0 in
      Array.iteri
        (fun i n ->
          bank_base.(i) <- !acc;
          acc := !acc + n)
        banks;
      let range r =
        let bank, off, size = Model.reg_bytes model r in
        (bank_base.(bank) + off, size)
      in
      let lo = Array.make tab.Regtab.n_hard 0
      and len = Array.make tab.Regtab.n_hard 0 in
      Array.iteri
        (fun id r ->
          let first, size = range r in
          lo.(id) <- first;
          len.(id) <- size)
        tab.Regtab.regs;
      let cw = model.Model.cwvm in
      let seed =
        [ cw.Model.v_sp; cw.Model.v_fp; cw.Model.v_retaddr ]
        @ (match cw.Model.v_gp with Some g -> [ g ] | None -> [])
        @ List.map fst cw.Model.v_hard
        @ List.map (fun (_, r, _) -> r) cw.Model.v_args
        @ cw.Model.v_calleesave
        @ List.map fst cw.Model.v_results
      in
      {
        tab;
        lo;
        len;
        nphys = !acc;
        seed = List.map range (List.filter (reg_valid model) seed);
      })

(* the function's key space: the model's keys and [cap] set members *)
type keyspace = { k : keys; cap : int }

let keyspace model (fn : Mir.func) =
  let k = keys model in
  { k; cap = k.nphys + fn.Mir.f_next_preg + 1 }

(* the set key of a pseudo's location key *)
let preg_key ks l = ks.k.nphys + l - ks.k.tab.Regtab.n_hard

let entry_seed ks =
  let s = Bitset.create ks.cap in
  List.iter (fun (first, n) -> Bitset.set_range s first n) ks.k.seed;
  s

(* The two walks M031 makes over every instruction at every phase, with
   their callbacks built once per function: [add_defs set i] records
   [i]'s defs into [set] — the whole effect walk, clobbers and by-name
   writes included (the bytes hold *a* value afterwards, which is all
   M031 asks) — and [all_assigned set i] tells whether every use to
   check is in [set]. The uses to check are the effect walk's reads
   without by-name ones (condition codes and the like live outside the
   allocation discipline) and without temporal latches (M043/M044
   govern them). Neither allocates. *)
type walks = {
  add_defs : Bitset.t -> Mir.inst -> unit;
  all_assigned : Bitset.t -> Mir.inst -> bool;
}

let walks ks =
  let k = ks.k in
  let tab = k.tab in
  let n_hard = tab.Regtab.n_hard in
  let target = ref (Bitset.create 0) and ok = ref true in
  let def l _ =
    if l >= n_hard then Bitset.set !target (preg_key ks l)
    else Bitset.set_range !target k.lo.(l) k.len.(l)
  in
  let use l how =
    if !ok && how <> Locs.by_name then
      ok :=
        if l >= n_hard then Bitset.mem !target (preg_key ks l)
        else
          Option.is_some tab.Regtab.clock.(l)
          || Bitset.mem_range !target k.lo.(l) k.len.(l)
  in
  {
    add_defs =
      (fun set i ->
        target := set;
        Locs.iter_writes tab def i);
    all_assigned =
      (fun set i ->
        target := set;
        ok := true;
        Locs.iter_reads tab use i;
        !ok);
  }

(* the uses of [i] not in [set], each location once, in walk order: the
   finding path of [all_assigned] *)
let iter_unassigned_uses ks set ~missing (i : Mir.inst) =
  let k = ks.k in
  let tab = k.tab in
  let reported = ref [] in
  Locs.iter_reads tab
    (fun l how ->
      if how <> Locs.by_name && not (List.mem l !reported) then
        let unassigned =
          if l >= tab.Regtab.n_hard then not (Bitset.mem set (preg_key ks l))
          else
            Option.is_none tab.Regtab.clock.(l)
            && not (Bitset.mem_range set k.lo.(l) k.len.(l))
        in
        if unassigned then begin
          reported := l :: !reported;
          missing l
        end)
    i

let use_name ks model (i : Mir.inst) l =
  let tab = ks.k.tab in
  if l >= tab.Regtab.n_hard then preg_name (Option.get (Locs.preg_of tab i l))
  else reg_name model tab.Regtab.regs.(l)

(* ------------------------------------------------------------------ *)

let check_func phase (fn : Mir.func) : Diag.t list =
  let model = fn.Mir.f_model in
  let tab = Regtab.get model in
  let diags = ref [] in
  (* a register naming no machine register (M006) leaves the A-codes
     out: liveness has no key for it *)
  let malformed = ref false in
  let report ?severity ?loc ?block ~code fmt =
    Format.kasprintf
      (fun msg ->
        diags :=
          Diag.make ?severity ~phase ?loc ~func:fn.Mir.f_name ?block ~code
            msg
          :: !diags)
      fmt
  in

  (* ---------------- CFG: labels and successors ---------------- *)
  let labels = Hashtbl.create 16 in
  let duplicated = ref [] in
  List.iter
    (fun (b : Mir.block) ->
      if Hashtbl.mem labels b.Mir.b_label then begin
        report ~block:b.Mir.b_label ~code:"M011" "duplicate block label";
        duplicated := b.Mir.b_label :: !duplicated
      end
      else Hashtbl.add labels b.Mir.b_label b)
    fn.Mir.f_blocks;
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun s ->
          if not (Hashtbl.mem labels s) then
            report ~block:b.Mir.b_label ~code:"M012"
              "successor %s is not a block of this function" s)
        b.Mir.b_succs)
    fn.Mir.f_blocks;

  (* ---------------- operand shapes ---------------- *)
  (* [iname ^ what] names the register's site; the text is built only
     for a finding *)
  let check_phys_valid ~loc ~block iname what (r : Model.reg) =
    if not (reg_valid model r) then begin
      malformed := true;
      report ~loc ~block ~code:"M006" "%s%s names no machine register: %s"
        iname what (reg_name model r)
    end
  in
  let rec check_implicit ~loc ~block iname what = function
    | [] -> ()
    | r :: rest ->
        check_phys_valid ~loc ~block iname what r;
        check_implicit ~loc ~block iname what rest
  in
  let allocated = at_least phase Diag.Post_regalloc in
  (* structural validity of one operand tree, phase discipline included *)
  let rec scan_operand ~loc ~block iname = function
    | Mir.Opreg p ->
        if allocated then
          report ~loc ~block ~code:"M021"
            "%s still carries pseudo-register %s after allocation" iname
            (preg_name p)
    | Mir.Opart (inner, k) ->
        if allocated then
          report ~loc ~block ~code:"M022"
            "%s carries an unresolved register part (.part%d) after \
             allocation"
            iname k;
        scan_operand ~loc ~block iname inner
    | Mir.Oslot (id, _) ->
        if phase = Diag.Final then
          report ~loc ~block ~code:"M023"
            "%s still refers to frame slot %d after frame layout" iname id
    | Mir.Ophys r -> check_phys_valid ~loc ~block iname " operand" r
    | Mir.Oimm _ | Mir.Osym _ | Mir.Olab _ -> ()
  in
  (* the register class at the root of a register operand, if any *)
  let operand_class op =
    match Mir.operand_reg op with
    | Some (`Preg p) -> Some p.Mir.p_cls
    | Some (`Phys r) -> Some r.Model.cls
    | None -> None
  in
  let mismatch ~loc ~block iname j op expected =
    report ~loc ~block ~code:"M002" "%s operand %d: expected %s, found %a"
      iname (j + 1) expected (Mir.pp_operand model) op
  in
  let check_kind ~loc ~block (i : Mir.inst) j kind op =
    let iname = i.Mir.n_op.Model.i_name in
    match (kind, op) with
    | Model.Kreg c, Mir.Opreg p ->
        if p.Mir.p_cls <> c then
          report ~loc ~block ~code:"M002"
            "%s operand %d: class %s expected, pseudo %s has class %s"
            iname (j + 1) (class_name model c) (preg_name p)
            (class_name model p.Mir.p_cls)
    | Model.Kreg c, Mir.Ophys r ->
        if reg_valid model r && r.Model.cls <> c then
          report ~loc ~block ~code:"M002"
            "%s operand %d: class %s expected, register %s has class %s"
            iname (j + 1) (class_name model c) (reg_name model r)
            (class_name model r.Model.cls)
    | Model.Kreg c, Mir.Opart (inner, k) -> (
        (* a part operand stands for the k-th half of its root: the
           expected class must be half the root's width in the same
           bank (how Model.subreg will resolve it) *)
        if k <> 0 && k <> 1 then
          report ~loc ~block ~code:"M002"
            "%s operand %d: register part index %d out of range" iname
            (j + 1) k;
        match operand_class inner with
        | Some rc when class_valid model rc && class_valid model c ->
            let rcc = Model.class_exn model rc
            and ecc = Model.class_exn model c in
            if
              2 * ecc.Model.c_size <> rcc.Model.c_size
              || ecc.Model.c_bank <> rcc.Model.c_bank
            then
              report ~loc ~block ~code:"M002"
                "%s operand %d: part of a %s register cannot lie in \
                 class %s"
                iname (j + 1) rcc.Model.c_name ecc.Model.c_name
        | Some _ -> () (* M006 already reported on the root *)
        | None ->
            mismatch ~loc ~block iname j op
              "a register part rooted in a register")
    | Model.Kreg c, (Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _)
      ->
        mismatch ~loc ~block iname j op
          (Printf.sprintf "a register of class %s" (class_name model c))
    | Model.Kregfix r, Mir.Ophys r' ->
        if not (Model.reg_equal r r') then
          report ~loc ~block ~code:"M003"
            "%s operand %d: fixed register %s expected, found %s" iname
            (j + 1) (reg_name model r) (reg_name model r')
    | Model.Kregfix r, _ ->
        report ~loc ~block ~code:"M003"
          "%s operand %d: fixed register %s expected, found %a" iname
          (j + 1) (reg_name model r) (Mir.pp_operand model) op
    | Model.Kimm d, Mir.Oimm v ->
        let def = model.Model.defs.(d) in
        if v < def.Model.d_lo || v > def.Model.d_hi then
          report ~loc ~block ~code:"M004"
            "%s operand %d: immediate %d outside %%def %s range %d..%d"
            iname (j + 1) v def.Model.d_name def.Model.d_lo def.Model.d_hi
    | Model.Kimm d, Mir.Osym (s, _) ->
        let def = model.Model.defs.(d) in
        if not (List.mem Ast.Fabs def.Model.d_flags) then
          report ~loc ~block ~code:"M004"
            "%s operand %d: symbol %s bound to %%def %s, which is not \
             declared +abs"
            iname (j + 1) s def.Model.d_name
    | Model.Kimm _, Mir.Oslot _ ->
        (* legal until frame layout resolves it; M023 polices Final *)
        ()
    | Model.Kimm _, (Mir.Opreg _ | Mir.Ophys _ | Mir.Opart _ | Mir.Olab _)
      ->
        mismatch ~loc ~block iname j op "an immediate"
    | Model.Klab _, Mir.Olab l ->
        if not (Hashtbl.mem labels l) then
          report ~loc ~block ~code:"M005"
            "%s operand %d: label %s does not name a block of %s" iname
            (j + 1) l fn.Mir.f_name
    | Model.Klab _, Mir.Osym _ ->
        (* cross-function target (calls); resolved at load time *)
        ()
    | Model.Klab _, (Mir.Opreg _ | Mir.Ophys _ | Mir.Opart _ | Mir.Oimm _
      | Mir.Oslot _) ->
        mismatch ~loc ~block iname j op "a code label"
  in
  let check_inst ~block (i : Mir.inst) =
    let op = i.Mir.n_op in
    let loc = op.Model.i_loc in
    let nk = Array.length op.Model.i_opnds
    and no = Array.length i.Mir.n_ops in
    if nk <> no then
      report ~loc ~block ~code:"M001"
        "%s carries %d operands, description declares %d" op.Model.i_name
        no nk;
    for j = 0 to min nk no - 1 do
      check_kind ~loc ~block i j op.Model.i_opnds.(j) i.Mir.n_ops.(j)
    done;
    for j = 0 to no - 1 do
      scan_operand ~loc ~block op.Model.i_name i.Mir.n_ops.(j)
    done;
    check_implicit ~loc ~block op.Model.i_name " implicit use" i.Mir.n_xuse;
    check_implicit ~loc ~block op.Model.i_name " implicit def" i.Mir.n_xdef
  in
  List.iter
    (fun (b : Mir.block) ->
      List.iter (check_inst ~block:b.Mir.b_label) b.Mir.b_insts)
    fn.Mir.f_blocks;

  (* ---------------- terminators and delay slots ---------------- *)
  let scheduled = at_least phase Diag.Post_sched in
  (* the [have] delay-slot fills after branch [op] *)
  let rec check_fills ~block (op : Model.instr) have = function
    | (x : Mir.inst) :: rest when have > 0 ->
        if x.Mir.n_op.Model.i_branch then
          report ~loc:x.Mir.n_op.Model.i_loc ~block ~code:"M042"
            "branch %s sits in a delay slot of %s" x.Mir.n_op.Model.i_name
            op.Model.i_name;
        check_fills ~block op (have - 1) rest
    | _ -> ()
  in
  let check_layout (b : Mir.block) =
    let block = b.Mir.b_label in
    let n = List.length b.Mir.b_insts in
    let rec walk i = function
      | [] -> ()
      | (x : Mir.inst) :: rest ->
          let op = x.Mir.n_op in
          if op.Model.i_branch then begin
            let slots = abs op.Model.i_slots in
            if scheduled && slots > 0 then begin
              let have = min slots (n - 1 - i) in
              if have < slots then
                report ~loc:op.Model.i_loc ~block ~code:"M041"
                  "%s: only %d of %d delay slot(s) filled" op.Model.i_name
                  have slots;
              check_fills ~block op have rest
            end;
            if is_term op then begin
              let allowed = if scheduled then slots else 0 in
              let extra = n - 1 - i - allowed in
              if extra > 0 then
                report ~block ~code:"M013"
                  "%d instruction(s) after terminator %s (beyond its %d \
                   delay slot(s))"
                  extra op.Model.i_name allowed
            end
          end;
          walk (i + 1) rest
    in
    walk 0 b.Mir.b_insts
  in
  List.iter check_layout fn.Mir.f_blocks;

  (* ---------------- EAP temporal discipline (paper 4.6) -------- *)
  (* Per block, in issue order: a write into a temporal latch opens an
     edge that the next read of that latch closes. While an edge on
     clock k is open, no other instruction affecting k may appear
     (Rule 1), and no read may name a latch never launched here. *)
  (* most instructions touch no latch: find that out without building
     the latch lists *)
  let latch_seen = ref false in
  let probe l _ =
    if l < tab.Regtab.n_hard && Option.is_some tab.Regtab.clock.(l) then
      latch_seen := true
  in
  let latches walk i =
    latch_seen := false;
    walk tab probe i;
    if !latch_seen then Temporal.latches tab walk i else []
  in
  let check_temporal (b : Mir.block) =
    let block = b.Mir.b_label in
    let tw = Temporal.create model in
    List.iter
      (fun (i : Mir.inst) ->
        let iname = i.Mir.n_op.Model.i_name in
        let loc = i.Mir.n_op.Model.i_loc in
        let reads = latches Locs.iter_reads i
        and writes = latches Locs.iter_writes i in
        (* reads catch their latch, closing the window *)
        List.iter
          (fun (_, r) ->
            if Temporal.catch tw r = [] then
              report ~loc ~block ~code:"M044"
                "%s reads temporal latch %s, which no instruction in \
                 this block has launched"
                iname (reg_name model r))
          reads;
        (* Rule 1: with a window still open on clock k, only its catch may
           advance k -- and the catches just ran above *)
        (match i.Mir.n_op.Model.i_affects with
        | Some k -> (
            match Temporal.blocking tw ~clock:k with
            | Some w ->
                report ~loc ~block ~code:"M043"
                  "%s advances clock %s while %s launched into latch %s \
                   still awaits its catch"
                  iname
                  model.Model.clocks.(k)
                  w.Temporal.w_launcher
                  (reg_name model w.Temporal.w_latch)
            | None -> ())
        | None -> ());
        (* writes open a fresh window, superseding any stale one *)
        List.iter
          (fun (k, r) -> Temporal.launch tw ~clock:k r ~launcher:iname)
          writes)
      b.Mir.b_insts
  in
  if Temporal.has_temporal model then
    List.iter check_temporal fn.Mir.f_blocks;

  (* ---------------- def-before-use (M031) ---------------- *)
  (* keys assigned on every path from entry; an unreached predecessor is
     the optimistic top, and an unreached block carries no obligations *)
  (let ks = keyspace model fn in
   let w = walks ks in
   let seed = entry_seed ks in
   (* each unassigned use of block [b] against a running set from [s] *)
   let check_uses (b : Mir.block) s ~missing =
     List.iter
       (fun (i : Mir.inst) ->
         if not (w.all_assigned s i) then
           iter_unassigned_uses ks s ~missing:(missing i) i;
         w.add_defs s i)
       b.Mir.b_insts
   in
   (* The transfer checks the block's uses as it adds its defs and keeps
      what the block's latest transfer found, by label: the last
      transfer of a block runs on its fixpoint fact, so that is M031's
      finding for it. *)
   let found = Hashtbl.create 8 in
   let module D = struct
     type fact = Bitset.t

     let boundary _ = seed

     let equal = Bitset.equal

     let join a b =
       let d = Bitset.copy a in
       Bitset.inter_into ~dst:d b;
       d

     let transfer _ (b : Mir.block) s =
       let d = Bitset.copy s in
       let acc = ref [] in
       check_uses b d ~missing:(fun i l -> acc := (i, l) :: !acc);
       if !acc <> [] then Hashtbl.replace found b.Mir.b_label (List.rev !acc)
       else if Hashtbl.length found > 0 then
         Hashtbl.remove found b.Mir.b_label;
       d

     let nfacts = Bitset.cardinal
   end in
   let module S = Dataflow.Solve (D) in
   let avail = S.solve fn in
   let m031 (b : Mir.block) (i : Mir.inst) l =
     report ~loc:i.Mir.n_op.Model.i_loc ~block:b.Mir.b_label ~code:"M031"
       "%s reads %s, which is not assigned on every path from function \
        entry"
       i.Mir.n_op.Model.i_name (use_name ks model i l)
   in
   (* a duplicated label (M011) names its last block to the solver: each
      block under it is checked against that block's fact *)
   if Hashtbl.length found > 0 || !duplicated <> [] then
     List.iter
       (fun (b : Mir.block) ->
         let label = b.Mir.b_label in
         if List.mem label !duplicated then
           Option.iter
             (fun s0 -> check_uses b (Bitset.copy s0) ~missing:(m031 b))
             (S.flow_in avail label)
         else
           List.iter
             (fun (i, l) -> m031 b i l)
             (Option.value (Hashtbl.find_opt found label) ~default:[]))
       fn.Mir.f_blocks);

  (* -------- global dataflow diagnostics (A001/A002, warnings) ------- *)
  (* Post_select only: pseudo-registers exist there, and later phases
     would re-report facts the allocator has already consumed. Both are
     warnings from {!Liveness}, restricted to pseudo keys: A001 overlaps
     M031's error (the definitely-assigned analysis), but reports per
     pseudo with a use it reaches; A002 has no M-series counterpart. A
     register that names no machine register (M006) leaves them out. *)
  (if phase = Diag.Post_select && not !malformed then
     let live = Liveness.compute fn in
     (* A002: an instruction whose removal is observably safe (no
        memory, control, temporal or implicit-register effect) and
        whose every written operand is a whole pseudo dead after it *)
     let removable (i : Mir.inst) =
       let op = i.Mir.n_op in
       (not op.Model.i_loads) && (not op.Model.i_stores)
       && (not op.Model.i_branch) && (not op.Model.i_call)
       && op.Model.i_affects = None && i.Mir.n_xdef = []
       && op.Model.i_wnames = [] && op.Model.i_writes <> []
       && List.for_all
            (fun pos ->
              match i.Mir.n_ops.(pos) with Mir.Opreg _ -> true | _ -> false)
            op.Model.i_writes
     in
     let np = fn.Mir.f_next_preg and nh = tab.Regtab.n_hard in
     (* A001's site per pseudo: its first read in layout order that no
        kill precedes in its block. [exposed] holds the block's upward-
        exposed reads so far; [touched] lists the pseudos it has set, so
        leaving a block costs what the block touched *)
     let site = Array.make np None and exposed = Array.make np None in
     let touched = Array.make np 0 and touched_at = Array.make np 0 in
     let n_touched = ref 0 and blk = ref 0 in
     let touch k =
       if touched_at.(k) <> !blk then begin
         touched_at.(k) <- !blk;
         touched.(!n_touched) <- k;
         incr n_touched
       end
     in
     let cur = ref (Bitset.create 0) and at = ref None in
     let kill k =
       Bitset.unset !cur k;
       if k >= nh then exposed.(k - nh) <- None
     in
     let gen k =
       Bitset.set !cur k;
       if k >= nh then begin
         touch (k - nh);
         exposed.(k - nh) <- !at
       end
     in
     let dead = ref [] in
     List.iter
       (fun (b : Mir.block) ->
         cur := Bitset.copy (Liveness.live_out live b.Mir.b_label);
         let block_dead = ref [] in
         incr blk;
         n_touched := 0;
         Liveness.enter live;
         List.iter
           (fun (i : Mir.inst) ->
             (if removable i then
                let defs =
                  List.filter_map
                    (fun pos ->
                      match i.Mir.n_ops.(pos) with
                      | Mir.Opreg p -> Some p
                      | _ -> None)
                    i.Mir.n_op.Model.i_writes
                in
                if
                  List.for_all
                    (fun p -> not (Bitset.mem !cur (Locs.pseudo tab p)))
                    defs
                then block_dead := (b.Mir.b_label, i, defs) :: !block_dead);
             at := Some i;
             Liveness.step live ~kill ~gen i)
           (List.rev b.Mir.b_insts);
         for t = 0 to !n_touched - 1 do
           let k = touched.(t) in
           (match (exposed.(k), site.(k)) with
           | Some i, None -> site.(k) <- Some (b.Mir.b_label, i)
           | _ -> ());
           exposed.(k) <- None
         done;
         dead := List.rev_append !block_dead !dead)
       fn.Mir.f_blocks;
     (match fn.Mir.f_blocks with
     | [] -> ()
     | entry :: _ ->
         let uninit = Liveness.live_in live entry.Mir.b_label in
         Array.iteri
           (fun k s ->
             match s with
             | Some (block, (i : Mir.inst)) when Bitset.mem uninit (nh + k) ->
                 Option.iter
                   (fun p ->
                     report ~severity:Diag.Warning
                       ~loc:i.Mir.n_op.Model.i_loc ~block ~code:"A001"
                       "%s is live into the function entry: it may be \
                        used before being assigned"
                       (preg_name p))
                   (Locs.preg_of tab i (nh + k))
             | _ -> ())
           site);
     List.iter
       (fun (block, (i : Mir.inst), defs) ->
         report ~severity:Diag.Warning ~loc:i.Mir.n_op.Model.i_loc ~block
           ~code:"A002"
           "%s defines only dead value(s) (%s): the result is never read"
           i.Mir.n_op.Model.i_name
           (String.concat ", " (List.map preg_name defs)))
       (List.rev !dead));

  List.rev !diags

let check_prog phase (p : Mir.prog) =
  List.concat_map (check_func phase) p.Mir.p_funcs

let check_prog_exn phase p = Diag.raise_if_errors (check_prog phase p)
