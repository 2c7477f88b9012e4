module IntSet = Set.Make (Int)

type stats = { rounds : int; spilled : int }

type node = {
  preg : Mir.preg;
  mutable adj : IntSet.t;  (* neighbouring preg ids *)
  mutable forbidden : Model.reg list;  (* overlapping precolored registers *)
  mutable cost : float;  (* spill cost *)
  mutable color : Model.reg option;
  no_spill : bool;  (* spill-code temporaries must color *)
}

(* a pure register-to-register move: its source does not interfere with
   its destination (Chaitin) *)
let move_regs (i : Mir.inst) =
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
(* Interference graph construction                                     *)
(* ------------------------------------------------------------------ *)

let collect_pregs (fn : Mir.func) no_spill_ids =
  let nodes : (int, node) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          Array.iter
            (fun o ->
              match Mir.operand_reg o with
              | Some (`Preg p) ->
                  if not (Hashtbl.mem nodes p.Mir.p_id) then
                    Hashtbl.replace nodes p.Mir.p_id
                      {
                        preg = p;
                        adj = IntSet.empty;
                        forbidden = [];
                        cost = 0.0;
                        color = None;
                        no_spill = IntSet.mem p.Mir.p_id no_spill_ids;
                      }
              | Some (`Phys _) | None -> ())
            i.Mir.n_ops)
        b.Mir.b_insts)
    fn.Mir.f_blocks;
  nodes

let classes_may_overlap model c1 c2 =
  (Model.class_exn model c1).Model.c_bank = (Model.class_exn model c2).Model.c_bank

let build_graph (fn : Mir.func) nodes =
  let model = fn.Mir.f_model in
  let live = Liveness.compute fn in
  let depth = Liveness.loop_depth fn in
  let add_edge k1 k2 =
    match (k1, k2) with
    | Liveness.Kp a, Liveness.Kp b when a <> b ->
        let na = Hashtbl.find nodes a and nb = Hashtbl.find nodes b in
        if classes_may_overlap model na.preg.Mir.p_cls nb.preg.Mir.p_cls then begin
          na.adj <- IntSet.add b na.adj;
          nb.adj <- IntSet.add a nb.adj
        end
    | Liveness.Kp a, Liveness.Kh (c, i) | Liveness.Kh (c, i), Liveness.Kp a ->
        let n = Hashtbl.find nodes a in
        let r = { Model.cls = c; idx = i } in
        if
          classes_may_overlap model n.preg.Mir.p_cls c
          && not (List.exists (Model.reg_equal r) n.forbidden)
        then n.forbidden <- r :: n.forbidden
    | Liveness.Kp _, Liveness.Kp _ | Liveness.Kh _, Liveness.Kh _ -> ()
  in
  List.iter
    (fun (b : Mir.block) ->
      let d = try Hashtbl.find depth b.Mir.b_label with Not_found -> 0 in
      let weight = 10.0 ** float_of_int (min d 4) in
      let live_set =
        ref
          (try Hashtbl.find live.Liveness.live_out b.Mir.b_label
           with Not_found -> Liveness.KeySet.empty)
      in
      List.iter
        (fun (i : Mir.inst) ->
          let defs = Liveness.inst_defs i in
          let uses = Liveness.inst_uses i in
          (* account spill costs *)
          List.iter
            (fun k ->
              match k with
              | Liveness.Kp id ->
                  let n = Hashtbl.find nodes id in
                  n.cost <- n.cost +. weight
              | Liveness.Kh _ -> ())
            (defs @ uses);
          let live_for_edges =
            match move_regs i with
            | Some (_, s) ->
                Liveness.KeySet.remove (Liveness.key_of_reg s) !live_set
            | None -> !live_set
          in
          List.iter
            (fun d ->
              Liveness.KeySet.iter (fun l -> if l <> d then add_edge d l) live_for_edges;
              (* simultaneous defs interfere *)
              List.iter (fun d2 -> if d2 <> d then add_edge d d2) defs)
            defs;
          live_set :=
            Liveness.KeySet.union
              (List.fold_left
                 (fun acc d -> Liveness.KeySet.remove d acc)
                 !live_set defs)
              (Liveness.KeySet.of_list uses))
        (List.rev b.Mir.b_insts))
    fn.Mir.f_blocks

(* ------------------------------------------------------------------ *)
(* Coloring                                                            *)
(* ------------------------------------------------------------------ *)

let available_regs model max_local cls =
  let all = Model.allocable_of_class model cls in
  match max_local with
  | None -> all
  | Some k -> List.filteri (fun i _ -> i < k) all

let color_order model regs =
  (* prefer caller-save registers so we do not pay save/restore *)
  let caller, callee = List.partition (fun r -> not (Model.is_callee_save model r)) regs in
  caller @ callee

let simplify ~adj ~size ~avail ~forbidden ~cost ~no_spill =
  let n = Array.length adj in
  (* worst-case number of u's colors a neighbour v can block *)
  let blocking u v = (size.(v) + size.(u) - 1) / size.(u) in
  (* colors blocked by u's forbidden registers and unremoved neighbours *)
  let blocked =
    Array.init n (fun u ->
        Array.fold_left (fun acc v -> acc + blocking u v) forbidden.(u) adj.(u))
  in
  let weight =
    Array.init n (fun u ->
        (if no_spill.(u) then 1e18 else cost.(u))
        /. float_of_int (Array.length adj.(u) + 1))
  in
  let removed = Array.make n false in
  (* every unremoved node below [start] has blocked >= avail *)
  let start = ref 0 in
  Array.init n (fun _ ->
      let pick = ref (-1) in
      while !pick < 0 && !start < n do
        if (not removed.(!start)) && blocked.(!start) < avail.(!start) then
          pick := !start
        else incr start
      done;
      if !pick < 0 then
        (* optimistic: push the cheapest spill candidate *)
        for u = 0 to n - 1 do
          if (not removed.(u)) && (!pick < 0 || weight.(u) < weight.(!pick))
          then pick := u
        done;
      let v = !pick in
      removed.(v) <- true;
      Array.iter
        (fun u ->
          if not removed.(u) then begin
            blocked.(u) <- blocked.(u) - blocking u v;
            if u < !start && blocked.(u) < avail.(u) then start := u
          end)
        adj.(v);
      v)

let try_color model max_local nodes =
  let order =
    Hashtbl.fold (fun _ n acc -> n :: acc) nodes []
    |> List.sort (fun a b -> compare a.preg.Mir.p_id b.preg.Mir.p_id)
    |> Array.of_list
  in
  let index : (int, int) Hashtbl.t = Hashtbl.create (Array.length order) in
  Array.iteri (fun k (u : node) -> Hashtbl.replace index u.preg.Mir.p_id k) order;
  let per_class f =
    let t = Array.init (Array.length model.Model.classes) f in
    Array.map (fun (u : node) -> t.(u.preg.Mir.p_cls)) order
  in
  let removal =
    simplify
      ~adj:
        (Array.map
           (fun (u : node) ->
             Array.of_list
               (List.map (Hashtbl.find index) (IntSet.elements u.adj)))
           order)
      ~size:(per_class (fun c -> (Model.class_exn model c).Model.c_size))
      ~avail:
        (per_class (fun c -> List.length (available_regs model max_local c)))
      ~forbidden:(Array.map (fun (u : node) -> List.length u.forbidden) order)
      ~cost:(Array.map (fun (u : node) -> u.cost) order)
      ~no_spill:(Array.map (fun (u : node) -> u.no_spill) order)
  in
  let stack = Array.fold_left (fun acc k -> order.(k) :: acc) [] removal in
  (* select phase: the stack pops in reverse removal order *)
  let spilled = ref [] in
  List.iter
    (fun (u : node) ->
      let taken =
        IntSet.fold
          (fun vid acc ->
            match (Hashtbl.find nodes vid).color with
            | Some r -> r :: acc
            | None -> acc)
          u.adj u.forbidden
      in
      let model_overlap r r' = Model.regs_overlap model r r' in
      let choice =
        List.find_opt
          (fun r -> not (List.exists (model_overlap r) taken))
          (color_order model (available_regs model max_local u.preg.Mir.p_cls))
      in
      match choice with
      | Some r -> u.color <- Some r
      | None ->
          if u.no_spill then begin
            (* a spill temporary failed to color: its live range is already
               minimal, so relieve the pressure by spilling a neighbouring
               ordinary value instead and let the next round recolor *)
            let victim =
              IntSet.fold
                (fun vid best ->
                  let v = Hashtbl.find nodes vid in
                  if v.no_spill then best
                  else
                    match best with
                    | None -> Some v
                    | Some b -> if v.cost < b.cost then Some v else best)
                u.adj None
            in
            match victim with
            | Some v ->
                if not (List.memq v !spilled) then spilled := v :: !spilled
            | None ->
                Loc.fail Loc.dummy
                  "register allocation: spill temporary %%p%d cannot be \
                   colored and has no spillable neighbour"
                  u.preg.Mir.p_id
          end
          else spilled := u :: !spilled)
    stack;
  !spilled

(* ------------------------------------------------------------------ *)
(* Spill code                                                          *)
(* ------------------------------------------------------------------ *)

let insert_spills (fn : Mir.func) (spills : node list) fresh_no_spill =
  let model = fn.Mir.f_model in
  let fp = Mir.Ophys model.Model.cwvm.Model.v_fp in
  let slot_of : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (u : node) ->
      let c = Model.class_exn model u.preg.Mir.p_cls in
      let id = Mir.new_slot fn ~size:c.Model.c_size ~align:c.Model.c_size in
      Hashtbl.replace slot_of u.preg.Mir.p_id id;
      (* location metadata: the pseudo now lives in this frame slot *)
      fn.Mir.f_locations <-
        (u.preg.Mir.p_id, Mir.Lslot id) :: fn.Mir.f_locations)
    spills;
  let rec operand_mentions p (o : Mir.operand) =
    match o with
    | Mir.Opreg q -> q.Mir.p_id = p
    | Mir.Opart (inner, _) -> operand_mentions p inner
    | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _ -> false
  in
  let rec replace p q (o : Mir.operand) =
    match o with
    | Mir.Opreg r when r.Mir.p_id = p -> Mir.Opreg q
    | Mir.Opart (inner, k) -> Mir.Opart (replace p q inner, k)
    | Mir.Opreg _ | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _
    | Mir.Olab _ ->
        o
  in
  List.iter
    (fun (b : Mir.block) ->
      b.Mir.b_insts <-
        List.concat_map
          (fun (i : Mir.inst) ->
            let pre = ref [] and post = ref [] in
            let ops = ref i.Mir.n_ops in
            Hashtbl.iter
              (fun pid slot ->
                let reads =
                  List.exists
                    (fun pos -> operand_mentions pid !ops.(pos))
                    i.Mir.n_op.Model.i_reads
                in
                let partial_write =
                  (* writing through a half-register part leaves the other
                     half meaningful: reload it before the instruction *)
                  List.exists
                    (fun pos ->
                      match !ops.(pos) with
                      | Mir.Opart (inner, _) -> operand_mentions pid inner
                      | _ -> false)
                    i.Mir.n_op.Model.i_writes
                in
                let reads = reads || partial_write in
                let writes =
                  List.exists
                    (fun pos -> operand_mentions pid !ops.(pos))
                    i.Mir.n_op.Model.i_writes
                in
                if reads || writes then begin
                  let u = List.find (fun u -> u.preg.Mir.p_id = pid) spills in
                  let q = Mir.fresh_preg fn u.preg.Mir.p_cls in
                  fresh_no_spill q;
                  ops := Array.map (replace pid q) !ops;
                  if reads then begin
                    let ld = Frame.find_load_ri model u.preg.Mir.p_cls in
                    pre :=
                      Frame.load_at fn ld ~dst:(Mir.Opreg q) ~base:fp
                        ~off:(Mir.Oslot (slot, 0))
                      :: !pre
                  end;
                  if writes then begin
                    let st = Frame.find_store_ri model u.preg.Mir.p_cls in
                    post :=
                      Frame.store_at fn st ~base:fp ~off:(Mir.Oslot (slot, 0))
                        ~value:(Mir.Opreg q)
                      :: !post
                  end
                end)
              slot_of;
            List.rev !pre @ [ { i with Mir.n_ops = !ops } ] @ List.rev !post)
          b.Mir.b_insts)
    fn.Mir.f_blocks

(* ------------------------------------------------------------------ *)
(* Rewriting with assigned colors                                      *)
(* ------------------------------------------------------------------ *)

let rewrite_colors (fn : Mir.func) nodes =
  let model = fn.Mir.f_model in
  (* location metadata: every surviving pseudo (spill temporaries
     included) now lives in its color *)
  Hashtbl.iter
    (fun pid (n : node) ->
      match n.color with
      | Some r -> fn.Mir.f_locations <- (pid, Mir.Lreg r) :: fn.Mir.f_locations
      | None -> ())
    nodes;
  let color_of p =
    match (Hashtbl.find nodes p.Mir.p_id).color with
    | Some r -> r
    | None -> assert false
  in
  let rec rw (o : Mir.operand) =
    match o with
    | Mir.Opreg p -> Mir.Ophys (color_of p)
    | Mir.Opart (inner, k) -> (
        match rw inner with
        | Mir.Ophys r -> (
            match Model.subreg model r k with
            | Some sub -> Mir.Ophys sub
            | None ->
                Loc.fail Loc.dummy "no subregister covers part %d of a register" k)
        | other -> Mir.Opart (other, k))
    | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _ -> o
  in
  List.iter
    (fun (b : Mir.block) ->
      b.Mir.b_insts <-
        List.filter_map
          (fun (i : Mir.inst) ->
            let i = { i with Mir.n_ops = Array.map rw i.Mir.n_ops } in
            (* identity moves vanish *)
            match move_regs i with
            | Some (`Phys d, `Phys s) when Model.reg_equal d s -> None
            | _ -> Some i)
          b.Mir.b_insts)
    fn.Mir.f_blocks;
  (* record the callee-save registers this function clobbers *)
  let cwvm = model.Model.cwvm in
  let special r =
    Model.reg_equal r cwvm.Model.v_sp
    || Model.reg_equal r cwvm.Model.v_fp
    || Model.reg_equal r cwvm.Model.v_retaddr
  in
  let saved = ref [] in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) ->
          List.iter
            (fun d ->
              match d with
              | `Phys r ->
                  if
                    Model.is_callee_save model r
                    && (not (special r))
                    && not (List.exists (Model.reg_equal r) !saved)
                  then saved := r :: !saved
              | `Preg _ -> ())
            (Mir.inst_defs i))
        b.Mir.b_insts)
    fn.Mir.f_blocks;
  fn.Mir.f_saved <- List.rev !saved

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let allocate ?(forbid_global_pregs = false) ?max_local (fn : Mir.func) : stats =
  let no_spill = ref IntSet.empty in
  let total_spilled = ref 0 in
  fn.Mir.f_locations <- [];
  (* the local-only baseline: force every cross-block pseudo to memory *)
  if forbid_global_pregs then begin
    let nodes = collect_pregs fn IntSet.empty in
    let globals =
      Hashtbl.fold
        (fun _ n acc -> if n.preg.Mir.p_global then n :: acc else acc)
        nodes []
    in
    total_spilled := List.length globals;
    insert_spills fn globals (fun q -> ignore q)
  end;
  let rec round k =
    if k > 16 then
      Loc.fail Loc.dummy "register allocation did not converge in %s"
        fn.Mir.f_name;
    let nodes = collect_pregs fn !no_spill in
    build_graph fn nodes;
    match try_color fn.Mir.f_model max_local nodes with
    | [] ->
        (* self-check: every interference edge must end up with
           non-overlapping registers, and precolored conflicts must be
           respected *)
        Hashtbl.iter
          (fun _ (u : node) ->
            let cu = Option.get u.color in
            IntSet.iter
              (fun vid ->
                let v = Hashtbl.find nodes vid in
                let cv = Option.get v.color in
                if Model.regs_overlap fn.Mir.f_model cu cv then
                  Loc.fail Loc.dummy
                    "register allocation self-check: %%p%d and %%p%d share \
                     overlapping registers"
                    u.preg.Mir.p_id v.preg.Mir.p_id)
              u.adj;
            List.iter
              (fun r ->
                if Model.regs_overlap fn.Mir.f_model cu r then
                  Loc.fail Loc.dummy
                    "register allocation self-check: %%p%d overlaps a live \
                     physical register"
                    u.preg.Mir.p_id)
              u.forbidden)
          nodes;
        rewrite_colors fn nodes;
        { rounds = k; spilled = !total_spilled }
    | spills ->
        total_spilled := !total_spilled + List.length spills;
        insert_spills fn spills (fun q ->
            no_spill := IntSet.add q.Mir.p_id !no_spill);
        round (k + 1)
  in
  round 1
