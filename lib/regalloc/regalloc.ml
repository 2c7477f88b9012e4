type stats = { rounds : int; spilled : int }

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

(* every pseudo-register operand of the function, in layout order,
   repeats included *)
let iter_pregs (fn : Mir.func) f =
  let rec go (o : Mir.operand) =
    match o with
    | Mir.Opreg p -> f p
    | Mir.Opart (inner, _) -> go inner
    | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _ -> ()
  in
  List.iter
    (fun (b : Mir.block) ->
      List.iter (fun (i : Mir.inst) -> Array.iter go i.Mir.n_ops) b.Mir.b_insts)
    fn.Mir.f_blocks

(* The function's pseudos in a table created at size 64 and filled in
   order of first mention. Keep both: its [Hashtbl] iteration order is
   the order of the local-only baseline's spill list, which fixes the
   slot ids, and of the [Lreg] entries of [f_locations], which the
   compilation cache stores *)
let first_mention (fn : Mir.func) =
  let seen : (int, Mir.preg) Hashtbl.t = Hashtbl.create 64 in
  iter_pregs fn (fun p ->
      if not (Hashtbl.mem seen p.Mir.p_id) then Hashtbl.replace seen p.Mir.p_id p);
  seen

(* ------------------------------------------------------------------ *)
(* Interference graph construction                                     *)
(* ------------------------------------------------------------------ *)

(* One round's graph. Nodes are the function's pseudo-registers, numbered
   by rank in p_id order. The per-node arrays live for one round of
   [allocate] only. *)
type graph = {
  pregs : Mir.preg array;  (* node -> pseudo-register *)
  node_of : int array;  (* p_id -> node, or -1 *)
  adj : int array array;  (* node -> interfering nodes, ascending *)
  forbidden : Bitset.t array;  (* node -> interfering hard registers *)
  n_forbidden : int array;
  cost : float array;  (* spill cost *)
  no_spill : bool array;  (* spill-code temporaries must color *)
}

let build_graph (tab : Regtab.t) (fn : Mir.func) is_no_spill =
  let live = Liveness.compute fn in
  let depth = Liveness.loop_depth fn in
  let np = fn.Mir.f_next_preg in
  let first = Array.make np None in
  iter_pregs fn (fun p ->
      if Option.is_none first.(p.Mir.p_id) then first.(p.Mir.p_id) <- Some p);
  let pregs = Array.of_list (List.filter_map Fun.id (Array.to_list first)) in
  let n = Array.length pregs in
  let node_of = Array.make np (-1) in
  Array.iteri (fun u (p : Mir.preg) -> node_of.(p.Mir.p_id) <- u) pregs;
  let edges = Array.init n (fun _ -> Bitset.create n) in
  let degree = Array.make n 0 in
  let forbidden = Array.init n (fun _ -> Bitset.create tab.Regtab.n_hard) in
  let n_forbidden = Array.make n 0 in
  let cost = Array.make n 0.0 in
  let bank_of_node u = tab.Regtab.bank.(pregs.(u).Mir.p_cls) in
  let forbid u h =
    if
      bank_of_node u = tab.Regtab.bank.(tab.Regtab.regs.(h).Model.cls)
      && not (Bitset.mem forbidden.(u) h)
    then begin
      Bitset.set forbidden.(u) h;
      n_forbidden.(u) <- n_forbidden.(u) + 1
    end
  in
  (* keys below [nh] are hard registers, the rest pseudo-registers *)
  let nh = tab.Regtab.n_hard in
  let add_edge a b =
    if a >= nh then begin
      let u = node_of.(a - nh) in
      if b >= nh then begin
        let v = node_of.(b - nh) in
        if
          u <> v
          && bank_of_node u = bank_of_node v
          && not (Bitset.mem edges.(u) v)
        then begin
          Bitset.set edges.(u) v;
          Bitset.set edges.(v) u;
          degree.(u) <- degree.(u) + 1;
          degree.(v) <- degree.(v) + 1
        end
      end
      else forbid u b
    end
    else if b >= nh then forbid node_of.(b - nh) a
  in
  let live_set = Bitset.create (nh + np) in
  let kill = Bitset.unset live_set and gen = Bitset.set live_set in
  (* liveness's effects: the walk without by-name class effects *)
  let defs f l how = if how <> Locs.by_name then f l in
  List.iter
    (fun (b : Mir.block) ->
      let d = try Hashtbl.find depth b.Mir.b_label with Not_found -> 0 in
      let weight = 10.0 ** float_of_int (min d 4) in
      let account l _ =
        if l >= nh then begin
          let u = node_of.(l - nh) in
          cost.(u) <- cost.(u) +. weight
        end
      in
      Bitset.blit ~src:(Liveness.live_out live b.Mir.b_label) ~dst:live_set;
      Liveness.enter live;
      List.iter
        (fun (i : Mir.inst) ->
          (* account spill costs *)
          Locs.iter_writes tab account i;
          Locs.iter_reads tab account i;
          let move_src =
            match move_regs i with
            | Some (_, `Preg p) -> Locs.pseudo tab p
            | Some (_, `Phys r) -> Regtab.id tab r
            | None -> -1
          in
          Locs.iter_writes tab
            (defs (fun d ->
                 Bitset.iter
                   (fun l -> if l <> d && l <> move_src then add_edge d l)
                   live_set;
                 (* simultaneous defs interfere *)
                 Locs.iter_writes tab
                   (defs (fun d2 -> if d2 <> d then add_edge d d2))
                   i))
            i;
          Liveness.step live ~kill ~gen i)
        (List.rev b.Mir.b_insts))
    fn.Mir.f_blocks;
  let adj =
    Array.init n (fun u ->
        let a = Array.make degree.(u) 0 and k = ref 0 in
        Bitset.iter
          (fun v ->
            a.(!k) <- v;
            incr k)
          edges.(u);
        a)
  in
  {
    pregs;
    node_of;
    adj;
    forbidden;
    n_forbidden;
    cost;
    no_spill = Array.map (fun (p : Mir.preg) -> is_no_spill p.Mir.p_id) pregs;
  }

(* ------------------------------------------------------------------ *)
(* Coloring                                                            *)
(* ------------------------------------------------------------------ *)

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

(* Colors every node, or returns the pseudo-registers to spill (newest
   first; their order fixes the slot ids). [color.(u)] receives node
   [u]'s hard register id. *)
let try_color (tab : Regtab.t) max_local g color =
  let colors u = Regtab.colors tab max_local g.pregs.(u).Mir.p_cls in
  let removal =
    simplify ~adj:g.adj
      ~size:(Array.map (fun (p : Mir.preg) -> tab.Regtab.size.(p.Mir.p_cls)) g.pregs)
      ~avail:(Array.init (Array.length g.pregs) (fun u -> Array.length (colors u)))
      ~forbidden:g.n_forbidden ~cost:g.cost ~no_spill:g.no_spill
  in
  (* select phase: the stack pops in reverse removal order. A register
     is taken for [u] when it overlaps a colored neighbour's register or
     a forbidden one: both mark their overlap sets with stamp [u] *)
  let mark = Array.make tab.Regtab.n_hard (-1) in
  let spilled = ref [] in
  for s = Array.length removal - 1 downto 0 do
    let u = removal.(s) in
    let take h = Array.iter (fun r -> mark.(r) <- u) tab.Regtab.overlaps.(h) in
    Array.iter (fun v -> if color.(v) >= 0 then take color.(v)) g.adj.(u);
    Bitset.iter take g.forbidden.(u);
    let cs = colors u in
    let k = ref 0 in
    while !k < Array.length cs && mark.(cs.(!k)) = u do
      incr k
    done;
    if !k < Array.length cs then color.(u) <- cs.(!k)
    else if g.no_spill.(u) then begin
      (* a spill temporary failed to color: its live range is already
         minimal, so relieve the pressure by spilling a neighbouring
         ordinary value instead and let the next round recolor. Among
         equal costs the lowest p_id wins. *)
      let victim = ref (-1) in
      Array.iter
        (fun v ->
          if
            (not g.no_spill.(v))
            && (!victim < 0 || g.cost.(v) < g.cost.(!victim))
          then victim := v)
        g.adj.(u);
      if !victim >= 0 then begin
        if not (List.mem !victim !spilled) then spilled := !victim :: !spilled
      end
      else
        Loc.fail Loc.dummy
          "register allocation: spill temporary %%p%d cannot be colored and \
           has no spillable neighbour"
          g.pregs.(u).Mir.p_id
    end
    else spilled := u :: !spilled
  done;
  List.map (fun u -> g.pregs.(u)) !spilled

(* every interference edge must end up with non-overlapping registers,
   and precolored conflicts must be respected *)
let self_check (tab : Regtab.t) g color =
  (* colors are allocable, so [overlaps.(h)] decides it *)
  let overlap c h =
    Array.exists (fun (o : int) -> o = c) tab.Regtab.overlaps.(h)
  in
  Array.iteri
    (fun u cu ->
      Array.iter
        (fun v ->
          if overlap cu color.(v) then
            Loc.fail Loc.dummy
              "register allocation self-check: %%p%d and %%p%d share \
               overlapping registers"
              g.pregs.(u).Mir.p_id g.pregs.(v).Mir.p_id)
        g.adj.(u);
      Bitset.iter
        (fun h ->
          if overlap cu h then
            Loc.fail Loc.dummy
              "register allocation self-check: %%p%d overlaps a live physical \
               register"
              g.pregs.(u).Mir.p_id)
        g.forbidden.(u))
    color

(* ------------------------------------------------------------------ *)
(* Spill code                                                          *)
(* ------------------------------------------------------------------ *)

let insert_spills (fn : Mir.func) (spills : Mir.preg list) fresh_no_spill =
  let model = fn.Mir.f_model in
  let fp = Mir.Ophys model.Model.cwvm.Model.v_fp in
  (* p_id -> slot and pseudo. Its [Hashtbl.iter] order orders the reloads
     and the fresh temporaries of an instruction that mentions two
     spilled pseudos, so its size and insertion order stay as they are *)
  let slot_of : (int, int * Mir.preg) Hashtbl.t = Hashtbl.create 8 in
  let spilled = Array.make fn.Mir.f_next_preg false in
  List.iter
    (fun (p : Mir.preg) ->
      let c = Model.class_exn model p.Mir.p_cls in
      let id = Mir.new_slot fn ~size:c.Model.c_size ~align:c.Model.c_size in
      Hashtbl.replace slot_of p.Mir.p_id (id, p);
      spilled.(p.Mir.p_id) <- true;
      (* location metadata: the pseudo now lives in this frame slot *)
      fn.Mir.f_locations <- (p.Mir.p_id, Mir.Lslot id) :: fn.Mir.f_locations)
    spills;
  let rec mentions_spilled (o : Mir.operand) =
    match o with
    | Mir.Opreg q -> q.Mir.p_id < Array.length spilled && spilled.(q.Mir.p_id)
    | Mir.Opart (inner, _) -> mentions_spilled inner
    | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _ -> false
  in
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
  (* [prev]: the spilled pseudos the instruction just before only read,
     with their reload temporaries. An instruction that also only reads
     one of them reads the same temporary, with no reload of its own *)
  let rewrite prev (i : Mir.inst) =
    let pre = ref [] and post = ref [] and read_only = ref [] in
    let ops = ref i.Mir.n_ops in
    Hashtbl.iter
      (fun pid (slot, (p : Mir.preg)) ->
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
          let reused = if writes then None else List.assoc_opt pid prev in
          let q =
            match reused with
            | Some q -> q
            | None ->
                let q = Mir.fresh_preg fn p.Mir.p_cls in
                fresh_no_spill q;
                q
          in
          ops := Array.map (replace pid q) !ops;
          if not writes then read_only := (pid, q) :: !read_only;
          if reads && reused = None then begin
            let ld = Frame.find_load_ri model p.Mir.p_cls in
            pre :=
              Frame.load_at fn ld ~dst:(Mir.Opreg q) ~base:fp
                ~off:(Mir.Oslot (slot, 0))
              :: !pre
          end;
          if writes then begin
            let st = Frame.find_store_ri model p.Mir.p_cls in
            post :=
              Frame.store_at fn st ~base:fp ~off:(Mir.Oslot (slot, 0))
                ~value:(Mir.Opreg q)
              :: !post
          end
        end)
      slot_of;
    ( List.rev !pre @ [ { i with Mir.n_ops = !ops } ] @ List.rev !post,
      !read_only )
  in
  List.iter
    (fun (b : Mir.block) ->
      let prev = ref [] in
      b.Mir.b_insts <-
        List.concat_map
          (fun (i : Mir.inst) ->
            if Array.exists mentions_spilled i.Mir.n_ops then begin
              let insts, read_only = rewrite !prev i in
              prev := read_only;
              insts
            end
            else begin
              prev := [];
              [ i ]
            end)
          b.Mir.b_insts)
    fn.Mir.f_blocks

(* ------------------------------------------------------------------ *)
(* Rewriting with assigned colors                                      *)
(* ------------------------------------------------------------------ *)

let rewrite_colors (tab : Regtab.t) (fn : Mir.func) g color =
  let model = fn.Mir.f_model in
  (* location metadata: every surviving pseudo (spill temporaries
     included) now lives in its color *)
  Hashtbl.iter
    (fun pid _ ->
      fn.Mir.f_locations <-
        (pid, Mir.Lreg tab.Regtab.regs.(color.(g.node_of.(pid))))
        :: fn.Mir.f_locations)
    (first_mention fn);
  let rec rw (o : Mir.operand) =
    match o with
    | Mir.Opreg p -> Mir.Ophys tab.Regtab.regs.(color.(g.node_of.(p.Mir.p_id)))
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
          (* written register operands only, each kept as its operand
             names it (a resolved [Opart] is a record of its own, which
             the cache image of the function shares) *)
          List.iter
            (fun pos ->
              match i.Mir.n_ops.(pos) with
              | Mir.Ophys r ->
                  if
                    tab.Regtab.callee_save.(Regtab.id tab r)
                    && (not (special r))
                    && not (List.exists (Model.reg_equal r) !saved)
                  then saved := r :: !saved
              | _ -> ())
            i.Mir.n_op.Model.i_writes)
        b.Mir.b_insts)
    fn.Mir.f_blocks;
  fn.Mir.f_saved <- List.rev !saved

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let allocate ?(forbid_global_pregs = false) ?max_local (fn : Mir.func) : stats =
  let tab = Regtab.get fn.Mir.f_model in
  (* the p_ids of this allocation's spill temporaries *)
  let no_spill : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  let total_spilled = ref 0 in
  fn.Mir.f_locations <- [];
  (* the local-only baseline: force every cross-block pseudo to memory *)
  if forbid_global_pregs then begin
    let globals =
      Hashtbl.fold
        (fun _ (p : Mir.preg) acc -> if p.Mir.p_global then p :: acc else acc)
        (first_mention fn) []
    in
    total_spilled := List.length globals;
    insert_spills fn globals ignore
  end;
  let rec round k =
    if k > 16 then
      Loc.fail Loc.dummy "register allocation did not converge in %s"
        fn.Mir.f_name;
    let g = build_graph tab fn (Hashtbl.mem no_spill) in
    let color = Array.make (Array.length g.pregs) (-1) in
    match try_color tab max_local g color with
    | [] ->
        self_check tab g color;
        rewrite_colors tab fn g color;
        { rounds = k; spilled = !total_spilled }
    | spills ->
        total_spilled := !total_spilled + List.length spills;
        insert_spills fn spills (fun q -> Hashtbl.replace no_spill q.Mir.p_id ());
        round (k + 1)
  in
  round 1
