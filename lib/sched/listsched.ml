type limit = Unlimited | Auto_minus of int | Fixed of int

type priority = Max_dist | Source_order

type options = {
  anti : bool;
  aux : bool;
  reg_limit : limit;
  fill_delay : bool;
  priority : priority;
}

let default_options =
  { anti = true; aux = true; reg_limit = Unlimited; fill_delay = true;
    priority = Max_dist }

let class_cap model limit cls =
  let avail () = List.length (Model.allocable_of_class model cls) in
  match limit with
  | Unlimited -> None
  | Auto_minus k -> Some (max 1 (avail () - k))
  | Fixed n -> Some (max 1 (min n (avail ())))

(* a nop carries no semantics and no operands; pre-existing nops (from an
   earlier scheduling pass) are dropped and re-inserted *)
let is_nop (i : Mir.inst) =
  match i.Mir.n_op.Model.i_sem with
  | [] | [ Ast.Snop ] -> Array.length i.Mir.n_ops = 0
  | _ -> false

type result = { order : Mir.inst list; length : int }

(* A block made ready for the cycle loop: nops dropped, the DAG and its
   priorities built, and every node's preg operands resolved to dense
   block-local ids. Nothing here depends on the register limit or on
   delay filling, so [run] can replay it under any number of limits. *)
type prepared = {
  dag : Dag.t;
  prio : int array;
  reads : int array array;  (* per node: local ids read, operand order *)
  writes : int array array;  (* per node: local ids written *)
  cls : int array;  (* local id -> register class *)
  uses : int array;  (* local id -> reads of it in the whole block *)
  term : bool array;  (* the node is the block terminator *)
  temporal : (int * int * int) list;  (* Temporal edges: clock, src, dst *)
}

(* only the block terminator must issue last; calls are ordinary nodes
   held in place by barrier edges *)
let is_term (op : Model.instr) = op.Model.i_branch && not op.Model.i_call

let prepare ~options ?oracle (fn : Mir.func) (insts : Mir.inst list) =
  let model = fn.Mir.f_model in
  match List.filter (fun i -> not (is_nop i)) insts with
  | [] -> None
  | insts ->
      let dag =
        Dag.build ~anti:options.anti ~aux:options.aux ?oracle model insts
      in
      let n = Array.length dag.Dag.insts in
      let prio =
        match options.priority with
        | Max_dist -> Dag.max_dist_to_leaf dag
        | Source_order ->
            (* ablation: prefer earlier source position instead of the
               critical path *)
            Array.init n (fun i -> n - i)
      in
      let local : (int, int) Hashtbl.t = Hashtbl.create 32 in
      let cls = ref [] in
      let local_ids which (i : Mir.inst) =
        List.filter_map
          (fun pos ->
            match Mir.operand_reg i.Mir.n_ops.(pos) with
            | Some (`Preg p) ->
                Some
                  (match Hashtbl.find_opt local p.Mir.p_id with
                  | Some l -> l
                  | None ->
                      let l = Hashtbl.length local in
                      Hashtbl.add local p.Mir.p_id l;
                      cls := p.Mir.p_cls :: !cls;
                      l)
            | Some (`Phys _) | None -> None)
          which
        |> Array.of_list
      in
      let reads, writes =
        Array.split
          (Array.map
             (fun (i : Mir.inst) ->
               let r = local_ids i.Mir.n_op.Model.i_reads i in
               (r, local_ids i.Mir.n_op.Model.i_writes i))
             dag.Dag.insts)
      in
      let uses = Array.make (Hashtbl.length local) 0 in
      Array.iter (Array.iter (fun l -> uses.(l) <- uses.(l) + 1)) reads;
      Some
        {
          dag;
          prio;
          reads;
          writes;
          cls = Array.of_list (List.rev !cls);
          uses;
          term = Array.map (fun i -> is_term i.Mir.n_op) dag.Dag.insts;
          temporal =
            List.filter_map
              (fun (e : Dag.edge) ->
                match e.Dag.e_kind with
                | Dag.Temporal k -> Some (k, e.Dag.e_src, e.Dag.e_dst)
                | Dag.True | Dag.Mem | Dag.Anti -> None)
              dag.Dag.edges;
        }

(* The cycle loop over a prepared block, on [busy] cleared first. Also
   returns whether the register limit ever bound: whether the unrelaxed
   pressure test rejected a candidate that passed every other test (see
   [sweep]). *)
let run ~options ~busy (fn : Mir.func) (p : prepared) =
  let model = fn.Mir.f_model in
  let dag = p.dag in
  let n = Array.length dag.Dag.insts in
  let prio = p.prio in
  let cycle_of = Array.make n (-1) in
  let scheduled = Array.make n false in
  Scoreboard.reset busy;
  let order = ref [] in
  let remaining = ref n in
  let cycle = ref 0 in
  (* class-packing state for the current cycle *)
  let cur_class : Bitset.t option ref = ref None in
  (* IPS pressure state: remaining reads per preg, live count per class *)
  let reads_left = Array.copy p.uses in
  let live = Array.make (Array.length p.uses) false in
  let nclasses = Array.length model.Model.classes in
  let live_count = Array.make nclasses 0 in
  let cap =
    Array.init nclasses (fun c ->
        Option.value ~default:max_int (class_cap model options.reg_limit c))
  in
  (* scratch per-class change in live values if a candidate issues now;
     left all-zero between probes *)
  let delta = Array.make nclasses 0 in
  let bump l d =
    let c = p.cls.(l) in
    delta.(c) <- delta.(c) + d
  in
  let fits l =
    let c = p.cls.(l) in
    delta.(c) <= 0 || live_count.(c) + delta.(c) <= cap.(c)
  in
  let pressure_fits i =
    let reads = p.reads.(i) and writes = p.writes.(i) in
    Array.iter (fun l -> if reads_left.(l) = 1 && live.(l) then bump l (-1)) reads;
    Array.iter (fun l -> if not live.(l) then bump l 1) writes;
    let ok = Array.for_all fits reads && Array.for_all fits writes in
    Array.iter (fun l -> delta.(p.cls.(l)) <- 0) reads;
    Array.iter (fun l -> delta.(p.cls.(l)) <- 0) writes;
    ok
  in
  let apply_pressure i =
    Array.iter
      (fun l ->
        let k = reads_left.(l) - 1 in
        reads_left.(l) <- k;
        if k = 0 && live.(l) then begin
          live.(l) <- false;
          live_count.(p.cls.(l)) <- live_count.(p.cls.(l)) - 1
        end)
      p.reads.(i);
    Array.iter
      (fun l ->
        if reads_left.(l) > 0 && not live.(l) then begin
          live.(l) <- true;
          live_count.(p.cls.(l)) <- live_count.(p.cls.(l)) + 1
        end)
      p.writes.(i)
  in
  (* Rule 1 (paper 4.6): while a temporal edge on clock k is open
     (source scheduled, destination not), other instructions affecting
     k may not issue before the pending destinations *)
  let pending_clocks () =
    List.filter_map
      (fun (k, src, dst) ->
        if scheduled.(src) && not scheduled.(dst) then Some (k, dst) else None)
      p.temporal
  in
  let nonbranch_left =
    ref (Array.fold_left (fun acc t -> if t then acc else acc + 1) 0 p.term)
  in
  let data_ready i =
    List.for_all
      (fun (q, label, _) -> scheduled.(q) && cycle_of.(q) + label <= !cycle)
      dag.Dag.preds.(i)
  in
  let resources_free i =
    not (Scoreboard.conflict busy ~cycle:!cycle dag.Dag.insts.(i).Mir.n_op)
  in
  let class_ok i =
    match (dag.Dag.insts.(i).Mir.n_op.Model.i_class, !cur_class) with
    | None, _ -> true
    | Some _, None -> true
    | Some k, Some cur -> not (Bitset.inter_empty cur k)
  in
  let temporal_ok i =
    match dag.Dag.insts.(i).Mir.n_op.Model.i_affects with
    | None -> true
    | Some _ as affects ->
        Temporal.rule1_ok ~affects ~pending:(pending_clocks ()) ~self:i
  in
  let bound = ref false in
  let pressure_ok relaxed i =
    match options.reg_limit with
    | Unlimited -> true
    | Auto_minus _ | Fixed _ ->
        relaxed
        || pressure_fits i
        || begin
             bound := true;
             false
           end
  in
  let branch_ok i = (not p.term.(i)) || !nonbranch_left = 0 in
  let candidate relaxed i =
    (not scheduled.(i))
    && data_ready i
    && resources_free i
    && class_ok i
    && temporal_ok i
    && branch_ok i
    && pressure_ok relaxed i
  in
  let pick relaxed =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if candidate relaxed i then
        if !best < 0 || prio.(i) > prio.(!best) then best := i
    done;
    if !best >= 0 then Some !best else None
  in
  let guard = ref 0 in
  while !remaining > 0 do
    incr guard;
    if !guard > (n * 400) + 4000 then
      Loc.fail Loc.dummy "list scheduler is stuck (block of %d instructions)" n;
    let choice =
      match pick false with
      | Some i -> Some i
      | None ->
          (* the register-pressure limit never deadlocks the scheduler:
             if nothing fits under the limit but something is ready,
             relax (Goodman-Hsu) *)
          if options.reg_limit <> Unlimited then pick true else None
    in
    match choice with
    | Some i ->
        scheduled.(i) <- true;
        cycle_of.(i) <- !cycle;
        decr remaining;
        if not p.term.(i) then decr nonbranch_left;
        order := i :: !order;
        let inst = dag.Dag.insts.(i) in
        Scoreboard.reserve busy ~cycle:!cycle inst.Mir.n_op;
        (match inst.Mir.n_op.Model.i_class with
        | Some k -> (
            match !cur_class with
            | None -> cur_class := Some (Bitset.copy k)
            | Some cur -> Bitset.inter_into ~dst:cur k)
        | None -> ());
        apply_pressure i
    | None ->
        incr cycle;
        cur_class := None
  done;
  let issue_order = List.rev !order in
  let max_cycle =
    List.fold_left (fun acc i -> max acc cycle_of.(i)) 0 issue_order
  in
  (* delay slots are filled with nops (paper 4.4) *)
  let final_insts = List.map (fun i -> dag.Dag.insts.(i)) issue_order in
  let r =
    if options.fill_delay then begin
      let filled, added = Delay.fill fn final_insts in
      { order = filled; length = max_cycle + 1 + added }
    end
    else { order = final_insts; length = max_cycle + 1 }
  in
  (r, !bound)

let schedule_block ?(options = default_options) ?oracle ?sb_stats
    (fn : Mir.func) (insts : Mir.inst list) : result =
  match prepare ~options ?oracle fn insts with
  | None -> { order = []; length = 0 }
  | Some p ->
      let busy = Scoreboard.create ?stats:sb_stats fn.Mir.f_model in
      fst (run ~options ~busy fn p)

(* The RASE budget sweep: one prepared block, then the cycle loop once
   per budget n = 1, 2, ... until the limit stops binding.

   Saturation is exact. If the unrelaxed pressure test never rejected a
   candidate at budget n, every [pick false] chose what it would have
   chosen with no limit, and [pick true] ran only when nothing passed
   the other tests, so it chose nothing: the run is the [Unlimited] run.
   A class's cap is monotone in n, so at every budget m > n each
   candidate the test accepted at n is accepted again in the same state:
   by induction the m-run makes the same choices and has the same
   length. The sweep fills m > n with that length without running the
   scheduler. *)
let sweep ?sb_stats ~budgets (fn : Mir.func) (insts : Mir.inst list) =
  let options = { default_options with fill_delay = false } in
  let lengths = Array.make budgets 0 in
  (match prepare ~options fn insts with
  | None -> ()
  | Some p ->
      let busy = Scoreboard.create ?stats:sb_stats fn.Mir.f_model in
      let rec go n =
        if n <= budgets then begin
          let r, bound =
            run ~options:{ options with reg_limit = Fixed n } ~busy fn p
          in
          if bound then begin
            lengths.(n - 1) <- r.length;
            go (n + 1)
          end
          else Array.fill lengths (n - 1) (budgets - n + 1) r.length
        end
      in
      go 1);
  lengths

let schedule_func ?options ?oracle ?sb_stats (fn : Mir.func) =
  List.map
    (fun (b : Mir.block) ->
      let r = schedule_block ?options ?oracle ?sb_stats fn b.Mir.b_insts in
      b.Mir.b_insts <- r.order;
      (b.Mir.b_label, r.length))
    fn.Mir.f_blocks

let estimate_func ?options ?oracle ?sb_stats (fn : Mir.func) =
  List.map
    (fun (b : Mir.block) ->
      let r = schedule_block ?options ?oracle ?sb_stats fn b.Mir.b_insts in
      (b.Mir.b_label, r.length))
    fn.Mir.f_blocks
