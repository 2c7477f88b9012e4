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

(* allocable registers per class, counted once per model *)
let allocable_counts =
  Model.memo (fun model ->
      Array.init (Array.length model.Model.classes) (fun c ->
          List.length (Model.allocable_of_class model c)))

let class_cap limit avail =
  match limit with
  | Unlimited -> max_int
  | Auto_minus k -> max 1 (avail - k)
  | Fixed n -> max 1 (min n avail)

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
      (* the block's pseudo-registers, as the effect walk keys them, to
         dense local ids; a location read twice is listed twice *)
      let tab = Regtab.get model in
      let local : (int, int) Hashtbl.t = Hashtbl.create 32 in
      let cls = ref [] in
      let local_ids walk (i : Mir.inst) =
        let ids = ref [] in
        walk tab
          (fun l _ ->
            if l >= tab.Regtab.n_hard then
              ids :=
                (match Hashtbl.find_opt local l with
                | Some id -> id
                | None ->
                    let id = Hashtbl.length local in
                    Hashtbl.add local l id;
                    let p = Option.get (Locs.preg_of tab i l) in
                    cls := p.Mir.p_cls :: !cls;
                    id)
                :: !ids)
          i;
        Array.of_list (List.rev !ids)
      in
      let reads, writes =
        Array.split
          (Array.map
             (fun (i : Mir.inst) ->
               let r = local_ids Locs.iter_reads i in
               (r, local_ids Locs.iter_writes i))
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
   [sweep]).

   The loop is event driven. A node joins the ready list when its last
   predecessor issues, with [earliest] the first cycle its operands are
   ready, so a step tests only ready nodes; and a step that issues
   nothing jumps to the next cycle at which some node can (see
   [sweep]). *)
let run ~options ~busy (fn : Mir.func) (p : prepared) =
  let model = fn.Mir.f_model in
  let dag = p.dag in
  let n = Array.length dag.Dag.insts in
  let prio = p.prio in
  Scoreboard.reset busy;
  (* the ready list, unordered: unscheduled nodes whose predecessors have
     all issued; [earliest.(i)] is the latest [cycle + label] over i's
     issued predecessors *)
  let preds_left = Array.map List.length dag.Dag.preds in
  let earliest = Array.make n 0 in
  let ready = Array.make n 0 and nready = ref 0 in
  let push i =
    ready.(!nready) <- i;
    incr nready
  in
  Array.iteri (fun i k -> if k = 0 then push i) preds_left;
  let rec release cycle = function
    | [] -> ()
    | (d, label, _) :: tl ->
        earliest.(d) <- max earliest.(d) (cycle + label);
        preds_left.(d) <- preds_left.(d) - 1;
        if preds_left.(d) = 0 then push d;
        release cycle tl
  in
  let order = ref [] in
  let remaining = ref n in
  let cycle = ref 0 and last_issue = ref 0 in
  (* IPS pressure state: remaining reads per preg, live count per class *)
  let limited = options.reg_limit <> Unlimited in
  let reads_left = Array.copy p.uses in
  let live = Array.make (Array.length p.uses) false in
  let nclasses = Array.length model.Model.classes in
  let live_count = Array.make nclasses 0 in
  let cap = Array.map (class_cap options.reg_limit) (allocable_counts model) in
  (* scratch per-class change in live values if a candidate issues now;
     left all-zero between probes *)
  let delta = Array.make nclasses 0 in
  let rec fit (ls : int array) k =
    k = Array.length ls
    ||
    let c = p.cls.(ls.(k)) in
    (delta.(c) <= 0 || live_count.(c) + delta.(c) <= cap.(c))
    && fit ls (k + 1)
  in
  let pressure_fits i =
    let reads = p.reads.(i) and writes = p.writes.(i) in
    for k = 0 to Array.length reads - 1 do
      let l = reads.(k) in
      if reads_left.(l) = 1 && live.(l) then
        delta.(p.cls.(l)) <- delta.(p.cls.(l)) - 1
    done;
    for k = 0 to Array.length writes - 1 do
      let l = writes.(k) in
      if not live.(l) then delta.(p.cls.(l)) <- delta.(p.cls.(l)) + 1
    done;
    let ok = fit reads 0 && fit writes 0 in
    for k = 0 to Array.length reads - 1 do
      delta.(p.cls.(reads.(k))) <- 0
    done;
    for k = 0 to Array.length writes - 1 do
      delta.(p.cls.(writes.(k))) <- 0
    done;
    ok
  in
  let apply_pressure i =
    let reads = p.reads.(i) and writes = p.writes.(i) in
    for k = 0 to Array.length reads - 1 do
      let l = reads.(k) in
      let left = reads_left.(l) - 1 in
      reads_left.(l) <- left;
      if left = 0 && live.(l) then begin
        live.(l) <- false;
        live_count.(p.cls.(l)) <- live_count.(p.cls.(l)) - 1
      end
    done;
    for k = 0 to Array.length writes - 1 do
      let l = writes.(k) in
      if reads_left.(l) > 0 && not live.(l) then begin
        live.(l) <- true;
        live_count.(p.cls.(l)) <- live_count.(p.cls.(l)) + 1
      end
    done
  in
  (* Rule 1 (paper 4.6): while a temporal edge on clock k is open
     (source scheduled, destination not), other instructions affecting
     k may not issue before the pending destinations. The open edges,
     as (clock, destination), change only when a node issues. *)
  let pending = ref [] in
  let update_pending i =
    if p.temporal <> [] then
      pending :=
        List.filter_map
          (fun (k, src, dst) -> if src = i then Some (k, dst) else None)
          p.temporal
        @ List.filter (fun (_, dst) -> dst <> i) !pending
  in
  let nonbranch_left =
    ref (Array.fold_left (fun acc t -> if t then acc else acc + 1) 0 p.term)
  in
  let temporal_ok i =
    match dag.Dag.insts.(i).Mir.n_op.Model.i_affects with
    | None -> true
    | Some _ as affects ->
        !pending = [] || Temporal.rule1_ok ~affects ~pending:!pending ~self:i
  in
  let branch_ok i = (not p.term.(i)) || !nonbranch_left = 0 in
  (* every test but the pressure test, the scoreboard (packing class,
     then the costly resource probe) last *)
  let issuable i =
    earliest.(i) <= !cycle
    && branch_ok i
    && temporal_ok i
    && not (Scoreboard.conflict busy ~cycle:!cycle dag.Dag.insts.(i).Mir.n_op)
  in
  let bound = ref false in
  (* does ready position [k] beat ready position [b]: the higher
     priority, then the lower node index, so that the choice does not
     depend on the order of the ready list *)
  let better k b =
    b < 0
    ||
    let i = ready.(k) and j = ready.(b) in
    prio.(i) > prio.(j) || (prio.(i) = prio.(j) && i < j)
  in
  (* One scan of the ready list: the ready position of the best node that
     passes every test, else of the best that fails only the pressure
     test (the limit never deadlocks the scheduler: when nothing fits
     under it but something could issue, relax, as Goodman and Hsu do),
     else -1. A node failing only the pressure test means the limit
     bound. *)
  let pick () =
    let best = ref (-1) and relaxed = ref (-1) in
    for k = 0 to !nready - 1 do
      let i = ready.(k) in
      if issuable i then
        if (not limited) || pressure_fits i then begin
          if better k !best then best := k
        end
        else begin
          bound := true;
          if better k !relaxed then relaxed := k
        end
    done;
    if !best >= 0 then !best else !relaxed
  in
  (* the first cycle after this one at which some ready node passes every
     test but the pressure test, or just the next cycle if none can *)
  let next_cycle () =
    let next = ref max_int in
    for k = 0 to !nready - 1 do
      let i = ready.(k) in
      if branch_ok i && temporal_ok i then
        next :=
          min !next
            (Scoreboard.first_free busy
               ~cycle:(max (!cycle + 1) earliest.(i))
               dag.Dag.insts.(i).Mir.n_op)
    done;
    if !next = max_int then !cycle + 1 else !next
  in
  let guard = ref 0 in
  while !remaining > 0 do
    incr guard;
    if !guard > (n * 400) + 4000 then
      Loc.fail Loc.dummy "list scheduler is stuck (block of %d instructions)" n;
    let k = pick () in
    if k >= 0 then begin
      let i = ready.(k) in
      decr nready;
      ready.(k) <- ready.(!nready);
      last_issue := !cycle;
      decr remaining;
      if not p.term.(i) then decr nonbranch_left;
      order := i :: !order;
      Scoreboard.reserve busy ~cycle:!cycle dag.Dag.insts.(i).Mir.n_op;
      if limited then apply_pressure i;
      update_pending i;
      release !cycle dag.Dag.succs.(i)
    end
    else cycle := next_cycle ()
  done;
  let issue_order = List.rev !order in
  (* delay slots are filled with nops (paper 4.4) *)
  let final_insts = List.map (fun i -> dag.Dag.insts.(i)) issue_order in
  let r =
    if options.fill_delay then begin
      let filled, added = Delay.fill fn final_insts in
      { order = filled; length = !last_issue + 1 + added }
    end
    else { order = final_insts; length = !last_issue + 1 }
  in
  (r, !bound)

let schedule_on ~options ?oracle ~busy fn insts =
  match prepare ~options ?oracle fn insts with
  | None -> { order = []; length = 0 }
  | Some p -> fst (run ~options ~busy fn p)

let schedule_block ?(options = default_options) ?oracle ?sb_stats
    (fn : Mir.func) (insts : Mir.inst list) : result =
  schedule_on ~options ?oracle
    ~busy:(Scoreboard.create ?stats:sb_stats fn.Mir.f_model)
    fn insts

(* The RASE budget sweep: one prepared block, then the cycle loop once
   per budget n = 1, 2, ... until the limit stops binding.

   Saturation is exact. If the pressure test never rejected a candidate
   at budget n, every [pick] chose the best node that passed the other
   tests, as with no limit, and never fell back to a relaxed choice: the
   run is the [Unlimited] run.
   A class's cap is monotone in n, so at every budget m > n each
   candidate the test accepted at n is accepted again in the same state:
   by induction the m-run makes the same choices, so it has the same
   issue order and length. The sweep fills m > n with that schedule
   without running the scheduler, and RASE's prepass writes back the
   order of the budget it chose instead of scheduling again.

   The cycle jump in [run] is exact too, and leaves [bound] as stepping
   one cycle at a time would. A step issues nothing only when no ready
   node passed the tests other than the pressure test. Until a
   node issues, the ready list, [earliest], Rule 1's open edges and the
   count of unissued non-branches stay as they are, so [temporal_ok]
   and [branch_ok] keep their answers, and every packing class is open
   at a fresh cycle. A ready node first passes the rest at the first
   cycle from [max (cycle + 1) earliest] where [Scoreboard.first_free]
   finds its resources free; the loop jumps to the least such cycle. The
   cycles it skips would have issued nothing, and since no node reached
   the pressure test in them they would not have set [bound]. *)
let sweep ?sb_stats ~budgets (fn : Mir.func) (insts : Mir.inst list) =
  let options = { default_options with fill_delay = false } in
  let results = Array.make budgets { order = []; length = 0 } in
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
            results.(n - 1) <- r;
            go (n + 1)
          end
          else Array.fill results (n - 1) (budgets - n + 1) r
        end
      in
      go 1);
  results

(* one scoreboard per function: [run] resets it for every block *)
let each_block ~write ?(options = default_options) ?oracle ?sb_stats
    (fn : Mir.func) =
  let busy = Scoreboard.create ?stats:sb_stats fn.Mir.f_model in
  List.map
    (fun (b : Mir.block) ->
      let r = schedule_on ~options ?oracle ~busy fn b.Mir.b_insts in
      if write then b.Mir.b_insts <- r.order;
      (b.Mir.b_label, r.length))
    fn.Mir.f_blocks

let schedule_func = each_block ~write:true

let estimate_func = each_block ~write:false
