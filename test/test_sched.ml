(* Scheduler tests: code DAG construction (edge types, %aux overrides),
   list scheduling legality, delay slots, multi-issue, temporal rules. *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let instr m name = List.hd (Model.instrs_by_name m name)

let reg m set i =
  let c = Option.get (Model.find_class m set) in
  Mir.Ophys { Model.cls = c.Model.c_id; idx = i }

(* TOYP straight-line block:  r2 = r3+r4 ; r5 = ld m[r2+0] ; st r5 -> m[r3+4] *)
let sample_block m fn =
  [
    Mir.mk_inst fn (instr m "add") [| reg m "r" 2; reg m "r" 3; reg m "r" 4 |];
    Mir.mk_inst fn (instr m "ld") [| reg m "r" 5; reg m "r" 2; Mir.Oimm 0 |];
    Mir.mk_inst fn (instr m "st") [| reg m "r" 5; reg m "r" 3; Mir.Oimm 4 |];
  ]

let test_true_edges_carry_latency () =
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "t" in
  let dag = Dag.build m (sample_block m fn) in
  (* add -> ld via r2: label 1 (add's latency); ld -> st via r5: label 3 *)
  let edge src dst =
    List.find_opt
      (fun (e : Dag.edge) -> e.Dag.e_src = src && e.Dag.e_dst = dst)
      dag.Dag.edges
  in
  (match edge 0 1 with
  | Some e ->
      check Alcotest.int "add->ld label" 1 e.Dag.e_label;
      check Alcotest.bool "true dep" true (e.Dag.e_kind = Dag.True)
  | None -> Alcotest.fail "missing add->ld edge");
  match edge 1 2 with
  | Some e -> check Alcotest.int "ld->st label (load latency)" 3 e.Dag.e_label
  | None -> Alcotest.fail "missing ld->st edge"

let test_memory_edges () =
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "t" in
  let insts =
    [
      Mir.mk_inst fn (instr m "st") [| reg m "r" 2; reg m "r" 3; Mir.Oimm 0 |];
      Mir.mk_inst fn (instr m "ld") [| reg m "r" 4; reg m "r" 5; Mir.Oimm 8 |];
      Mir.mk_inst fn (instr m "st") [| reg m "r" 4; reg m "r" 3; Mir.Oimm 4 |];
    ]
  in
  let dag = Dag.build m insts in
  let kinds src dst =
    List.filter_map
      (fun (e : Dag.edge) ->
        if e.Dag.e_src = src && e.Dag.e_dst = dst then Some e.Dag.e_kind
        else None)
      dag.Dag.edges
  in
  check Alcotest.bool "store->load ordered" true (List.mem Dag.Mem (kinds 0 1));
  (* the second store is ordered behind the first transitively, through
     the intervening load (0 -> 1 -> 2, here a true dependence since the
     store reads the loaded value): the direct store->store edge is
     redundant and the builder no longer emits it *)
  check Alcotest.bool "load->store ordered" true (kinds 1 2 <> []);
  check Alcotest.bool "store->store direct edge elided" false
    (List.mem Dag.Mem (kinds 0 2))

let test_anti_edges_optional () =
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "t" in
  (* read r2 then redefine r2: an anti dependence *)
  let insts =
    [
      Mir.mk_inst fn (instr m "add") [| reg m "r" 3; reg m "r" 2; reg m "r" 4 |];
      Mir.mk_inst fn (instr m "add") [| reg m "r" 2; reg m "r" 5; reg m "r" 5 |];
    ]
  in
  let with_anti = Dag.build ~anti:true m insts in
  let without = Dag.build ~anti:false m insts in
  let count dag =
    List.length
      (List.filter (fun (e : Dag.edge) -> e.Dag.e_kind = Dag.Anti) dag.Dag.edges)
  in
  check Alcotest.bool "anti edge present" true (count with_anti >= 1);
  check Alcotest.int "strategy may drop type-3 edges" 0 (count without)

let test_aux_latency_override () =
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "t" in
  (* fadd.d d1, d2, d3 then st.d d1 -> memory: %aux raises latency 6 -> 7 *)
  let insts =
    [
      Mir.mk_inst fn (instr m "fadd.d") [| reg m "d" 1; reg m "d" 2; reg m "d" 3 |];
      Mir.mk_inst fn (instr m "st.d") [| reg m "d" 1; reg m "r" 3; Mir.Oimm 0 |];
    ]
  in
  let dag = Dag.build m insts in
  (match
     List.find_opt
       (fun (e : Dag.edge) -> e.Dag.e_src = 0 && e.Dag.e_dst = 1)
       dag.Dag.edges
   with
  | Some e -> check Alcotest.int "aux latency 7" 7 e.Dag.e_label
  | None -> Alcotest.fail "missing edge");
  (* a consumer the %aux does not name keeps the normal 6-cycle latency *)
  let insts2 =
    [
      Mir.mk_inst fn (instr m "fadd.d") [| reg m "d" 1; reg m "d" 2; reg m "d" 3 |];
      Mir.mk_inst fn (instr m "fadd.d") [| reg m "d" 2; reg m "d" 1; reg m "d" 3 |];
    ]
  in
  let dag2 = Dag.build m insts2 in
  match
    List.find_opt
      (fun (e : Dag.edge) -> e.Dag.e_src = 0 && e.Dag.e_dst = 1)
      dag2.Dag.edges
  with
  | Some e -> check Alcotest.int "normal latency elsewhere" 6 e.Dag.e_label
  | None -> Alcotest.fail "missing true edge"

let test_priority_function () =
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "t" in
  let dag = Dag.build m (sample_block m fn) in
  let dist = Dag.max_dist_to_leaf dag in
  (* add is farthest from the leaf: 1 (to ld) + 3 (to st) = 4 *)
  check Alcotest.int "critical path from add" 4 dist.(0);
  check Alcotest.int "from ld" 3 dist.(1);
  check Alcotest.int "leaf" 0 dist.(2)

let test_schedule_topological () =
  (* any legal schedule must keep every DAG edge source before its sink *)
  let m = Lazy.force toyp in
  let prog =
    Select.select_prog m
      (Cgen.compile ~file:"<t.c>"
         {|double v[16];
           int main(void) {
             int i; double s = 0.0;
             for (i = 0; i < 16; i++) s = s + v[i] * 2.0;
             return (int)s;
           }|})
  in
  let fn = List.hd prog.Mir.p_funcs in
  List.iter (fun f -> ignore (Regalloc.allocate f)) prog.Mir.p_funcs;
  List.iter
    (fun (b : Mir.block) ->
      let before = b.Mir.b_insts in
      let dag = Dag.build m before in
      let r = Listsched.schedule_block fn before in
      let pos = Hashtbl.create 16 in
      List.iteri
        (fun k (i : Mir.inst) -> Hashtbl.replace pos i.Mir.n_id k)
        r.Listsched.order;
      List.iter
        (fun (e : Dag.edge) ->
          let src = dag.Dag.insts.(e.Dag.e_src).Mir.n_id in
          let dst = dag.Dag.insts.(e.Dag.e_dst).Mir.n_id in
          match (Hashtbl.find_opt pos src, Hashtbl.find_opt pos dst) with
          | Some ps, Some pd ->
              if ps >= pd then
                Alcotest.failf "edge %d->%d violated in schedule" src dst
          | _ -> Alcotest.fail "instruction lost by the scheduler")
        dag.Dag.edges)
    fn.Mir.f_blocks

let test_branch_scheduled_last () =
  let m = Lazy.force toyp in
  let prog =
    Select.select_prog m
      (Cgen.compile ~file:"<t.c>"
         "int main(void) { int i; int s=0; for(i=0;i<4;i++) s+=i; return s; }")
  in
  let fn = List.hd prog.Mir.p_funcs in
  List.iter (fun f -> ignore (Regalloc.allocate f)) prog.Mir.p_funcs;
  ignore (Listsched.schedule_func fn);
  List.iter
    (fun (b : Mir.block) ->
      let rec scan seen_branch = function
        | [] -> ()
        | (i : Mir.inst) :: tl ->
            let op = i.Mir.n_op in
            let is_nop = op.Model.i_name = "nop" in
            if seen_branch && (not is_nop) then
              Alcotest.failf "non-nop after branch in %s" b.Mir.b_label;
            scan
              (seen_branch || (op.Model.i_branch && not op.Model.i_call))
              tl
      in
      scan false b.Mir.b_insts)
    fn.Mir.f_blocks

let test_delay_slots_filled () =
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "t" in
  let insts =
    [
      Mir.mk_inst fn (instr m "add") [| reg m "r" 2; reg m "r" 3; reg m "r" 4 |];
      Mir.mk_inst fn (instr m "beq0") [| reg m "r" 2; Mir.Olab "L" |];
    ]
  in
  let r = Listsched.schedule_block fn insts in
  let names = List.map (fun (i : Mir.inst) -> i.Mir.n_op.Model.i_name) r.Listsched.order in
  check (Alcotest.list Alcotest.string) "nop fills the delay slot"
    [ "add"; "beq0"; "nop" ] names

let test_scheduling_improves_toyp_fp () =
  (* an fadd chain and independent integer work: the integer instructions
     must hide inside the 6-cycle fadd latency. The registers are chosen
     so the halves do not alias: d2/d3 overlay r4-r7, the adds use r1-r3 *)
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "t" in
  let block =
    [
      Mir.mk_inst fn (instr m "fadd.d") [| reg m "d" 2; reg m "d" 3; reg m "d" 3 |];
      Mir.mk_inst fn (instr m "fadd.d") [| reg m "d" 2; reg m "d" 2; reg m "d" 3 |];
      Mir.mk_inst fn (instr m "add") [| reg m "r" 2; reg m "r" 1; reg m "r" 3 |];
      Mir.mk_inst fn (instr m "add") [| reg m "r" 3; reg m "r" 2; reg m "r" 1 |];
      Mir.mk_inst fn (instr m "st") [| reg m "r" 3; reg m "r" 1; Mir.Oimm 0 |];
    ]
  in
  let r = Listsched.schedule_block fn block in
  check Alcotest.bool "latency hidden" true (r.Listsched.length <= 10);
  let first = List.hd r.Listsched.order in
  check Alcotest.string "critical path first" "fadd.d" first.Mir.n_op.Model.i_name;
  (* sanity against register-pair aliasing surprises: when the integer work
     reads halves of the doubles, dependences force serialization *)
  let aliased =
    [
      Mir.mk_inst fn (instr m "fadd.d") [| reg m "d" 1; reg m "d" 2; reg m "d" 2 |];
      Mir.mk_inst fn (instr m "add") [| reg m "r" 6; reg m "r" 3; reg m "r" 6 |];
      (* r3 is half of d1 *)
    ]
  in
  let r2 = Listsched.schedule_block fn aliased in
  check Alcotest.bool "aliased read waits for the pair" true
    (r2.Listsched.length >= 7)

let test_ips_register_limit () =
  (* with a register budget of 1 the scheduler must serialise value chains;
     with no budget it overlaps them: the limited schedule is never shorter *)
  let m = Lazy.force toyp in
  let prog =
    Select.select_prog m
      (Cgen.compile ~file:"<t.c>"
         {|int main(void) {
             int a=1; int b=2; int c=3; int d=4;
             return (a+b) + (c+d);
           }|})
  in
  let fn = List.hd prog.Mir.p_funcs in
  let block = List.hd fn.Mir.f_blocks in
  let free = Listsched.schedule_block fn block.Mir.b_insts in
  let limited =
    Listsched.schedule_block
      ~options:
        { Listsched.default_options with Listsched.reg_limit = Listsched.Fixed 1 }
      fn block.Mir.b_insts
  in
  check Alcotest.bool "limit never shortens the schedule" true
    (limited.Listsched.length >= free.Listsched.length)

let test_i860_packing () =
  (* two independent multiply launches cannot share a cycle (same M1
     stage); a multiply and an add launch can (classes meet in m12apm) *)
  let m = I860.load () in
  let fn = Mir.new_func m "t" in
  let ma1 = instr m "MA1" and aa1 = instr m "AA1" in
  let d i = reg m "d" i in
  let two_mults =
    Listsched.schedule_block fn
      [ Mir.mk_inst fn ma1 [| d 2; d 3 |]; Mir.mk_inst fn ma1 [| d 4; d 5 |] ]
  in
  check Alcotest.int "two multiplies need two cycles" 2 two_mults.Listsched.length;
  let mult_add =
    Listsched.schedule_block fn
      [ Mir.mk_inst fn ma1 [| d 2; d 3 |]; Mir.mk_inst fn aa1 [| d 4; d 5 |] ]
  in
  check Alcotest.int "multiply + add pack into one cycle" 1
    mult_add.Listsched.length

let test_rule1_blocks_relaunch () =
  (* after MA1 (a) opens the multiply pipe toward MA2 (a), a second MA1 (b)
     may not issue before MA2 (a) (Rule 1); the scheduler orders them *)
  let m = I860.load () in
  let fn = Mir.new_func m "t" in
  let d i = reg m "d" i in
  let ma1 = instr m "MA1" and ma2 = instr m "MA2" in
  let a1 = Mir.mk_inst fn ma1 [| d 2; d 3 |] in
  let adv = Mir.mk_inst fn ma2 [||] in
  let b1 = Mir.mk_inst fn ma1 [| d 4; d 5 |] in
  let r = Listsched.schedule_block fn [ a1; adv; b1 ] in
  let pos id =
    let rec go k = function
      | [] -> -1
      | (i : Mir.inst) :: tl -> if i.Mir.n_id = id then k else go (k + 1) tl
    in
    go 0 r.Listsched.order
  in
  check Alcotest.bool "second launch not before the advance" true
    (pos b1.Mir.n_id > pos adv.Mir.n_id
    || pos b1.Mir.n_id > pos a1.Mir.n_id && pos adv.Mir.n_id > pos a1.Mir.n_id)

let test_ghfill_fills_and_stays_correct () =
  (* the optional Gross-Hennessy pass replaces delay-slot nops with real
     instructions without changing behaviour *)
  let m = Lazy.force toyp in
  let src =
    {|int main(void) {
        int i; int s = 0; int t = 1;
        for (i = 0; i < 20; i++) { s = s + i; t = t * 2; t = t % 97; }
        return s + t;
      }|}
  in
  let oracle = Cinterp.run_source ~file:"<g.c>" src in
  let compiled = Marion.compile m Strategy.Postpass ~file:"<g.c>" src in
  let filled =
    List.fold_left
      (fun acc fn -> acc + Ghfill.fill_func fn)
      0 compiled.Marion.prog.Mir.p_funcs
  in
  check Alcotest.bool "some slots filled" true (filled > 0);
  let r = Marion.run compiled in
  check Alcotest.int "behaviour preserved" oracle.Cinterp.return_value
    r.Sim.return_value

let test_ghfill_reduces_cycles () =
  let m = Lazy.force toyp in
  let src = Livermore.source ~iter:1 12 in
  let base = Marion.compile m Strategy.Postpass ~file:"<k12>" src in
  let base_cycles = (Marion.run base).Sim.cycles in
  let gh = Marion.compile m Strategy.Postpass ~file:"<k12>" src in
  ignore
    (List.fold_left (fun acc fn -> acc + Ghfill.fill_func fn) 0
       gh.Marion.prog.Mir.p_funcs);
  let oracle = Cinterp.run_source ~file:"<k12>" src in
  let r = Marion.run gh in
  check Alcotest.string "output preserved" oracle.Cinterp.output r.Sim.output;
  check Alcotest.bool "cycles do not regress" true (r.Sim.cycles <= base_cycles)

let test_priority_ablation_sound () =
  (* source-order priority is a different heuristic, never an incorrect
     one *)
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "t" in
  let block =
    [
      Mir.mk_inst fn (instr m "fadd.d") [| reg m "d" 1; reg m "d" 2; reg m "d" 3 |];
      Mir.mk_inst fn (instr m "add") [| reg m "r" 2; reg m "r" 3; reg m "r" 4 |];
      Mir.mk_inst fn (instr m "st") [| reg m "r" 2; reg m "r" 3; Mir.Oimm 0 |];
    ]
  in
  let r =
    Listsched.schedule_block
      ~options:
        { Listsched.default_options with Listsched.priority = Listsched.Source_order }
      fn block
  in
  check Alcotest.int "all instructions present" 3
    (List.length
       (List.filter
          (fun (i : Mir.inst) -> i.Mir.n_op.Model.i_name <> "nop")
          r.Listsched.order))

(* The RASE sweep against the per-budget scheduler it replaces, on every
   block of every selected function of Livermore 1-14 and the program
   suite on all four targets: exhaustive, not sampled. *)
let test_sweep_matches_per_budget () =
  let no_delay =
    { Listsched.default_options with Listsched.fill_delay = false }
  in
  let saturated_early = ref false and bound_late = ref false in
  List.iter
    (fun (tname, load) ->
      let model = load () in
      let budgets = Strategy.max_budget model in
      List.iter
        (fun (file, src) ->
          match
            let ir = Cgen.compile ~file src in
            List.iter (Glue.transform_func model) ir.Ir.funcs;
            List.map (Select.select_func model) ir.Ir.funcs
          with
          | exception (Select.No_pattern _ | Loc.Error _) -> ()
          | fns ->
              List.iter
                (fun (fn : Mir.func) ->
                  List.iter
                    (fun (b : Mir.block) ->
                      let insts = b.Mir.b_insts in
                      let sweep_sb = Scoreboard.make_stats () in
                      let got =
                        Listsched.sweep ~sb_stats:sweep_sb ~budgets fn insts
                      in
                      let ref_sb = Scoreboard.make_stats () in
                      let want =
                        Array.init budgets (fun k ->
                            let options =
                              {
                                no_delay with
                                Listsched.reg_limit = Listsched.Fixed (k + 1);
                              }
                            in
                            (Listsched.schedule_block ~options ~sb_stats:ref_sb
                               fn insts)
                              .Listsched.length)
                      in
                      check
                        Alcotest.(array int)
                        (Printf.sprintf "%s %s %s" tname fn.Mir.f_name
                           b.Mir.b_label)
                        want got;
                      (* fewer probes than the reference: some budget was
                         proven equal instead of scheduled *)
                      if
                        tname = "r2000"
                        && sweep_sb.Scoreboard.probes
                           < ref_sb.Scoreboard.probes
                      then saturated_early := true;
                      (* a length other than the unlimited one: the limit
                         still binds at that budget *)
                      let free =
                        (Listsched.schedule_block ~options:no_delay fn insts)
                          .Listsched.length
                      in
                      Array.iteri
                        (fun k len ->
                          if k + 1 >= 2 && len <> free then bound_late := true)
                        got)
                    fn.Mir.f_blocks)
                fns)
        (Livermore.sources () @ Suite.programs))
    [
      ("toyp", Toyp.load);
      ("r2000", R2000.load);
      ("m88000", M88000.load);
      ("i860", I860.load);
    ];
  check Alcotest.bool "some r2000 block saturates below its last budget" true
    !saturated_early;
  check Alcotest.bool "some block is still bound at a budget >= 2" true
    !bound_late

let suite =
  [
    Alcotest.test_case "true edges carry latency" `Quick test_true_edges_carry_latency;
    Alcotest.test_case "memory ordering edges" `Quick test_memory_edges;
    Alcotest.test_case "anti edges are strategy-controlled" `Quick
      test_anti_edges_optional;
    Alcotest.test_case "%aux latency override" `Quick test_aux_latency_override;
    Alcotest.test_case "max-distance priority" `Quick test_priority_function;
    Alcotest.test_case "schedules are topological" `Quick test_schedule_topological;
    Alcotest.test_case "terminator scheduled last" `Quick test_branch_scheduled_last;
    Alcotest.test_case "delay slots filled with nops" `Quick test_delay_slots_filled;
    Alcotest.test_case "latency hiding on TOYP" `Quick test_scheduling_improves_toyp_fp;
    Alcotest.test_case "IPS register limit" `Quick test_ips_register_limit;
    Alcotest.test_case "i860 class packing" `Quick test_i860_packing;
    Alcotest.test_case "Rule 1 ordering" `Quick test_rule1_blocks_relaunch;
    Alcotest.test_case "Gross-Hennessy filling preserves behaviour" `Quick
      test_ghfill_fills_and_stays_correct;
    Alcotest.test_case "Gross-Hennessy filling helps" `Quick
      test_ghfill_reduces_cycles;
    Alcotest.test_case "priority ablation is sound" `Quick
      test_priority_ablation_sound;
    Alcotest.test_case "sweep == per-budget reference" `Quick
      test_sweep_matches_per_budget;
  ]
