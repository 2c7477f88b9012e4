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

let targets =
  [
    ("toyp", Toyp.load);
    ("r2000", R2000.load);
    ("m88000", M88000.load);
    ("i860", I860.load);
  ]

(* Livermore 1-14 and the program suite, the suite's entries prefixed so
   its lfk1/5/7 copies keep names of their own *)
let corpus () =
  Livermore.sources ()
  @ List.map (fun (name, src) -> ("suite:" ^ name, src)) Suite.programs

(* every selected function of a source, unallocated; [None] where the
   front end or selection rejects it *)
let selected model (file, src) =
  match
    let ir = Cgen.compile ~file src in
    List.iter (Glue.transform_func model) ir.Ir.funcs;
    List.map (Select.select_func model) ir.Ir.funcs
  with
  | exception (Select.No_pattern _ | Loc.Error _) -> None
  | fns -> Some fns

(* The RASE sweep against the per-budget scheduler it replaces, on every
   block of every selected function of Livermore 1-14 and the program
   suite on all four targets: exhaustive, not sampled. Each budget's
   issue order must match as well as its length, since RASE's prepass
   writes back the sweep's order at the budget it chose. *)
let ids (r : Listsched.result) =
  List.map (fun (i : Mir.inst) -> i.Mir.n_id) r.Listsched.order

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
        (fun source ->
          match selected model source with
          | None -> ()
          | Some fns ->
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
                            Listsched.schedule_block ~options ~sb_stats:ref_sb
                              fn insts)
                      in
                      let where =
                        Printf.sprintf "%s %s %s" tname fn.Mir.f_name
                          b.Mir.b_label
                      in
                      let length (r : Listsched.result) = r.Listsched.length in
                      check
                        Alcotest.(array int)
                        (where ^ " lengths") (Array.map length want)
                        (Array.map length got);
                      check
                        Alcotest.(array (list int))
                        (where ^ " issue orders") (Array.map ids want)
                        (Array.map ids got);
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
                        (fun k (r : Listsched.result) ->
                          if k + 1 >= 2 && r.Listsched.length <> free then
                            bound_late := true)
                        got)
                    fn.Mir.f_blocks)
                fns)
        (corpus ()))
    targets;
  check Alcotest.bool "some r2000 block saturates below its last budget" true
    !saturated_early;
  check Alcotest.bool "some block is still bound at a budget >= 2" true
    !bound_late

(* Dag.build allocates in proportion to its block, not to the block's
   square: a straight-line block of N statements [x_k = a[k] + b] and
   one of 2N. Every statement reads the same base pseudos, whose reader
   lists grow with the block; a builder that rescans or copies them per
   instruction allocates nearly four times as much for 2N. Counted in
   minor words, which are deterministic for a given build, after a first
   build has filled the per-model tables. *)
let test_dag_build_linear () =
  let m = R2000.load () in
  let block n =
    let stmts =
      String.concat "\n"
        (List.init n (fun k -> Printf.sprintf "x%d = a[%d] + b;" k k))
    in
    let decls =
      String.concat " " (List.init n (fun k -> Printf.sprintf "int x%d;" k))
    in
    let src =
      Printf.sprintf "int a[%d]; int b;\nint main(void) { %s\n%s\nreturn 0; }"
        n decls stmts
    in
    let prog = Select.select_prog m (Cgen.compile ~file:"<lin.c>" src) in
    let fn = List.hd prog.Mir.p_funcs in
    List.fold_left
      (fun acc (b : Mir.block) ->
        if List.length b.Mir.b_insts > List.length acc then b.Mir.b_insts
        else acc)
      [] fn.Mir.f_blocks
  in
  let words insts =
    ignore (Dag.build m insts);
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Dag.build m insts));
    Gc.minor_words () -. w0
  in
  let small = block 60 and large = block 120 in
  check Alcotest.bool "the larger block is about twice as long" true
    (10 * List.length large >= 19 * List.length small);
  let ws = words small and wl = words large in
  if wl > 2.5 *. ws then
    Alcotest.failf
      "Dag.build: %.0f minor words for %d instructions, %.0f for %d" ws
      (List.length small) wl (List.length large)

(* The per-model register tables behind Dag.build grow with the register
   file, not with its square: on an R2000 variant with 2N double
   registers (over 4N singles, %equiv pairs throughout), building the
   {!Regtab} tables, and the first build of a DAG, which also builds the
   latency tables, each allocate at most 2.5 times as much as with N. *)
let test_dag_tables_linear () =
  let replace ~sub ~by s =
    let n = String.length sub in
    let rec at i = if String.sub s i n = sub then i else at (i + 1) in
    let i = at 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  let words n =
    let desc =
      R2000.description
      |> replace ~sub:"%reg f[0:31] (float);"
           ~by:(Printf.sprintf "%%reg f[0:%d] (float);" ((2 * n) - 1))
      |> replace ~sub:"%reg d[0:15] (double);"
           ~by:(Printf.sprintf "%%reg d[0:%d] (double);" (n - 1))
    in
    let m = Builder.load ~name:"r2000" ~file:"<wide r2000>" desc in
    let fn = Mir.new_func m "t" in
    let add =
      Mir.mk_inst fn (instr m "add.d")
        [| reg m "d" 1; reg m "d" 2; reg m "d" 3 |]
    in
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Regtab.get m));
    let w1 = Gc.minor_words () in
    ignore (Sys.opaque_identity (Dag.build m [ add ]));
    (w1 -. w0, Gc.minor_words () -. w0)
  in
  let ts, ds = words 512 and tl, dl = words 1024 in
  if tl > 2.5 *. ts then
    Alcotest.failf "Regtab.get: %.0f minor words for 512 doubles, %.0f for 1024"
      ts tl;
  if dl > 2.5 *. ds then
    Alcotest.failf
      "first Dag.build: %.0f minor words for 512 doubles, %.0f for 1024" ds dl

(* RASE's prepass writes back the sweep's schedules instead of
   scheduling again: after [rase-sweep] and [rase-prepass], every block
   must hold [Listsched.schedule_func]'s order at the budget RASE
   chooses, the smallest with the least total cost of the per-budget
   reference schedules. Livermore 1-14 on all four targets. *)
let test_prepass_writes_sweep_schedules () =
  let passes =
    List.filter
      (fun (p : Pass.t) ->
        p.Pass.name = "rase-sweep" || p.Pass.name = "rase-prepass")
      (Strategy.pipeline Strategy.Rase)
  in
  check Alcotest.int "sweep and prepass" 2 (List.length passes);
  let no_delay =
    { Listsched.default_options with Listsched.fill_delay = false }
  in
  let block_ids (fn : Mir.func) =
    List.map
      (fun (b : Mir.block) ->
        List.map (fun (i : Mir.inst) -> i.Mir.n_id) b.Mir.b_insts)
      fn.Mir.f_blocks
  in
  List.iter
    (fun (tname, load) ->
      let model = load () in
      let budgets = Strategy.max_budget model in
      List.iter
        (fun ((file, _) as source) ->
          match selected model source with
          | None -> ()
          | Some fns ->
              List.iter
                (fun (fn : Mir.func) ->
                  let reference = Transval.capture fn in
                  let options k =
                    { no_delay with Listsched.reg_limit = Listsched.Fixed k }
                  in
                  let cost k =
                    List.fold_left
                      (fun acc (b : Mir.block) ->
                        acc
                        + (Listsched.schedule_block ~options:(options k)
                             reference b.Mir.b_insts)
                            .Listsched.length)
                      0 reference.Mir.f_blocks
                  in
                  let best = ref 1 in
                  for k = 2 to budgets do
                    if cost k < cost !best then best := k
                  done;
                  ignore
                    (Listsched.schedule_func ~options:(options !best)
                       reference);
                  ignore (Pass.run_pipeline passes fn);
                  check
                    Alcotest.(list (list int))
                    (Printf.sprintf "%s %s %s at budget %d" tname file
                       fn.Mir.f_name !best)
                    (block_ids reference) (block_ids fn))
                fns)
        (Livermore.sources ()))
    targets

(* Scheduler contract: one digest per (target, source) over Livermore
   1-14 and the program suite. Each covers, for every selected block,
   the issue order (instruction ids and opcode names) and length of
   [schedule_block] under every register limit the strategies use
   (unlimited, the IPS [Auto_minus 1] and each RASE budget), with delay
   filling on and off, under the priority, anti-edge and %aux
   ablations, plus the block's [sweep] lengths. The digests were
   captured from the scheduler that scanned every node on every cycle,
   before the cycle loop became event driven, and must never be
   regenerated to absorb a difference. *)
let contract_blob model source =
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf buf fmt in
  (match selected model source with
  | None -> add "no-select\n"
  | Some fns ->
      let budgets = Strategy.max_budget model in
      let d = Listsched.default_options in
      let settings =
        List.concat_map
          (fun reg_limit ->
            List.map
              (fun fill_delay -> { d with Listsched.reg_limit; fill_delay })
              [ true; false ])
          (Listsched.Unlimited :: Listsched.Auto_minus 1
          :: List.init budgets (fun k -> Listsched.Fixed (k + 1)))
        @ [
            { d with Listsched.priority = Listsched.Source_order };
            { d with Listsched.anti = false };
            { d with Listsched.aux = false };
          ]
      in
      List.iter
        (fun (fn : Mir.func) ->
          List.iter
            (fun (b : Mir.block) ->
              add "== %s %s\n" fn.Mir.f_name b.Mir.b_label;
              List.iter
                (fun options ->
                  let r = Listsched.schedule_block ~options fn b.Mir.b_insts in
                  add "%d:" r.Listsched.length;
                  List.iter
                    (fun (i : Mir.inst) ->
                      add " %d.%s" i.Mir.n_id i.Mir.n_op.Model.i_name)
                    r.Listsched.order;
                  add "\n")
                settings;
              add "sweep:";
              Array.iter
                (fun (r : Listsched.result) -> add " %d" r.Listsched.length)
                (Listsched.sweep ~budgets fn b.Mir.b_insts);
              add "\n")
            fn.Mir.f_blocks)
        fns);
  Buffer.contents buf

let contract_goldens =
  [
    (("toyp", "lfk1"), "16107fa329186472fcd247ccc28889c3");
    (("toyp", "lfk2"), "8dd1a1b1d9651219d8638e0b61a685a5");
    (("toyp", "lfk3"), "8b11e56c67c03d643195daa0fc518e43");
    (("toyp", "lfk4"), "639606b6dfcc10630de0d3ace9bbaee4");
    (("toyp", "lfk5"), "b54cdfc4b0c53fd7b635c31b0219f213");
    (("toyp", "lfk6"), "c960ec18d12c382c0fcc8e06581d747d");
    (("toyp", "lfk7"), "a3f488871f9922bfbfcffb7bb61871c3");
    (("toyp", "lfk8"), "851dd96872521ba30b43821d1570e3e0");
    (("toyp", "lfk9"), "d71e77bcab6370248ddb973a985f1057");
    (("toyp", "lfk10"), "f89621a17f25d2979c226f2abb572d59");
    (("toyp", "lfk11"), "d2937c24850cbaa7a48eb1f56c21c531");
    (("toyp", "lfk12"), "3e61b95e5108542fa8faa8473a60ae89");
    (("toyp", "lfk13"), "0d0d0bf42ea88fc39cb091a827fb63d8");
    (("toyp", "lfk14"), "54ce715ac2e599910125026f1a11d901");
    (("toyp", "suite:matmul"), "ff5e3f964f697ca4737c4f8d60eac4e7");
    (("toyp", "suite:sieve"), "e5a18a069fdd3d1bb3c61f115076e9a8");
    (("toyp", "suite:sort"), "e44db3a8a92d96cd185468cd5d9ca770");
    (("toyp", "suite:strings"), "c262d205f1def8e5e7dd540aa5be1e27");
    (("toyp", "suite:recursion"), "f1bb56f7c66b6c92d9c56f68cc4476b2");
    (("toyp", "suite:poly"), "171f6213d96f911d5af2796954333881");
    (("toyp", "suite:lfk1"), "16107fa329186472fcd247ccc28889c3");
    (("toyp", "suite:lfk5"), "b54cdfc4b0c53fd7b635c31b0219f213");
    (("toyp", "suite:lfk7"), "a3f488871f9922bfbfcffb7bb61871c3");
    (("r2000", "lfk1"), "304a1711479d4a78d05276859a9611aa");
    (("r2000", "lfk2"), "d2d1d82ef618681fe43d314a3ccb0372");
    (("r2000", "lfk3"), "33a02e5de78dbf9655e1238f8b5e6ec0");
    (("r2000", "lfk4"), "652e4d72d4161a041d8310253cad1c50");
    (("r2000", "lfk5"), "5af9d9d5088de718f9ce8673ed8ad22e");
    (("r2000", "lfk6"), "299a4a364b60415b02becc33ba70ad6c");
    (("r2000", "lfk7"), "a768b560f96bc45e397cda0ca2b541ef");
    (("r2000", "lfk8"), "970b78e466becdfb2e7c168da4f6465b");
    (("r2000", "lfk9"), "a7855af2d7224f519980f5e583d5ef5d");
    (("r2000", "lfk10"), "ee1b6481a62826cbe3a2e3fcadb4fc8d");
    (("r2000", "lfk11"), "46aad789af71b3bba60f1f360d77aa08");
    (("r2000", "lfk12"), "c1d5a5ff47ed906f2739265f56779e8a");
    (("r2000", "lfk13"), "448bc8e35d3179cf5160562dcbce70d8");
    (("r2000", "lfk14"), "f56d571e2099e1df3d97b6677bf53813");
    (("r2000", "suite:matmul"), "79ae55d994507072c70ffadbd400869a");
    (("r2000", "suite:sieve"), "1d5e0f9276fa47338a8231ed10a8bac5");
    (("r2000", "suite:sort"), "305217564e3235c23b5d13c9280dca5d");
    (("r2000", "suite:strings"), "788fb14bac01ea1b645364f92bf49080");
    (("r2000", "suite:recursion"), "0e02654531964972d734ecb6e869154a");
    (("r2000", "suite:poly"), "dd680ac26262d83845cac880e75810a1");
    (("r2000", "suite:lfk1"), "304a1711479d4a78d05276859a9611aa");
    (("r2000", "suite:lfk5"), "5af9d9d5088de718f9ce8673ed8ad22e");
    (("r2000", "suite:lfk7"), "a768b560f96bc45e397cda0ca2b541ef");
    (("m88000", "lfk1"), "e38ee3ec3499711e68ff37ad9c8ce918");
    (("m88000", "lfk2"), "9885bea501acb6c44846b7ced5008c6c");
    (("m88000", "lfk3"), "d620b05147a45a4cf91a30cf793fd903");
    (("m88000", "lfk4"), "27ede30aadb16204540b4c35d25691c6");
    (("m88000", "lfk5"), "4bc4cc5242230f5c466caf625dadc9f3");
    (("m88000", "lfk6"), "b6bf7d763a117b08c7fb8fbb0f304641");
    (("m88000", "lfk7"), "b4a0d0ea4fe3cf18cb45b811cd2747f6");
    (("m88000", "lfk8"), "183b8ec57d646b6656ab942cde6ad0ea");
    (("m88000", "lfk9"), "3e1abb5885779c131b161bae841dfa58");
    (("m88000", "lfk10"), "9f9c8276509bc880892b7490f972a875");
    (("m88000", "lfk11"), "bf731cab7bd1101678423e6e6d8762c8");
    (("m88000", "lfk12"), "59e94a48d3916bb66b64d6a7eb122f31");
    (("m88000", "lfk13"), "8f8851738ecaa8306910e03f952d5b87");
    (("m88000", "lfk14"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "suite:matmul"), "f7f54ecb57e9d33e00884741699f8e47");
    (("m88000", "suite:sieve"), "1f39dcc6a773a42c4e28bbc21bc7b06f");
    (("m88000", "suite:sort"), "66f6eb9a30516b5c873ebdc5d24cc64c");
    (("m88000", "suite:strings"), "5efa4fcb962565e835a500462088668c");
    (("m88000", "suite:recursion"), "ea50a367615b7c65c19cc1aea289197a");
    (("m88000", "suite:poly"), "942a5f2ca651a507c5002a08e8b30716");
    (("m88000", "suite:lfk1"), "e38ee3ec3499711e68ff37ad9c8ce918");
    (("m88000", "suite:lfk5"), "4bc4cc5242230f5c466caf625dadc9f3");
    (("m88000", "suite:lfk7"), "b4a0d0ea4fe3cf18cb45b811cd2747f6");
    (("i860", "lfk1"), "acda4019654e939d50e46f115dbaac2c");
    (("i860", "lfk2"), "51cef6f10a3fd8358e95d19ce3ab876e");
    (("i860", "lfk3"), "0b67baac5a8a6efaf37987397d5810b6");
    (("i860", "lfk4"), "666e7cf75b43e50ecea19d12ec8b0465");
    (("i860", "lfk5"), "edb06640039b64ce60640de6cb262291");
    (("i860", "lfk6"), "ef895e52077f314f1304aa272f258a31");
    (("i860", "lfk7"), "90093619f7351fe7080f97ba6f557f38");
    (("i860", "lfk8"), "0fb7d6a7370b370b46a496ebe39cdd40");
    (("i860", "lfk9"), "1713e58d628dff4e2528159876aacf56");
    (("i860", "lfk10"), "c15c0b2aa20b60ee3bc9eff090c0cf71");
    (("i860", "lfk11"), "fbc708f3562ad74c09dbb99e30ee8beb");
    (("i860", "lfk12"), "f60819a6af426a26adeb243718d7117d");
    (("i860", "lfk13"), "090af9be14566aa6226e9487a4220341");
    (("i860", "lfk14"), "399d691ea5f98491034b4fffdb1c07b1");
    (("i860", "suite:matmul"), "227c1154b169a30c3fbe0c94972a86e9");
    (("i860", "suite:sieve"), "1d99636cbb606dca70759dcdfc2dc21f");
    (("i860", "suite:sort"), "52d065b17f2ba0d96594f19cafb04617");
    (("i860", "suite:strings"), "63c64d81a7e2b7b8299c7f4b9e479009");
    (("i860", "suite:recursion"), "eae5207b65e3ce55b303b912fea0b563");
    (("i860", "suite:poly"), "d00670d611746fdaec045cad654cee55");
    (("i860", "suite:lfk1"), "acda4019654e939d50e46f115dbaac2c");
    (("i860", "suite:lfk5"), "edb06640039b64ce60640de6cb262291");
    (("i860", "suite:lfk7"), "90093619f7351fe7080f97ba6f557f38");
  ]

let test_sched_contract () =
  List.iter
    (fun (tname, load) ->
      let model = load () in
      List.iter
        (fun ((file, _) as source) ->
          let got =
            Digest.to_hex (Digest.string (contract_blob model source))
          in
          check Alcotest.string
            (Printf.sprintf "%s %s contract digest" tname file)
            (List.assoc (tname, file) contract_goldens)
            got)
        (corpus ()))
    targets

(* DAG contract: one digest per (target, source) over Livermore 1-14 and
   the program suite, plus the i860 Figure 6 block below. Each covers,
   for every block of every selected function, the sorted
   (src, dst, label, kind) edge set of [Dag.build] with the block's nops
   dropped (as the scheduler builds it): conservative, with the
   [Disambig] oracle (and the oracle's query and prune counts), without
   anti edges and without %aux; then the same four builds of every block
   after [Regalloc.allocate], where hard registers and their %equiv
   pairs meet. The digests were captured from the builder that rescanned
   association lists of every live reader and writer for each
   instruction, and must never be regenerated to absorb a difference. *)
let dag_kind = function
  | Dag.True -> "T"
  | Dag.Mem -> "M"
  | Dag.Anti -> "A"
  | Dag.Temporal k -> Printf.sprintf "C%d" k

(* [edges] holds each (src, dst) pair once, and [succs.(s)] and
   [preds.(d)] hold exactly the edges of [edges] out of [s] and into [d];
   [Dag.t] promises no list order, so all three are compared as sets *)
let check_dag_lists (dag : Dag.t) =
  let pairs =
    List.map (fun (e : Dag.edge) -> (e.Dag.e_src, e.Dag.e_dst)) dag.Dag.edges
  in
  if List.length (List.sort_uniq compare pairs) <> List.length pairs then
    Alcotest.fail "edges: a (src, dst) pair appears twice";
  let along keep =
    List.sort compare
      (List.filter_map
         (fun (e : Dag.edge) ->
           Option.map (fun x -> (x, e.Dag.e_label, e.Dag.e_kind)) (keep e))
         dag.Dag.edges)
  in
  Array.iteri
    (fun i succs ->
      let out (e : Dag.edge) =
        if e.Dag.e_src = i then Some e.Dag.e_dst else None
      in
      let into (e : Dag.edge) =
        if e.Dag.e_dst = i then Some e.Dag.e_src else None
      in
      if
        List.sort compare succs <> along out
        || List.sort compare dag.Dag.preds.(i) <> along into
      then Alcotest.failf "node %d: succs/preds disagree with edges" i)
    dag.Dag.succs

let add_dag_builds buf model o insts =
  let insts = List.filter (fun i -> not (Listsched.is_nop i)) insts in
  List.iter
    (fun (tag, dag) ->
      check_dag_lists dag;
      Printf.bprintf buf "%s:" tag;
      List.iter
        (fun (e : Dag.edge) ->
          Printf.bprintf buf " %d-%d/%d%s" e.Dag.e_src e.Dag.e_dst
            e.Dag.e_label (dag_kind e.Dag.e_kind))
        (List.sort compare dag.Dag.edges);
      Buffer.add_char buf '\n')
    [
      ("cons", Dag.build model insts);
      ("oracle", Dag.build ~oracle:o model insts);
      ("noanti", Dag.build ~anti:false model insts);
      ("noaux", Dag.build ~aux:false model insts);
    ];
  Printf.bprintf buf "queries %d pruned %d\n" o.Dag.o_queries o.Dag.o_pruned

let dag_blob model source =
  let buf = Buffer.create (1 lsl 16) in
  let blocks (fn : Mir.func) =
    let d = Disambig.compute fn in
    List.iter
      (fun (b : Mir.block) ->
        Printf.bprintf buf "== %s %s\n" fn.Mir.f_name b.Mir.b_label;
        add_dag_builds buf model (Dag.oracle (Disambig.may_alias d))
          b.Mir.b_insts)
      fn.Mir.f_blocks
  in
  (match selected model source with
  | None -> Buffer.add_string buf "no-select\n"
  | Some fns ->
      List.iter
        (fun (fn : Mir.func) ->
          blocks fn;
          match Regalloc.allocate fn with
          | exception Loc.Error _ ->
              Printf.bprintf buf "no-alloc %s\n" fn.Mir.f_name
          | _ ->
              Buffer.add_string buf "allocated\n";
              blocks fn)
        fns);
  Buffer.contents buf

(* The corpus never needs temporal protection (paper 4.6), so the
   contract adds a block of Figure 6's shape on the i860. MWB catches a
   latch launched in an earlier block, so it sits in no sequence of this
   one, yet it advances the multiplier clock and feeds CHA, a non-head
   member of the sequence MA1 -> MA2 -> MA3 -> CHA: protection must
   order MWB before the head MA1. *)
let figure6_block m fn =
  let d i = reg m "d" i in
  [
    Mir.mk_inst fn (instr m "MA1") [| d 2; d 3 |];
    Mir.mk_inst fn (instr m "MWB") [| d 8 |];
    Mir.mk_inst fn (instr m "MA2") [||];
    Mir.mk_inst fn (instr m "MA3") [||];
    Mir.mk_inst fn (instr m "CHA") [| d 8 |];
  ]

let test_figure6_protection () =
  let m = I860.load () in
  let dag = Dag.build m (figure6_block m (Mir.new_func m "t")) in
  check Alcotest.bool "MWB -> MA1 protection edge" true
    (List.exists
       (fun (e : Dag.edge) ->
         e.Dag.e_src = 1 && e.Dag.e_dst = 0 && e.Dag.e_kind = Dag.Anti)
       dag.Dag.edges)

let figure6_blob () =
  let m = I860.load () in
  let buf = Buffer.create 1024 in
  add_dag_builds buf m
    (Dag.oracle (fun _ _ -> true))
    (figure6_block m (Mir.new_func m "t"));
  Buffer.contents buf

let dag_goldens =
  [
    (("toyp", "lfk1"), "05aceb16802864d0670ccb068f016761");
    (("toyp", "lfk2"), "7808e0ad4ec47a669bd909421b8306f3");
    (("toyp", "lfk3"), "bbc19932500ab2da9c330608ceb1a272");
    (("toyp", "lfk4"), "99c6ea608dc3110ca19d34064321bffb");
    (("toyp", "lfk5"), "c007b75f0aeccd6ad762b0e44b83ebd7");
    (("toyp", "lfk6"), "1ac0894c7996f36e9da3cafcfa7ef23a");
    (("toyp", "lfk7"), "896cfcdf13d2904bdf03ae0ef7db86bb");
    (("toyp", "lfk8"), "916d983e43535faa906e9abb699b45c4");
    (("toyp", "lfk9"), "832d903f67a207b371a7abcf5a8e93a4");
    (("toyp", "lfk10"), "d45cd9d89811f0636c844a5d88e458d5");
    (("toyp", "lfk11"), "5622b16689da87c957e9af7ad62ce0d2");
    (("toyp", "lfk12"), "a25c6ff7f2546cab239d8a3267be95e3");
    (("toyp", "lfk13"), "16799b92a54d3c4d684ef86846d97859");
    (("toyp", "lfk14"), "aefc5d4bec64a40f91bee07ce529a62a");
    (("toyp", "suite:matmul"), "53a94ee1acc53beb93c4d4856fc4d674");
    (("toyp", "suite:sieve"), "f54f77b55aec720ceff0c2948ba189a9");
    (("toyp", "suite:sort"), "114ed78343a30b3ed62ab83461f1b654");
    (("toyp", "suite:strings"), "212a57f07521f5e9c883b5edb8bf3eaf");
    (("toyp", "suite:recursion"), "a525b187eb5f332a56f4a68ce858ddf6");
    (("toyp", "suite:poly"), "e9b41aa351ea697f3a877fc9f23cb3d5");
    (("toyp", "suite:lfk1"), "05aceb16802864d0670ccb068f016761");
    (("toyp", "suite:lfk5"), "c007b75f0aeccd6ad762b0e44b83ebd7");
    (("toyp", "suite:lfk7"), "896cfcdf13d2904bdf03ae0ef7db86bb");
    (("r2000", "lfk1"), "9d945a6ed40e58d568529e2ce14979d6");
    (("r2000", "lfk2"), "6b3f7309e7ffabefa550096212c8978b");
    (("r2000", "lfk3"), "8ec9b659c37ebce847caf0c6a50a3819");
    (("r2000", "lfk4"), "28b3377725ab013921bf101916098c45");
    (("r2000", "lfk5"), "c228ff982f445e545247994e81e76ca2");
    (("r2000", "lfk6"), "b39b94e283c4e6e5b40ef663f91357cf");
    (("r2000", "lfk7"), "7708b217ee845497a20e0abc45fdb0d2");
    (("r2000", "lfk8"), "41359ba57d75fe5d2fcca94c824b795c");
    (("r2000", "lfk9"), "de513dceab438546875269bf521b8946");
    (("r2000", "lfk10"), "4fbf0f6acfd798fb05259f3183ac4c51");
    (("r2000", "lfk11"), "c3151b312811719c2a85e2cdb4622a08");
    (("r2000", "lfk12"), "7d0fe19f0ab936fbdfee4136af13a428");
    (("r2000", "lfk13"), "e0e14c3a814a1004df8e4a7322c4af7b");
    (("r2000", "lfk14"), "a2b5c439b47d62041115664cb0c0a4bb");
    (("r2000", "suite:matmul"), "064b3377d6af0d36b036a742701ba3da");
    (("r2000", "suite:sieve"), "4b90e1e2e1bc151722338539204cfa48");
    (("r2000", "suite:sort"), "51eb9e3e6cf0a372738703494df312fc");
    (("r2000", "suite:strings"), "a44e898d8d46881f661c91e61cf25a2c");
    (("r2000", "suite:recursion"), "984fa9961556d80d300dec23a0cd7304");
    (("r2000", "suite:poly"), "3b740eb3129331c7da2d7b508c13313e");
    (("r2000", "suite:lfk1"), "9d945a6ed40e58d568529e2ce14979d6");
    (("r2000", "suite:lfk5"), "c228ff982f445e545247994e81e76ca2");
    (("r2000", "suite:lfk7"), "7708b217ee845497a20e0abc45fdb0d2");
    (("m88000", "lfk1"), "d8f8eca62709912efcf6d89a49693663");
    (("m88000", "lfk2"), "9247c3513d9a1e18b954a93fdc29fe10");
    (("m88000", "lfk3"), "a1f9c2851e50a19201735e51637a64df");
    (("m88000", "lfk4"), "c3c2acb02004b4f2524b6ede39fcbe7c");
    (("m88000", "lfk5"), "1c0355c1e7f4aaad660bfcfc6cc9ae25");
    (("m88000", "lfk6"), "a1372f0ec688817d134f97b7ec733595");
    (("m88000", "lfk7"), "4f93ac49f52b6120222af4c4bb28dfcd");
    (("m88000", "lfk8"), "775244afd1a142b5d869fda89fb47490");
    (("m88000", "lfk9"), "85065ab6b0c11dd35aff7bcf7f69e123");
    (("m88000", "lfk10"), "62c61391b5a48e5b6efbdd7467592795");
    (("m88000", "lfk11"), "c735ad501ce50ef9dbb14458162badb6");
    (("m88000", "lfk12"), "3227de61fe094c006b376a86eae828fd");
    (("m88000", "lfk13"), "6cbae5b757889edd1d0843ced4188c02");
    (("m88000", "lfk14"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "suite:matmul"), "8b344a5f249e8d2c978ee7204ce7b91e");
    (("m88000", "suite:sieve"), "eaff76b19c6160de50a585f77a07db63");
    (("m88000", "suite:sort"), "ee299ad3ee486c581b37f961577321a9");
    (("m88000", "suite:strings"), "c0c39933da2dc7c36438c5bf3c4c4cc1");
    (("m88000", "suite:recursion"), "334718c714875c1e14ab4d1763aaf39d");
    (("m88000", "suite:poly"), "0bb4d198467288bac534768565b00f41");
    (("m88000", "suite:lfk1"), "d8f8eca62709912efcf6d89a49693663");
    (("m88000", "suite:lfk5"), "1c0355c1e7f4aaad660bfcfc6cc9ae25");
    (("m88000", "suite:lfk7"), "4f93ac49f52b6120222af4c4bb28dfcd");
    (("i860", "lfk1"), "72baa63f4f02170478f529d87c813ead");
    (("i860", "lfk2"), "ac9adf04f8fcd98ccb6b67f614ca199d");
    (("i860", "lfk3"), "c3d4d210eabc4ee8c0d7cede4fddddda");
    (("i860", "lfk4"), "f3f0153bc5e4f472615e067c60ef8355");
    (("i860", "lfk5"), "9f5ed32e96bf50ce56dce8f7b03e0c32");
    (("i860", "lfk6"), "bbb8856245d8d09dcecd12f8edd7458f");
    (("i860", "lfk7"), "85001b0abe8abaaa87690cf296b293c4");
    (("i860", "lfk8"), "958f9881d233bf83f7167b6824fd312c");
    (("i860", "lfk9"), "b1392209edbea91723891054e4849a7a");
    (("i860", "lfk10"), "4dab0d974ac6e703bfde24ef465dcc04");
    (("i860", "lfk11"), "464b771231ab17b5905d9c5022f36af6");
    (("i860", "lfk12"), "0da039d034cad98459259e7ec46903a8");
    (("i860", "lfk13"), "c2545b695c7ec28fa9435360b64d9b33");
    (("i860", "lfk14"), "2fa8213aa36caddbf70d8913e2ef460f");
    (("i860", "suite:matmul"), "cb7ab919cecadef6a392d67423826d2c");
    (("i860", "suite:sieve"), "eba56631eca43e07adb9419f8d024936");
    (("i860", "suite:sort"), "77a86d399e0372d0df82bc1b0dd13c07");
    (("i860", "suite:strings"), "61fbbcaaeac91657d1be504ba6cf1061");
    (("i860", "suite:recursion"), "9b6eb97118cc131fd5c3d16611e2d10d");
    (("i860", "suite:poly"), "fb37601a4d368385acb5849268c2da12");
    (("i860", "suite:lfk1"), "72baa63f4f02170478f529d87c813ead");
    (("i860", "suite:lfk5"), "9f5ed32e96bf50ce56dce8f7b03e0c32");
    (("i860", "suite:lfk7"), "85001b0abe8abaaa87690cf296b293c4");
    (("i860", "figure6"), "2e9ca9544f67243481c585def8e17a58");
  ]

let test_dag_contract () =
  let digest blob = Digest.to_hex (Digest.string blob) in
  List.iter
    (fun (tname, load) ->
      let model = load () in
      List.iter
        (fun ((file, _) as source) ->
          check Alcotest.string
            (Printf.sprintf "%s %s DAG digest" tname file)
            (List.assoc (tname, file) dag_goldens)
            (digest (dag_blob model source)))
        (corpus ()))
    targets;
  check Alcotest.string "i860 figure6 DAG digest"
    (List.assoc ("i860", "figure6") dag_goldens)
    (digest (figure6_blob ()))

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
    Alcotest.test_case "DAG build allocates linearly" `Quick
      test_dag_build_linear;
    Alcotest.test_case "DAG register tables are linear" `Quick
      test_dag_tables_linear;
    Alcotest.test_case "Figure 6 protection edge" `Quick
      test_figure6_protection;
    Alcotest.test_case "Gross-Hennessy filling preserves behaviour" `Quick
      test_ghfill_fills_and_stays_correct;
    Alcotest.test_case "Gross-Hennessy filling helps" `Quick
      test_ghfill_reduces_cycles;
    Alcotest.test_case "priority ablation is sound" `Quick
      test_priority_ablation_sound;
    Alcotest.test_case "sweep == per-budget reference" `Quick
      test_sweep_matches_per_budget;
    Alcotest.test_case "prepass writes back the sweep's schedules" `Quick
      test_prepass_writes_sweep_schedules;
    Alcotest.test_case "contract digests vs the all-node scan" `Slow
      test_sched_contract;
    Alcotest.test_case "DAG contract digests vs the list builder" `Slow
      test_dag_contract;
  ]
