(* The dataflow-analysis layer: soundness of memory disambiguation
   (pruning never un-orders accesses that can really collide), end-to-end
   bit-identity of simulated behaviour with disambiguation on and off
   across the full target x strategy matrix, and the seeded A001/A002
   liveness diagnostics at their phase. *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let models = lazy [ Toyp.load (); R2000.load (); M88000.load (); I860.load () ]

let instr m name = List.hd (Model.instrs_by_name m name)

let rreg m i =
  let c = Option.get (Model.find_class m "r") in
  Mir.Ophys { Model.cls = c.Model.c_id; idx = i }

(* ---------------- pruning soundness (QCheck) ---------------- *)

(* one block: two symbol bases materialized by [la], then a random mix of
   loads and stores at stride-8 offsets off either base. Ground truth is
   known by construction: two accesses can collide exactly when they use
   the same base register and the same offset (stride 8 exceeds any
   access size here), so every such pair with a store in it must stay
   ordered in the oracle-built DAG. *)
let gen_disambig_block =
  QCheck2.Gen.make_primitive
    ~gen:(fun st ->
      let open QCheck2.Gen in
      let m = Lazy.force toyp in
      let fn = Mir.new_func m "p" in
      let base i = 6 + (i mod 2) in
      let prelude =
        [
          Mir.mk_inst fn (instr m "la") [| rreg m 6; Mir.Osym ("a", 0) |];
          Mir.mk_inst fn (instr m "la") [| rreg m 7; Mir.Osym ("b", 0) |];
        ]
      in
      let n = 4 + generate1 ~rand:st (int_bound 10) in
      let mems =
        List.init n (fun _ ->
            let b = generate1 ~rand:st (int_bound 1) in
            let off = 8 * generate1 ~rand:st (int_bound 3) in
            let data = 1 + generate1 ~rand:st (int_bound 4) in
            if generate1 ~rand:st (int_bound 1) = 0 then
              Mir.mk_inst fn (instr m "ld")
                [| rreg m data; rreg m (base b); Mir.Oimm off |]
            else
              Mir.mk_inst fn (instr m "st")
                [| rreg m data; rreg m (base b); Mir.Oimm off |])
      in
      let insts = prelude @ mems in
      let blk = Mir.new_block "entry" in
      blk.Mir.b_insts <- insts;
      fn.Mir.f_blocks <- [ blk ];
      (fn, insts))
    ~shrink:(fun _ -> Seq.empty)

(* ground truth: the (base reg index, offset) of a memory instruction *)
let access_of (i : Mir.inst) =
  if i.Mir.n_op.Model.i_loads || i.Mir.n_op.Model.i_stores then
    match (i.Mir.n_ops.(1), i.Mir.n_ops.(2)) with
    | Mir.Ophys r, Mir.Oimm off -> Some (r.Model.idx, off)
    | _ -> None
  else None

let reachable (dag : Dag.t) =
  let n = Array.length dag.Dag.insts in
  let succs = Array.make n [] in
  List.iter
    (fun (e : Dag.edge) ->
      succs.(e.Dag.e_src) <- e.Dag.e_dst :: succs.(e.Dag.e_src))
    dag.Dag.edges;
  fun src dst ->
    let seen = Array.make n false in
    let rec go j =
      j = dst
      || (not seen.(j))
         && begin
              seen.(j) <- true;
              List.exists go succs.(j)
            end
    in
    go src

let prop_pruning_sound =
  QCheck2.Test.make ~name:"disambiguation never un-orders real conflicts"
    ~count:200 gen_disambig_block (fun (fn, insts) ->
      let d = Disambig.compute fn in
      let oracle = Dag.oracle (Disambig.may_alias d) in
      let dag = Dag.build ~oracle fn.Mir.f_model insts in
      let reach = reachable dag in
      let arr = Array.of_list insts in
      let ok = ref true in
      for i = 0 to Array.length arr - 1 do
        for j = 0 to i - 1 do
          match (access_of arr.(j), access_of arr.(i)) with
          | Some (bj, oj), Some (bi, oi)
            when bj = bi && oj = oi
                 && (arr.(j).Mir.n_op.Model.i_stores
                    || arr.(i).Mir.n_op.Model.i_stores) ->
              if not (reach j i) then ok := false
          | _ -> ()
        done
      done;
      !ok)

(* and the pruning is not vacuous: accesses under distinct symbols are
   provably independent, so a block touching both bases prunes edges *)
let test_pruning_effective () =
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "p" in
  let insts =
    [
      Mir.mk_inst fn (instr m "la") [| rreg m 6; Mir.Osym ("a", 0) |];
      Mir.mk_inst fn (instr m "la") [| rreg m 7; Mir.Osym ("b", 0) |];
      Mir.mk_inst fn (instr m "st") [| rreg m 1; rreg m 6; Mir.Oimm 0 |];
      Mir.mk_inst fn (instr m "st") [| rreg m 2; rreg m 7; Mir.Oimm 0 |];
      Mir.mk_inst fn (instr m "ld") [| rreg m 3; rreg m 6; Mir.Oimm 8 |];
    ]
  in
  let blk = Mir.new_block "entry" in
  blk.Mir.b_insts <- insts;
  fn.Mir.f_blocks <- [ blk ];
  let d = Disambig.compute fn in
  let oracle = Dag.oracle (Disambig.may_alias d) in
  let dag = Dag.build ~oracle fn.Mir.f_model insts in
  check Alcotest.bool "queries issued" true (oracle.Dag.o_queries > 0);
  check Alcotest.bool "edges pruned" true (oracle.Dag.o_pruned > 0);
  (* st a[0] / st b[0] / ld a[8] are pairwise independent: no Mem edge
     at all among nodes 2, 3, 4 *)
  List.iter
    (fun (e : Dag.edge) ->
      if e.Dag.e_kind = Dag.Mem && e.Dag.e_src >= 2 then
        Alcotest.failf "unexpected Mem edge %d -> %d" e.Dag.e_src e.Dag.e_dst)
    dag.Dag.edges

(* ---------------- behaviour is disambiguation-invariant -------------- *)

(* pruned Mem edges only ever license reorderings of provably independent
   accesses, so simulated behaviour must be bit-identical with the
   analysis on and off — across every target, strategy and jobs count.
   Cycle counts may differ (that is the point); outputs may not. *)
let test_matrix_bit_identity () =
  let src = Livermore.source ~iter:1 1 in
  List.iter
    (fun model ->
      List.iter
        (fun strat ->
          let tag =
            Printf.sprintf "lfk1 on %s/%s" model.Model.name
              (Strategy.to_string strat)
          in
          let run ~jobs ~disambig =
            let c =
              Marion.compile
                ~opts:{ Strategy.default with jobs; disambig }
                model strat ~file:"<lfk1.c>" src
            in
            (Marion.run c, c)
          in
          let off, _ = run ~jobs:1 ~disambig:false in
          let on, con = run ~jobs:1 ~disambig:true in
          let on4, con4 = run ~jobs:4 ~disambig:true in
          check Alcotest.string (tag ^ " output on=off") off.Sim.output
            on.Sim.output;
          check Alcotest.int (tag ^ " exit on=off") off.Sim.return_value
            on.Sim.return_value;
          check Alcotest.string (tag ^ " output -j4") on.Sim.output
            on4.Sim.output;
          check Alcotest.int (tag ^ " cycles -j4") on.Sim.cycles
            on4.Sim.cycles;
          check Alcotest.string (tag ^ " asm -j1 = -j4")
            (Marion.asm_to_string con.Marion.prog)
            (Marion.asm_to_string con4.Marion.prog);
          (* the validators ran against the oracle-pruned DAGs: clean *)
          check Alcotest.int (tag ^ " no V-diags") 0
            (List.length con.Marion.report.Strategy.validate_diags))
        Strategy.all)
    (Lazy.force models)

(* ---------------- seeded A001 / A002 ---------------- *)

(* the A-series codes only: the verifier's own findings on these
   hand-built functions (M031 on the unassigned read) are not under test *)
let codes phase fn =
  List.filter_map
    (fun (d : Diag.t) ->
      if d.Diag.code.[0] = 'A' then Some d.Diag.code else None)
    (Mircheck.check_func phase fn)

let test_seeded_a001 () =
  (* a pseudo read before any assignment is live into the entry block *)
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "f" in
  let cls = (Option.get (Model.find_class m "r")).Model.c_id in
  let p = Mir.fresh_preg fn cls in
  let i =
    Mir.mk_inst fn (instr m "add") [| rreg m 1; Mir.Opreg p; rreg m 2 |]
  in
  let blk = Mir.new_block "entry" in
  blk.Mir.b_insts <- [ i ];
  fn.Mir.f_blocks <- [ blk ];
  check (Alcotest.list Alcotest.string) "A001 at post-select" [ "A001" ]
    (codes Diag.Post_select fn);
  check (Alcotest.list Alcotest.string) "quiet at post-sched" []
    (codes Diag.Post_sched fn)

let test_seeded_a002 () =
  (* a pseudo assigned and never read: the defining add is a dead store *)
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "f" in
  let cls = (Option.get (Model.find_class m "r")).Model.c_id in
  let p = Mir.fresh_preg fn cls in
  let i =
    Mir.mk_inst fn (instr m "add") [| Mir.Opreg p; rreg m 1; rreg m 2 |]
  in
  let blk = Mir.new_block "entry" in
  blk.Mir.b_insts <- [ i ];
  fn.Mir.f_blocks <- [ blk ];
  check (Alcotest.list Alcotest.string) "A002 at post-select" [ "A002" ]
    (codes Diag.Post_select fn);
  check (Alcotest.list Alcotest.string) "quiet at final" []
    (codes Diag.Final fn);
  (* a store to memory is an effect: never reported dead *)
  let st =
    Mir.mk_inst fn (instr m "st") [| rreg m 1; rreg m 2; Mir.Oimm 0 |]
  in
  blk.Mir.b_insts <- [ st ];
  check (Alcotest.list Alcotest.string) "stores are effects" []
    (codes Diag.Post_select fn)

let test_half_moves_initialise () =
  (* A double copied by the two-half move (the mov.d escape on r2000 and
     m88000, movd on TOYP) is fully assigned by its second half: no
     A001. A half written alone, then the whole read, is still A001. *)
  let src =
    {|int main(void) {
        double a; double b;
        a = 1.5; b = a;
        print_double(b * a);
        return 0;
      }|}
  in
  List.iter
    (fun (m : Model.t) ->
      let prog = Select.select_prog m (Cgen.compile ~file:"<t.c>" src) in
      let fn = List.hd prog.Mir.p_funcs in
      check Alcotest.bool (m.Model.name ^ " writes a half") true
        (List.exists
           (fun (b : Mir.block) ->
             List.exists
               (fun (i : Mir.inst) ->
                 List.exists
                   (fun pos ->
                     match i.Mir.n_ops.(pos) with
                     | Mir.Opart (Mir.Opreg _, _) -> true
                     | _ -> false)
                   i.Mir.n_op.Model.i_writes)
               b.Mir.b_insts)
           fn.Mir.f_blocks);
      check (Alcotest.list Alcotest.string) (m.Model.name ^ " no A001") []
        (List.filter (( = ) "A001") (codes Diag.Post_select fn)))
    [ Lazy.force toyp; R2000.load (); M88000.load () ];
  let m = R2000.load () in
  let fn = Mir.new_func m "f" in
  let cls name = (Option.get (Model.find_class m name)).Model.c_id in
  let p = Mir.fresh_preg fn (cls "d") in
  let f8 = Mir.Ophys { Model.cls = cls "f"; idx = 8 } in
  let movs = Option.get (Model.instr_by_tag m "s.movs") in
  let blk = Mir.new_block "entry" in
  blk.Mir.b_insts <-
    [
      Mir.mk_inst fn movs [| Mir.Opart (Mir.Opreg p, 0); f8 |];
      Mir.mk_inst fn (instr m "add.d")
        [| Mir.Opreg (Mir.fresh_preg fn (cls "d")); Mir.Opreg p; Mir.Opreg p |];
    ];
  fn.Mir.f_blocks <- [ blk ];
  check Alcotest.bool "one half alone" true
    (List.mem "A001" (codes Diag.Post_select fn))

let test_malformed_register () =
  (* a register outside its class's range has no liveness key: the
     verifier reports M006 and leaves the A-codes out, without raising *)
  let m = Lazy.force toyp in
  let fn = Mir.new_func m "f" in
  let cls = (Option.get (Model.find_class m "r")).Model.c_id in
  let p = Mir.fresh_preg fn cls in
  let blk = Mir.new_block "entry" in
  blk.Mir.b_insts <-
    [ Mir.mk_inst fn (instr m "add") [| Mir.Opreg p; rreg m 1; rreg m 99 |] ];
  fn.Mir.f_blocks <- [ blk ];
  check Alcotest.bool "M006" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.code = "M006")
       (Mircheck.check_func Diag.Post_select fn));
  check (Alcotest.list Alcotest.string) "no A-codes" [] (codes Diag.Post_select fn)

(* ---------------- the effect walk (differential) ---------------- *)

(* The walkers Locs.iter_reads/iter_writes replaced, transcribed:
   [Mir.inst_uses]/[inst_defs], [Locs.reads]/[writes] and liveness's
   [iter_uses]/[iter_defs] over its old keys (a pseudo's p_id, or
   [f_next_preg] plus the Regtab id). *)
module Reference_walks = struct
  let positions (i : Mir.inst) =
    List.filter_map (fun p -> Mir.operand_reg i.Mir.n_ops.(p))

  let inst_uses (i : Mir.inst) = positions i i.Mir.n_op.Model.i_reads

  let inst_defs (i : Mir.inst) = positions i i.Mir.n_op.Model.i_writes

  type loc = Lp of int | Lh of Model.reg

  let locs model regs implicit names =
    List.map (function `Preg p -> Lp p.Mir.p_id | `Phys h -> Lh h) regs
    @ List.map (fun h -> Lh h) implicit
    @ List.map (fun c -> Lh (Locs.named_reg model c)) names

  let reads model (i : Mir.inst) =
    locs model (inst_uses i) i.Mir.n_xuse i.Mir.n_op.Model.i_rnames

  let writes model (i : Mir.inst) =
    locs model (inst_defs i) i.Mir.n_xdef i.Mir.n_op.Model.i_wnames

  let rec operand_key np tab (o : Mir.operand) =
    match o with
    | Mir.Opreg p -> p.Mir.p_id
    | Mir.Ophys r -> np + Regtab.id tab r
    | Mir.Opart (inner, _) -> operand_key np tab inner
    | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _ -> -1

  let iter_positions np tab f (i : Mir.inst) positions implicit =
    List.iter
      (fun pos ->
        let k = operand_key np tab i.Mir.n_ops.(pos) in
        if k >= 0 then f k)
      positions;
    List.iter (fun r -> f (np + Regtab.id tab r)) implicit

  let iter_uses np tab f (i : Mir.inst) =
    iter_positions np tab f i i.Mir.n_op.Model.i_reads i.Mir.n_xuse

  let iter_defs np tab f (i : Mir.inst) =
    iter_positions np tab f i i.Mir.n_op.Model.i_writes i.Mir.n_xdef

  (* how each operand position touches its register *)
  let hows (i : Mir.inst) positions implicit names =
    List.filter_map
      (fun p ->
        match i.Mir.n_ops.(p) with
        | Mir.Opart (_, k) -> Some (Locs.half0 + k)
        | o -> Option.map (fun _ -> Locs.whole) (Mir.operand_reg o))
      positions
    @ List.map (fun _ -> Locs.implicit) implicit
    @ List.map (fun _ -> Locs.by_name) names
end

(* The first instruction of [fn] on which the walk and a reference
   disagree, described *)
let walk_mismatch (fn : Mir.func) =
  let module R = Reference_walks in
  let model = fn.Mir.f_model in
  let tab = Regtab.get model in
  let np = fn.Mir.f_next_preg and nh = tab.Regtab.n_hard in
  let of_loc = function R.Lp p -> nh + p | R.Lh r -> Regtab.id tab r in
  let of_reg = function
    | `Preg (p : Mir.preg) -> nh + p.Mir.p_id
    | `Phys r -> Regtab.id tab r
  in
  let of_live k = if k < np then nh + k else k - np in
  let walk w i =
    let acc = ref [] in
    w tab (fun l how -> acc := (l, how) :: !acc) i;
    List.rev !acc
  in
  let keys keep effects =
    List.filter_map (fun (l, how) -> if keep how then Some l else None) effects
  in
  let all _ = true in
  let operand how = how <> Locs.implicit && how <> Locs.by_name in
  let liveness how = how <> Locs.by_name in
  let collect iter i =
    let acc = ref [] in
    iter np tab (fun k -> acc := of_live k :: !acc) i;
    List.rev !acc
  in
  let insts =
    List.concat_map (fun (b : Mir.block) -> b.Mir.b_insts) fn.Mir.f_blocks
  in
  List.find_map
    (fun (i : Mir.inst) ->
      let op = i.Mir.n_op in
      let r = walk Locs.iter_reads i and w = walk Locs.iter_writes i in
      let fails =
        List.filter_map
          (fun (what, ok) -> if ok then None else Some what)
          [
            ("Locs.reads", List.map of_loc (R.reads model i) = keys all r);
            ("Locs.writes", List.map of_loc (R.writes model i) = keys all w);
            ("Mir.inst_uses", List.map of_reg (R.inst_uses i) = keys operand r);
            ("Mir.inst_defs", List.map of_reg (R.inst_defs i) = keys operand w);
            ("Liveness.iter_uses", collect R.iter_uses i = keys liveness r);
            ("Liveness.iter_defs", collect R.iter_defs i = keys liveness w);
            ( "read hows",
              R.hows i op.Model.i_reads i.Mir.n_xuse op.Model.i_rnames
              = List.map snd r );
            ( "write hows",
              R.hows i op.Model.i_writes i.Mir.n_xdef op.Model.i_wnames
              = List.map snd w );
          ]
      in
      if fails = [] then None
      else
        Some
          (Format.asprintf "%s: %a disagrees with %s" fn.Mir.f_name
             (Mir.pp_inst model) i (String.concat ", " fails)))
    insts

(* every instruction of the 368 cells (Livermore 1-14 and the program
   suite x 4 targets x 4 strategies), after selection and after the
   strategy's allocation pass *)
let test_effect_walk_corpus () =
  List.iter
    (fun (tname, load) ->
      let model = load () in
      List.iter
        (fun (file, src) ->
          List.iter
            (fun strategy ->
              let cell where =
                Printf.sprintf "%s %s %s %s" tname file
                  (Strategy.to_string strategy) where
              in
              let verify where fn =
                Option.iter
                  (fun msg -> Alcotest.failf "%s: %s" (cell where) msg)
                  (walk_mismatch fn)
              in
              match
                let ir = Cgen.compile ~file src in
                List.iter (Glue.transform_func model) ir.Ir.funcs;
                List.map (Select.select_func model) ir.Ir.funcs
              with
              | exception (Select.No_pattern _ | Loc.Error _) -> ()
              | fns ->
                  let prefix, alloc = Test_regalloc.split_at_alloc strategy in
                  List.iter
                    (fun fn ->
                      verify "after select" fn;
                      match Pass.run_pipeline (prefix @ [ alloc ]) fn with
                      | exception Loc.Error _ -> ()
                      | _ -> verify "after allocation" fn)
                    fns)
            Strategy.all)
        (Test_regalloc.corpus ()))
    Test_regalloc.targets

(* and on random functions with half writes and implicit effects *)
let prop_effect_walk_random =
  QCheck2.Test.make ~name:"effect walk == the walkers it replaced" ~count:300
    ~print:Test_regalloc.print_gfunc Test_regalloc.gen_gfunc (fun g ->
      match walk_mismatch (Test_regalloc.build_gfunc g) with
      | None -> true
      | Some msg -> QCheck2.Test.fail_report msg)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_pruning_sound;
    Alcotest.test_case "pruning is effective" `Quick test_pruning_effective;
    Alcotest.test_case "behaviour matrix: disambig on/off, -j 1/4" `Slow
      test_matrix_bit_identity;
    Alcotest.test_case "seeded A001 (maybe-uninitialized)" `Quick
      test_seeded_a001;
    Alcotest.test_case "seeded A002 (dead store)" `Quick test_seeded_a002;
    Alcotest.test_case "two half moves initialise a double" `Quick
      test_half_moves_initialise;
    Alcotest.test_case "a register naming no machine register" `Quick
      test_malformed_register;
    Alcotest.test_case "effect walk vs the walkers it replaced" `Slow
      test_effect_walk_corpus;
    QCheck_alcotest.to_alcotest prop_effect_walk_random;
  ]
