(* Register allocation tests: coloring soundness, pair aliasing, spilling,
   coalescing, callee-save bookkeeping. *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let compile_alloc ?forbid_global_pregs ?max_local model src =
  let prog = Select.select_prog model (Cgen.compile ~file:"<t.c>" src) in
  let stats =
    List.map (fun fn -> Regalloc.allocate ?forbid_global_pregs ?max_local fn)
      prog.Mir.p_funcs
  in
  (prog, stats)

let all_insts (fn : Mir.func) =
  List.concat_map (fun (b : Mir.block) -> b.Mir.b_insts) fn.Mir.f_blocks

(* no pseudo-register survives allocation *)
let assert_all_physical (fn : Mir.func) =
  List.iter
    (fun (i : Mir.inst) ->
      Array.iter
        (fun o ->
          let rec go = function
            | Mir.Opreg _ -> Alcotest.fail "pseudo-register survived allocation"
            | Mir.Opart (inner, _) -> go inner
            | Mir.Ophys _ | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _
              -> ()
          in
          go o)
        i.Mir.n_ops)
    (all_insts fn)

(* soundness oracle: walk each block with a backward liveness over physical
   registers and confirm no live value is clobbered by an unrelated def.
   Rather than re-deriving liveness, run the program and compare outputs —
   the differential tests in Test_e2e do that; here we check structure. *)

let test_allocation_completes () =
  let m = Lazy.force toyp in
  let prog, stats =
    compile_alloc m
      {|int main(void) {
          int a=1; int b=2; int c=3; int d=4; int e=5; int f=6; int g=7;
          return a+b+c+d+e+f+g;
        }|}
  in
  List.iter assert_all_physical prog.Mir.p_funcs;
  List.iter
    (fun (s : Regalloc.stats) ->
      check Alcotest.bool "rounds >= 1" true (s.Regalloc.rounds >= 1))
    stats

let test_spilling_under_pressure () =
  (* TOYP has five allocable integer registers; twelve simultaneously live
     values must spill *)
  let m = Lazy.force toyp in
  let src =
    {|int main(void) {
        int a=1; int b=2; int c=3; int d=4; int e=5; int f=6;
        int g=7; int h=8; int i=9; int j=10; int k=11; int l=12;
        int x = a+b+c+d+e+f+g+h+i+j+k+l;
        int y = a*b + c*d + e*f + g*h + i*j + k*l;
        return x + y;
      }|}
  in
  let prog, stats = compile_alloc m src in
  List.iter assert_all_physical prog.Mir.p_funcs;
  let total = List.fold_left (fun acc s -> acc + s.Regalloc.spilled) 0 stats in
  check Alcotest.bool "some values spilled" true (total > 0);
  (* and the code still works (fill delay slots: this path skips the
     scheduler) *)
  List.iter
    (fun fn ->
      Delay.fill_func fn;
      Frame.layout fn)
    prog.Mir.p_funcs;
  let r = Sim.run prog in
  let o = Cinterp.run_source ~file:"<t.c>" src in
  check Alcotest.int "spilled code computes correctly" o.Cinterp.return_value
    r.Sim.return_value

let test_pair_aliasing_respected () =
  (* doubles overlap integer registers on TOYP (%equiv): after allocation,
     no instruction may read a register whose bytes were reused for a
     simultaneously-live double — checked end to end by execution *)
  let m = Lazy.force toyp in
  let src =
    {|double acc; int main(void) {
        int i; double s = 0.0;
        for (i = 0; i < 8; i++) s = s + (double)i * 0.5;
        acc = s;
        return (int)s + i;
      }|}
  in
  let prog, _ = compile_alloc m src in
  List.iter
    (fun fn ->
      Delay.fill_func fn;
      Frame.layout fn)
    prog.Mir.p_funcs;
  let r = Sim.run prog in
  let o = Cinterp.run_source ~file:"<t.c>" src in
  check Alcotest.int "pairs respected" o.Cinterp.return_value r.Sim.return_value

let test_identity_moves_coalesced () =
  let m = Lazy.force toyp in
  let prog, _ = compile_alloc m "int f(int a) { int b = a; return b; }" in
  let fn = List.find (fun (f : Mir.func) -> f.Mir.f_name = "f") prog.Mir.p_funcs in
  (* parameter arrives in r2 which is also the result register: everything
     coalesces away, leaving only control flow *)
  let moves =
    List.filter
      (fun (i : Mir.inst) ->
        i.Mir.n_op.Model.i_move
        &&
        match (i.Mir.n_ops.(0), i.Mir.n_ops.(1)) with
        | Mir.Ophys a, Mir.Ophys b -> Model.reg_equal a b
        | _ -> false)
      (all_insts fn)
  in
  check Alcotest.int "no identity moves" 0 (List.length moves)

let test_callee_save_recorded () =
  let m = Lazy.force toyp in
  (* a value live across a call must land in a callee-save register, which
     the function then saves *)
  let src =
    {|int id(int x) { return x; }
      int main(void) { int a = 5; int b = id(7); return a + b; }|}
  in
  let prog, _ = compile_alloc m src in
  let main = List.find (fun (f : Mir.func) -> f.Mir.f_name = "main") prog.Mir.p_funcs in
  check Alcotest.bool "main saves a callee-save register" true
    (main.Mir.f_saved <> [])

let test_forbid_globals_spills () =
  let m = Lazy.force toyp in
  let src =
    {|int main(void) {
        int i; int s = 0;
        for (i = 0; i < 10; i++) s = s + i;
        return s;
      }|}
  in
  let _, stats = compile_alloc ~forbid_global_pregs:true m src in
  let total = List.fold_left (fun acc s -> acc + s.Regalloc.spilled) 0 stats in
  check Alcotest.bool "cross-block values went to memory" true (total >= 2)

let test_max_local_budget () =
  (* a register budget of 1 forces heavy spilling relative to the default *)
  let m = Lazy.force toyp in
  let src =
    {|int main(void) {
        int a=1; int b=2; int c=3; int d=4;
        return (a+b) * (c+d) + (a+c) * (b+d);
      }|}
  in
  let _, s_free = compile_alloc m src in
  let _, s_one = compile_alloc ~max_local:3 m src in
  let sum l = List.fold_left (fun acc s -> acc + s.Regalloc.spilled) 0 l in
  check Alcotest.bool "smaller budget spills at least as much" true
    (sum s_one >= sum s_free)

let test_liveness_loop_depth () =
  let m = Lazy.force toyp in
  let prog =
    Select.select_prog m
      (Cgen.compile ~file:"<t.c>"
         {|int main(void) {
             int i; int j; int s = 0;
             for (i = 0; i < 3; i++)
               for (j = 0; j < 3; j++)
                 s += i * j;
             return s;
           }|})
  in
  let fn = List.hd prog.Mir.p_funcs in
  let depth = Liveness.loop_depth fn in
  let max_depth = Hashtbl.fold (fun _ d acc -> max d acc) depth 0 in
  check Alcotest.bool "nested loops detected" true (max_depth >= 2)

let test_liveness_basic () =
  let m = Lazy.force toyp in
  let prog =
    Select.select_prog m
      (Cgen.compile ~file:"<t.c>"
         "int main(void) { int a = 3; int b = a + 1; return a + b; }")
  in
  let fn = List.hd prog.Mir.p_funcs in
  let live = Liveness.compute fn in
  (* the entry block's live-out must be non-empty: a and b flow onward if
     blocks split, or at minimum the return-address seed is present *)
  let entry = List.hd fn.Mir.f_blocks in
  let out = Liveness.live_out live entry.Mir.b_label in
  check Alcotest.bool "live-out non-empty" false (Bitset.is_empty out)

let test_liveness_no_exit_loop () =
  (* a pseudo defined on entry and read in a self-loop with no exit: it is
     live across the entry->loop edge even though no path reaches an exit.
     The shared dataflow solver (here through Glive) leaves such a loop
     without any fact, which is why the allocator keeps its own liveness *)
  let m = Lazy.force toyp in
  let add = List.hd (Model.instrs_by_name m "add") in
  let cls = (Option.get (Model.find_class m "r")).Model.c_id in
  let r i = Mir.Ophys { Model.cls; idx = i } in
  let fn = Mir.new_func m "f" in
  let p = Mir.fresh_preg fn cls in
  let entry = Mir.new_block "entry" and loop = Mir.new_block "loop" in
  entry.Mir.b_insts <- [ Mir.mk_inst fn add [| Mir.Opreg p; r 1; r 2 |] ];
  entry.Mir.b_succs <- [ "loop" ];
  loop.Mir.b_insts <- [ Mir.mk_inst fn add [| r 1; Mir.Opreg p; r 2 |] ];
  loop.Mir.b_succs <- [ "loop" ];
  fn.Mir.f_blocks <- [ entry; loop ];
  let live = Liveness.compute fn in
  let key = Liveness.reg_key live (`Preg p) in
  check Alcotest.bool "live out of entry" true
    (Bitset.mem (Liveness.live_out live "entry") key);
  check Alcotest.bool "live into the loop" true
    (Bitset.mem (Liveness.live_in live "loop") key);
  check Alcotest.bool "the shared solver reaches no fact there" true
    (Glive.live_in (Glive.compute fn) "loop" = None)

(* ---------------- allocation contract ---------------- *)

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

let is_alloc_pass (p : Pass.t) =
  p.Pass.name = "allocate" || p.Pass.name = "allocate-local"

(* One cell (target, source, strategy): every selected function run
   through the strategy's pipeline up to and including its allocation
   pass. The passes before it run as the pipeline defines them; the
   allocation pass keeps its name and calls [Regalloc.allocate] as
   [Strategy] does (globals forced to memory for "allocate-local"), so
   the blob can also record the coloring rounds. Per function the blob
   holds the post-allocation MIR, [f_locations] sorted by pid, the saved
   registers, the frame slots, the spill count and the rounds, or the
   exact error text where allocation fails. *)
let alloc_blob model (file, src) strategy =
  let buf = Buffer.create (1 lsl 14) in
  let add fmt = Printf.bprintf buf fmt in
  (match
     let ir = Cgen.compile ~file src in
     List.iter (Glue.transform_func model) ir.Ir.funcs;
     List.map (Select.select_func model) ir.Ir.funcs
   with
  | exception (Select.No_pattern _ | Loc.Error _) -> add "no-select\n"
  | fns ->
      let pipeline = Strategy.pipeline strategy in
      let rec split acc = function
        | p :: _ when is_alloc_pass p -> (List.rev acc, p)
        | p :: rest -> split (p :: acc) rest
        | [] -> Alcotest.fail "pipeline has no allocation pass"
      in
      let prefix, alloc = split [] pipeline in
      List.iter
        (fun (fn : Mir.func) ->
          let rounds = ref 0 in
          let alloc =
            Pass.v alloc.Pass.name (fun st fn ->
                let r =
                  Regalloc.allocate
                    ~forbid_global_pregs:(alloc.Pass.name = "allocate-local")
                    fn
                in
                rounds := r.Regalloc.rounds;
                st.Pass.spilled <- st.Pass.spilled + r.Regalloc.spilled)
          in
          add "== %s\n" fn.Mir.f_name;
          match Pass.run_pipeline (prefix @ [ alloc ]) fn with
          | exception Loc.Error (_, msg) -> add "error: %s\n" msg
          | st ->
              add "%s" (Format.asprintf "%a" Mir.pp_func fn);
              List.iter
                (fun (pid, loc) ->
                  match loc with
                  | Mir.Lreg r ->
                      add "%%p%d -> %s\n" pid
                        (Format.asprintf "%a" (Model.pp_reg model) r)
                  | Mir.Lslot k -> add "%%p%d -> slot %d\n" pid k)
                (List.sort compare fn.Mir.f_locations);
              add "saved:";
              List.iter
                (fun r -> add " %s" (Format.asprintf "%a" (Model.pp_reg model) r))
                fn.Mir.f_saved;
              add "\nslots:";
              List.iter
                (fun (id, size, align) -> add " %d:%d/%d" id size align)
                fn.Mir.f_slots;
              add "\nspilled %d rounds %d\n" st.Pass.spilled !rounds)
        fns);
  Buffer.contents buf

(* One digest per cell, captured from the allocator that kept liveness
   in a [Set] of [Kp]/[Kh] keys and adjacency in [IntSet]s, before it
   moved to dense ids. Never regenerate a row to absorb a difference:
   a change that is meant to move allocations re-pins exactly the rows
   it moves and says why. *)
let alloc_goldens =
  [
    (("toyp", "lfk1", "naive"), "287ac1105e982277424c70a51e3b7069");
    (("toyp", "lfk1", "postpass"), "c6ea31ff07108f51f9f48f30c4086265");
    (("toyp", "lfk1", "ips"), "9ca87644257664d5924db58a3e7eae2a");
    (("toyp", "lfk1", "rase"), "ef0e860e0f7633ab466b2644a6c91f42");
    (("toyp", "lfk2", "naive"), "b4cd89b9c9b87df9c918bdd8a286bfb4");
    (("toyp", "lfk2", "postpass"), "f03e54f23e4f31ebfea551009e3972f1");
    (("toyp", "lfk2", "ips"), "7d2ac423230f1f7e3a116a97828b13e9");
    (("toyp", "lfk2", "rase"), "738c2e08d029a5daa5e6f929de088b77");
    (("toyp", "lfk3", "naive"), "8fa554fff63cfb3e1239e70ce14d53d4");
    (("toyp", "lfk3", "postpass"), "2fb7762661dda2c2984ae36619e91324");
    (("toyp", "lfk3", "ips"), "c28c22114c7b9c92031cd27ffcf1d8ae");
    (("toyp", "lfk3", "rase"), "74742aaeaf6098116cffe00da3924a64");
    (("toyp", "lfk4", "naive"), "5ed7172100d364987d62d8a162466785");
    (("toyp", "lfk4", "postpass"), "c6205c51301554db1655b50568ba4c46");
    (("toyp", "lfk4", "ips"), "84274fd886af9ef323674be426f6a44b");
    (("toyp", "lfk4", "rase"), "4e779d799e123cee12dd3fdfbd2feb1a");
    (("toyp", "lfk5", "naive"), "aab6c34b37c8a00f06c6236eaf5c9869");
    (("toyp", "lfk5", "postpass"), "300bd2a2d980d27202d405ae413f2218");
    (("toyp", "lfk5", "ips"), "071ac84728cdec8c0153a6db9c3b851e");
    (("toyp", "lfk5", "rase"), "e84cfc597e267f3f9364e98796e530d3");
    (("toyp", "lfk6", "naive"), "1f3a94b8b268f1f07296a1f2a89cf5ff");
    (("toyp", "lfk6", "postpass"), "30af6785acf5fd844f1f3a302be1e6c2");
    (("toyp", "lfk6", "ips"), "599229ecc8a0f6dc6f346668356d778e");
    (("toyp", "lfk6", "rase"), "b690ab53360929a10759702cde2ebdce");
    (("toyp", "lfk7", "naive"), "6c68948ed59bdd22ef3731205ea52124");
    (("toyp", "lfk7", "postpass"), "9b03a202ed93c783725a908db7ed961d");
    (("toyp", "lfk7", "ips"), "e4f13e5ea552860cfd0ac3eea287385d");
    (("toyp", "lfk7", "rase"), "fc3cab0c02d705d8011f83978bd88f91");
    (("toyp", "lfk8", "naive"), "50644960d839c2fe937c361ca0daa8a4");
    (("toyp", "lfk8", "postpass"), "d8e4537427812b798ae24abedf85ec33");
    (("toyp", "lfk8", "ips"), "71972925f7f39aee5659997fb79168a3");
    (("toyp", "lfk8", "rase"), "0381cc036835d21baf73d5f14f412d0d");
    (("toyp", "lfk9", "naive"), "e3129540fd2717000d744109d86bf3be");
    (("toyp", "lfk9", "postpass"), "4216059b2bcbac6231374d482de548e8");
    (("toyp", "lfk9", "ips"), "f52c860befe8b4ae6709cb64beb258cc");
    (("toyp", "lfk9", "rase"), "71bcfee165979cf881fda82592f02552");
    (("toyp", "lfk10", "naive"), "e59d4d536f989a59f17212481987e947");
    (("toyp", "lfk10", "postpass"), "faf91d0fa9ef3ca1641fce3aacce8d16");
    (("toyp", "lfk10", "ips"), "f41c4b72fbc1a8fd34793a78eb8933a0");
    (("toyp", "lfk10", "rase"), "f338f93e8e8db1c07655d1c31b99789d");
    (("toyp", "lfk11", "naive"), "04b647445094b40c727a8ff45ff9bf8e");
    (("toyp", "lfk11", "postpass"), "8745bf30de397fdf74c7233939878dec");
    (("toyp", "lfk11", "ips"), "9e3c0fac5de9c124a57f596f5350c2e0");
    (("toyp", "lfk11", "rase"), "0b2dc4174747296250ac7b6bc5368de1");
    (("toyp", "lfk12", "naive"), "1e9da5a96cdeef4cec2de7cf3bafcb57");
    (("toyp", "lfk12", "postpass"), "3f875de19ab95a25600d90506853c85c");
    (("toyp", "lfk12", "ips"), "4916759e0c9ec07c1b2ab5eadd815502");
    (("toyp", "lfk12", "rase"), "971dae8a95b937488257587013ebd354");
    (("toyp", "lfk13", "naive"), "74de191c9fa345007aad6da019c9b9b4");
    (("toyp", "lfk13", "postpass"), "03a0e6d5167ae9d6f135f6ca6091809a");
    (("toyp", "lfk13", "ips"), "f5a45d63b4f8deecfe00b3a8f36e9159");
    (("toyp", "lfk13", "rase"), "1988b32992e835ed3ed3f8ef54aafcf9");
    (("toyp", "lfk14", "naive"), "de52a60cb2dd2c67da3fccd654a762ea");
    (("toyp", "lfk14", "postpass"), "0ae8082f15786a3984dea32551bd4aa2");
    (("toyp", "lfk14", "ips"), "e8db478db07465a7808c957b46703c29");
    (("toyp", "lfk14", "rase"), "b849bb0141b69ba5cfa9d2e6db6a83ad");
    (("toyp", "suite:matmul", "naive"), "2318922f7deee0b7d99707b5c68d26b7");
    (("toyp", "suite:matmul", "postpass"), "1ced7cb01959006d397e5ca9e3fbc8ca");
    (("toyp", "suite:matmul", "ips"), "c1bd9991128945ce85a3b904d8dbb45c");
    (("toyp", "suite:matmul", "rase"), "49d69b865cfde35f766d00d085a24679");
    (("toyp", "suite:sieve", "naive"), "e84d04f9c62f903fb6a7c3423ba9d31d");
    (("toyp", "suite:sieve", "postpass"), "5d4c12cf24da60a6baf6dad94180eeb5");
    (("toyp", "suite:sieve", "ips"), "47e0f631a89105cdb80c1b44f3a5c221");
    (("toyp", "suite:sieve", "rase"), "8730166e8bdbb23fb3d674fced4952a4");
    (("toyp", "suite:sort", "naive"), "597250f6fe91a3ac38f243d34dfed276");
    (("toyp", "suite:sort", "postpass"), "154b24285181507265761f58a20cde26");
    (("toyp", "suite:sort", "ips"), "5f1f818f17b546f2373156dd2357f18f");
    (("toyp", "suite:sort", "rase"), "ed5af56278d046c5cfd9a77cf0b06508");
    (("toyp", "suite:strings", "naive"), "6849b95d5da77eef6e561f08e84520db");
    (("toyp", "suite:strings", "postpass"), "e782a31134a9edc69b9969c7352be271");
    (("toyp", "suite:strings", "ips"), "007efef76f6f5f190107f943c52f7a24");
    (("toyp", "suite:strings", "rase"), "8d93bacdb78f154a93b2825c8c68ec08");
    (("toyp", "suite:recursion", "naive"), "e83f8ed78251d65c84d84fd760b3f8a6");
    (("toyp", "suite:recursion", "postpass"), "72e831b377d53b65caaf02bdb05a3eb5");
    (("toyp", "suite:recursion", "ips"), "99efb3e49ebc8f7d013c751eddf45280");
    (("toyp", "suite:recursion", "rase"), "dfe5e8123e49cf2bae3fbf3ed3bfcf9d");
    (("toyp", "suite:poly", "naive"), "c8eaa19cac6478a1ede6abe98c21633d");
    (("toyp", "suite:poly", "postpass"), "d9546fa6d6276e7989ce7a21d78c2266");
    (("toyp", "suite:poly", "ips"), "b362fe945a1861a0cea76726164478b5");
    (("toyp", "suite:poly", "rase"), "b362fe945a1861a0cea76726164478b5");
    (("toyp", "suite:lfk1", "naive"), "287ac1105e982277424c70a51e3b7069");
    (("toyp", "suite:lfk1", "postpass"), "c6ea31ff07108f51f9f48f30c4086265");
    (("toyp", "suite:lfk1", "ips"), "9ca87644257664d5924db58a3e7eae2a");
    (("toyp", "suite:lfk1", "rase"), "ef0e860e0f7633ab466b2644a6c91f42");
    (("toyp", "suite:lfk5", "naive"), "aab6c34b37c8a00f06c6236eaf5c9869");
    (("toyp", "suite:lfk5", "postpass"), "300bd2a2d980d27202d405ae413f2218");
    (("toyp", "suite:lfk5", "ips"), "071ac84728cdec8c0153a6db9c3b851e");
    (("toyp", "suite:lfk5", "rase"), "e84cfc597e267f3f9364e98796e530d3");
    (("toyp", "suite:lfk7", "naive"), "6c68948ed59bdd22ef3731205ea52124");
    (("toyp", "suite:lfk7", "postpass"), "9b03a202ed93c783725a908db7ed961d");
    (("toyp", "suite:lfk7", "ips"), "e4f13e5ea552860cfd0ac3eea287385d");
    (("toyp", "suite:lfk7", "rase"), "fc3cab0c02d705d8011f83978bd88f91");
    (("r2000", "lfk1", "naive"), "7874794f93bdbc9ef851a2abf16f3eeb");
    (("r2000", "lfk1", "postpass"), "6e22d097cae3a33374ebf2f5f33db88c");
    (("r2000", "lfk1", "ips"), "70a58c3daff5b30e9e9f3b6ff2792f39");
    (("r2000", "lfk1", "rase"), "f952a022dda01b7e1b96bf3aa9dc4b22");
    (("r2000", "lfk2", "naive"), "ef78cfaf50a40664d75adf12e32cb664");
    (("r2000", "lfk2", "postpass"), "f80f9f5c4e957b91b8e5ab74e00916b1");
    (("r2000", "lfk2", "ips"), "726cdf888f157843c58b7c7f6b8a9505");
    (("r2000", "lfk2", "rase"), "56a0e18a66e2ef6d82295ace213ede57");
    (("r2000", "lfk3", "naive"), "c06ef390cee3844549d301f9f8399139");
    (("r2000", "lfk3", "postpass"), "072919b8f814e554d0ab68f7ab146b9a");
    (("r2000", "lfk3", "ips"), "02c7a683ad37a6f36a30a4fdaa9461c6");
    (("r2000", "lfk3", "rase"), "02c7a683ad37a6f36a30a4fdaa9461c6");
    (("r2000", "lfk4", "naive"), "8d38825e04d7883f67f2d0f92195a18c");
    (("r2000", "lfk4", "postpass"), "6ff6efbd9999bac547a2588019da60d1");
    (("r2000", "lfk4", "ips"), "6091db6d8fd659820e8fcf8523d21f12");
    (("r2000", "lfk4", "rase"), "fc615c7c38ab9799078086e92c2aa5cb");
    (("r2000", "lfk5", "naive"), "79664b5bfce036d28d063fcaa7eaf24f");
    (("r2000", "lfk5", "postpass"), "cdcdd09a238a8b7983d07faee4a0aad9");
    (("r2000", "lfk5", "ips"), "4734686701c535e56be7fd177751605b");
    (("r2000", "lfk5", "rase"), "69207aa7f14e882372becc5d63835e05");
    (("r2000", "lfk6", "naive"), "3e358af988dadb5b4e6b9ffe0c7b9dd6");
    (("r2000", "lfk6", "postpass"), "0fc4ce97fdc5a1298ee755d1db8edb17");
    (("r2000", "lfk6", "ips"), "7f2ac47a4f4ec9390de7be26a4f2bae0");
    (("r2000", "lfk6", "rase"), "636cd9929b9e494c5a0f08d5d5e894af");
    (("r2000", "lfk7", "naive"), "ec432a4797834c12190a01aba6fed598");
    (("r2000", "lfk7", "postpass"), "7355bf5c5f977059a014e19827f596db");
    (("r2000", "lfk7", "ips"), "cb2d8acfb1538f3ed31c5c74acfcb59b");
    (("r2000", "lfk7", "rase"), "5c228fe9f3fbb21f4087c09980b1b793");
    (("r2000", "lfk8", "naive"), "fd0e998a6aed99ab643a68932d278f1e");
    (("r2000", "lfk8", "postpass"), "55ae71c6ec56175818c339d3f8f686f9");
    (("r2000", "lfk8", "ips"), "298e9c2de8000584b826171d85f1ab24");
    (("r2000", "lfk8", "rase"), "3e66ac6957e0209248777f28ba24979e");
    (("r2000", "lfk9", "naive"), "34fc6698a4e3b83c6fd1800adfe62e0c");
    (("r2000", "lfk9", "postpass"), "52ec38e0d844ad01432991179fdfdc43");
    (* known-wrong: IPS miscompiles lfk9 here (ROADMAP item 1); the
       allocator fix for partial defs of %equiv pairs re-pins this row *)
    (("r2000", "lfk9", "ips"), "46e8a22bc70f0df5d817a096b2ee22f7");
    (("r2000", "lfk9", "rase"), "3e340a801a3feac51a48ca123059e899");
    (("r2000", "lfk10", "naive"), "201aebe5a1a7a19e691f1dad8b430d1f");
    (("r2000", "lfk10", "postpass"), "e80c3031334414c101afacbde93eb11a");
    (("r2000", "lfk10", "ips"), "9c1d439cd983871100a09a6e87a6ea12");
    (("r2000", "lfk10", "rase"), "11cd4fcfdfb6800d82f977311b2126b9");
    (("r2000", "lfk11", "naive"), "fbd5df23f18856d65deee77086f62b6f");
    (("r2000", "lfk11", "postpass"), "dcf2a2e55868faf1f8d3d8f31bc7d973");
    (("r2000", "lfk11", "ips"), "819e99d35fc664fa5a04eb452c17d4fc");
    (("r2000", "lfk11", "rase"), "85b5da0218f96e2226e8fe3262e74a2c");
    (("r2000", "lfk12", "naive"), "94e214ced5f96d043301e13dd3f88422");
    (("r2000", "lfk12", "postpass"), "3ef63be159b193bb9971b5fb3a4dad52");
    (("r2000", "lfk12", "ips"), "57f70307a6c3765ed261e865fbb6f943");
    (("r2000", "lfk12", "rase"), "dfd3b7c95b23d1b62da3171c7c9b6300");
    (("r2000", "lfk13", "naive"), "76760386a71b1081d18aba33fd2f8485");
    (("r2000", "lfk13", "postpass"), "6041cb92833408a0d1c0393dbd2c6626");
    (("r2000", "lfk13", "ips"), "859a1dba1711d52dbe1b516876b88cb9");
    (("r2000", "lfk13", "rase"), "1340fd3455ee63488dcd9b4777ea4772");
    (("r2000", "lfk14", "naive"), "e8c109ccc8223d12b4a98f951411e0eb");
    (("r2000", "lfk14", "postpass"), "0f3fee139f21a61ac2dd917f2170a286");
    (("r2000", "lfk14", "ips"), "02a3b98a7be03d89282de4ee13f2b2cb");
    (("r2000", "lfk14", "rase"), "02a3b98a7be03d89282de4ee13f2b2cb");
    (("r2000", "suite:matmul", "naive"), "59cd36aa88091b6370592ffd7a942e00");
    (("r2000", "suite:matmul", "postpass"), "7c8fd702f4f1d8b6054e7a68c56ee9d0");
    (("r2000", "suite:matmul", "ips"), "4408f680363ad6857c5e00cfcc7e95dc");
    (("r2000", "suite:matmul", "rase"), "596534491a6c6e2bbba9b4875ddca65e");
    (("r2000", "suite:sieve", "naive"), "9e693d8d8f2ba4d83d8468ea744cac8f");
    (("r2000", "suite:sieve", "postpass"), "600c68d8aa9ec01d980e6107beebd392");
    (("r2000", "suite:sieve", "ips"), "d128493695a33442256d86b96734700d");
    (("r2000", "suite:sieve", "rase"), "8924f2e6d905f493be3de56deaa55b71");
    (("r2000", "suite:sort", "naive"), "45ffbd956ecb59f9b47d0521f02413f8");
    (("r2000", "suite:sort", "postpass"), "819d3462264de51e480c994ad3e8e5a9");
    (("r2000", "suite:sort", "ips"), "b3fb078011e061711abd48246aeca3e4");
    (("r2000", "suite:sort", "rase"), "4c772867376acb163f432b0e43195070");
    (("r2000", "suite:strings", "naive"), "dadcc4a856e2c656d678a5aeb24d1e76");
    (("r2000", "suite:strings", "postpass"), "69b3eb64b6546d2b23a91a908be17d76");
    (("r2000", "suite:strings", "ips"), "8094028a8c387884e2b5841c5c672a37");
    (("r2000", "suite:strings", "rase"), "c9f8f4f4a81a5bd0b76645ff709d41f9");
    (("r2000", "suite:recursion", "naive"), "384d3025f920bc3895551da8789c809b");
    (("r2000", "suite:recursion", "postpass"), "ae4353b855af1a38f02341a6365f0b84");
    (("r2000", "suite:recursion", "ips"), "bd62c2587445061c8059d406474d7ac3");
    (("r2000", "suite:recursion", "rase"), "6fa4b81db0d5977b9d803782fd09100a");
    (("r2000", "suite:poly", "naive"), "dae506971682983aa307fb5bde55160e");
    (("r2000", "suite:poly", "postpass"), "32379f8e0eabaead731b6b2942adcdbc");
    (("r2000", "suite:poly", "ips"), "1f99bca27e033b3fdbb101a0837bf297");
    (("r2000", "suite:poly", "rase"), "10e9241981795a42129bc724344bc05c");
    (("r2000", "suite:lfk1", "naive"), "7874794f93bdbc9ef851a2abf16f3eeb");
    (("r2000", "suite:lfk1", "postpass"), "6e22d097cae3a33374ebf2f5f33db88c");
    (("r2000", "suite:lfk1", "ips"), "70a58c3daff5b30e9e9f3b6ff2792f39");
    (("r2000", "suite:lfk1", "rase"), "f952a022dda01b7e1b96bf3aa9dc4b22");
    (("r2000", "suite:lfk5", "naive"), "79664b5bfce036d28d063fcaa7eaf24f");
    (("r2000", "suite:lfk5", "postpass"), "cdcdd09a238a8b7983d07faee4a0aad9");
    (("r2000", "suite:lfk5", "ips"), "4734686701c535e56be7fd177751605b");
    (("r2000", "suite:lfk5", "rase"), "69207aa7f14e882372becc5d63835e05");
    (("r2000", "suite:lfk7", "naive"), "ec432a4797834c12190a01aba6fed598");
    (("r2000", "suite:lfk7", "postpass"), "7355bf5c5f977059a014e19827f596db");
    (("r2000", "suite:lfk7", "ips"), "cb2d8acfb1538f3ed31c5c74acfcb59b");
    (("r2000", "suite:lfk7", "rase"), "5c228fe9f3fbb21f4087c09980b1b793");
    (("m88000", "lfk1", "naive"), "3f636e6ee01cc898ad7fd7430f7d0aa9");
    (("m88000", "lfk1", "postpass"), "620d267a1a69844660277846c939f06b");
    (("m88000", "lfk1", "ips"), "97202812682439565be82bdc42f5e95f");
    (("m88000", "lfk1", "rase"), "b0fa7d59da7ecfcccbab1234d4874352");
    (("m88000", "lfk2", "naive"), "92d32e368d53d9c2587bd3f812d5585b");
    (("m88000", "lfk2", "postpass"), "403001957714d608c8be007174c0fc1c");
    (("m88000", "lfk2", "ips"), "7c10242b814a51b27aa1e334790fe327");
    (("m88000", "lfk2", "rase"), "e3bb4e7d8ad9e1138cb0bc7788fcf4dc");
    (("m88000", "lfk3", "naive"), "528420cdbfa2e68bfc4817d8b0ad6380");
    (("m88000", "lfk3", "postpass"), "5cac3964a1fb1975edc07547a1940a07");
    (("m88000", "lfk3", "ips"), "f94a91aefb7e4e47630f6db02bf44e74");
    (("m88000", "lfk3", "rase"), "0ca6aa4cf8da97cf15ea5b64e69af53a");
    (("m88000", "lfk4", "naive"), "937fb5fa4442be45599bc3b6d0d05dec");
    (("m88000", "lfk4", "postpass"), "57d5dda92653f9b03c06fd0e53f305a1");
    (("m88000", "lfk4", "ips"), "cb7f09ec4fcd441812cfbffba012f9e6");
    (("m88000", "lfk4", "rase"), "146747d1c2086cd8f6080867eb671617");
    (("m88000", "lfk5", "naive"), "208e57b3181a716fec241442900f97b3");
    (("m88000", "lfk5", "postpass"), "38c61c854f386f48540a89b689ecf6e4");
    (("m88000", "lfk5", "ips"), "b7d2d8761d73bc5c5d1f1a0ecdf0dbad");
    (("m88000", "lfk5", "rase"), "35ef2c064ce073fedb8ce227cf54fd64");
    (("m88000", "lfk6", "naive"), "060b0794b85d06b288615e2890d368c7");
    (("m88000", "lfk6", "postpass"), "d9fa192e24e8dffbde6a8e5039ffab60");
    (("m88000", "lfk6", "ips"), "990c5009d427612188545a41c7a44ac4");
    (("m88000", "lfk6", "rase"), "2fdcfbf6d437638dfbffa0ef8c72c16c");
    (("m88000", "lfk7", "naive"), "0d5174985f56088a1e228fd989362d50");
    (("m88000", "lfk7", "postpass"), "432d20be3e55096f8acce241063366c7");
    (("m88000", "lfk7", "ips"), "4a02c6566ea4833753560fb215648385");
    (("m88000", "lfk7", "rase"), "4a02c6566ea4833753560fb215648385");
    (("m88000", "lfk8", "naive"), "f8440df4c40d8adef2d28a2f29d3a04e");
    (("m88000", "lfk8", "postpass"), "d6f59f19cde7ed78a8143aef404f82f8");
    (("m88000", "lfk8", "ips"), "22a681a2954d12778b5a903af8af01d2");
    (("m88000", "lfk8", "rase"), "023c390d5c3b34d514f40753372be46b");
    (("m88000", "lfk9", "naive"), "4f068e522871127b55a8b692a8c81a61");
    (("m88000", "lfk9", "postpass"), "c9e04aa1d6bde2ccf3f0a10f43ec0039");
    (* known-wrong: IPS miscompiles lfk9 here (ROADMAP item 1); the
       allocator fix for partial defs of %equiv pairs re-pins this row *)
    (("m88000", "lfk9", "ips"), "991bdc54414e14353167f5080c774910");
    (("m88000", "lfk9", "rase"), "6a1f1120b20da13a4b0a71271eed1d3f");
    (("m88000", "lfk10", "naive"), "de6bfe816094768a49274ba5d2e61dbc");
    (("m88000", "lfk10", "postpass"), "ae3c725661cfa174f9f7dd24cd46c820");
    (("m88000", "lfk10", "ips"), "77dd04a5f0700899b9140dab6628df90");
    (("m88000", "lfk10", "rase"), "5ba67bcd9dcf24d8d54993b60cedde6c");
    (("m88000", "lfk11", "naive"), "f0bd5f5fd038fca850dec0f117788d36");
    (("m88000", "lfk11", "postpass"), "1df3b9c55210633dfb388185fecc8c22");
    (("m88000", "lfk11", "ips"), "923877b1d619a21e662d4020830a784f");
    (("m88000", "lfk11", "rase"), "20895e1c06c25739c85998d1e2d60887");
    (("m88000", "lfk12", "naive"), "969130a9eeb8b443c1cf8f0acfd257ef");
    (("m88000", "lfk12", "postpass"), "f5f774ea5e1868eb5b1db9a23b687ba6");
    (("m88000", "lfk12", "ips"), "4a5f35718411d4433df09788467bdcf3");
    (("m88000", "lfk12", "rase"), "31d5b5d1cd42c7af516419a048082515");
    (("m88000", "lfk13", "naive"), "18cd2c78dbe42aad6cba5b94758617da");
    (("m88000", "lfk13", "postpass"), "369d320d13cb3cf9b915c80927cf64d6");
    (("m88000", "lfk13", "ips"), "e1c1e0815f56496f3c0c28421facc5e3");
    (("m88000", "lfk13", "rase"), "c9f972a7722e39bbf0b0ecc8dadc8fb9");
    (("m88000", "lfk14", "naive"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "lfk14", "postpass"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "lfk14", "ips"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "lfk14", "rase"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "suite:matmul", "naive"), "b1023ad06ddac88f887dddcdbcd896fd");
    (("m88000", "suite:matmul", "postpass"), "383c2e2db625a3f449c25fd064b19291");
    (("m88000", "suite:matmul", "ips"), "f6792a0ec5c47a28175bc150ee79e002");
    (("m88000", "suite:matmul", "rase"), "48ae8c470fd3b5aa870f47220b688558");
    (("m88000", "suite:sieve", "naive"), "bd2781fa37ccd1512aec8cf30c9d0251");
    (("m88000", "suite:sieve", "postpass"), "d7cd9a4b4c7f496d1badeb4decf83404");
    (("m88000", "suite:sieve", "ips"), "d45a26a2e8bf5f82f0e431f64c0126d2");
    (("m88000", "suite:sieve", "rase"), "5cb17834f78a19c1213b3e2e60fff885");
    (("m88000", "suite:sort", "naive"), "0a1d880acc8a35e74db958d3cf3d7c30");
    (("m88000", "suite:sort", "postpass"), "3af3f8d7414f6acbe5568a09f84fcd4e");
    (("m88000", "suite:sort", "ips"), "1a6f62f966cb8ea5977b85ae224cf340");
    (("m88000", "suite:sort", "rase"), "65753f95eb95698782b5f1ecd8a3496f");
    (("m88000", "suite:strings", "naive"), "453e61e63f2308f67b8d359ae20d9f7e");
    (("m88000", "suite:strings", "postpass"), "a1630bea41f471189521b6b96a5ec5b2");
    (("m88000", "suite:strings", "ips"), "7ec45b9398066aba51623ad2cbbe38ae");
    (("m88000", "suite:strings", "rase"), "eeb20485b12b2387e04dcb7ff8550723");
    (("m88000", "suite:recursion", "naive"), "f3b1599302b1903ae114f6e732949cde");
    (("m88000", "suite:recursion", "postpass"), "50e5e7c8661917ef22b5d881453bd858");
    (("m88000", "suite:recursion", "ips"), "957b30d7b34c94225c4e48568d950d29");
    (("m88000", "suite:recursion", "rase"), "957b30d7b34c94225c4e48568d950d29");
    (("m88000", "suite:poly", "naive"), "79a32a26552edcf3471930f595c2e598");
    (("m88000", "suite:poly", "postpass"), "ed95456335d70b2cff149c2a3ef7811e");
    (("m88000", "suite:poly", "ips"), "c1cc46628ecff1be3efacc9db31d1e4b");
    (("m88000", "suite:poly", "rase"), "67d9540a1091167c0822ea6f1d174ce8");
    (("m88000", "suite:lfk1", "naive"), "3f636e6ee01cc898ad7fd7430f7d0aa9");
    (("m88000", "suite:lfk1", "postpass"), "620d267a1a69844660277846c939f06b");
    (("m88000", "suite:lfk1", "ips"), "97202812682439565be82bdc42f5e95f");
    (("m88000", "suite:lfk1", "rase"), "b0fa7d59da7ecfcccbab1234d4874352");
    (("m88000", "suite:lfk5", "naive"), "208e57b3181a716fec241442900f97b3");
    (("m88000", "suite:lfk5", "postpass"), "38c61c854f386f48540a89b689ecf6e4");
    (("m88000", "suite:lfk5", "ips"), "b7d2d8761d73bc5c5d1f1a0ecdf0dbad");
    (("m88000", "suite:lfk5", "rase"), "35ef2c064ce073fedb8ce227cf54fd64");
    (("m88000", "suite:lfk7", "naive"), "0d5174985f56088a1e228fd989362d50");
    (("m88000", "suite:lfk7", "postpass"), "432d20be3e55096f8acce241063366c7");
    (("m88000", "suite:lfk7", "ips"), "4a02c6566ea4833753560fb215648385");
    (("m88000", "suite:lfk7", "rase"), "4a02c6566ea4833753560fb215648385");
    (("i860", "lfk1", "naive"), "a4d621f993c598aa80e3acffb2323cd1");
    (("i860", "lfk1", "postpass"), "d6f438b1f9cae31c47fa1ff700f95fe9");
    (("i860", "lfk1", "ips"), "2fdd67abfb21dfd9979482bd9efb1b23");
    (("i860", "lfk1", "rase"), "b3ffecf490c0adcfa3ad8b4c9c1a2a94");
    (("i860", "lfk2", "naive"), "84b490f17d4bf58364f553d7eb8d941b");
    (("i860", "lfk2", "postpass"), "59109aa0c03f7471630dee6a8217a326");
    (("i860", "lfk2", "ips"), "99c12f176104177e1ed189260c9c0fd3");
    (("i860", "lfk2", "rase"), "d7c11917a4d8030d4f92133ba780f7df");
    (("i860", "lfk3", "naive"), "40f4cea8db7191f536edad338f725626");
    (("i860", "lfk3", "postpass"), "ae4efbee93fb3dba61e147d070fcdf50");
    (("i860", "lfk3", "ips"), "ce7277fd09d3a91fdd9c46c7437cf06b");
    (("i860", "lfk3", "rase"), "ce7277fd09d3a91fdd9c46c7437cf06b");
    (("i860", "lfk4", "naive"), "e90c17229e8d5388ab4e420eafa40133");
    (("i860", "lfk4", "postpass"), "f10464656d46ae90fbbca27658f49873");
    (("i860", "lfk4", "ips"), "f43ee69bbd5b2df025cb169c40017df7");
    (("i860", "lfk4", "rase"), "b05abaded41e0b9569a6b8d692cb3a2b");
    (("i860", "lfk5", "naive"), "120f3400e4e1705386b3c19669df93ed");
    (("i860", "lfk5", "postpass"), "875239548da66510134fed282257c138");
    (("i860", "lfk5", "ips"), "6e45812a25d2ab00c6c796903ee6cab4");
    (("i860", "lfk5", "rase"), "3f94b08616c294eb7211bdf06b443e38");
    (("i860", "lfk6", "naive"), "f3a46df9f3fa330baf5a6b3a49dd2e42");
    (("i860", "lfk6", "postpass"), "f67e4b79d29f9796faa57eefb85c43fe");
    (("i860", "lfk6", "ips"), "8c10270ae69c27bafd3fc02885873f03");
    (("i860", "lfk6", "rase"), "87fd8050b3857c5425f0fd8ff4fc6adf");
    (("i860", "lfk7", "naive"), "4f835ecbc05055a29f6c8a65da4697e4");
    (("i860", "lfk7", "postpass"), "35c32fd3a076da8a7d60f7483ffb5b31");
    (("i860", "lfk7", "ips"), "5c11f24fb0eebbe8d84fcd9da75565fa");
    (("i860", "lfk7", "rase"), "cc8cf9b389b5083bb9ab53fea8727b29");
    (("i860", "lfk8", "naive"), "b124555f1778712028f6e9ff62315fbb");
    (("i860", "lfk8", "postpass"), "ce2a538a32fccbe5951ce699d7bf8b71");
    (("i860", "lfk8", "ips"), "6f5d825c89a318db532afc52eb5e9fda");
    (("i860", "lfk8", "rase"), "c43a9b550584353fcd5c0df4d576c11c");
    (("i860", "lfk9", "naive"), "4bbda13571fd723167d523ba6c3b8eb4");
    (("i860", "lfk9", "postpass"), "817295f74a01cbf146fc27fc7c07279d");
    (("i860", "lfk9", "ips"), "55d896dc527f20b3b9306f8b9febe937");
    (("i860", "lfk9", "rase"), "9c3b72c2f1ef4661330652feecdf2c7a");
    (("i860", "lfk10", "naive"), "612546ebf708e0316381edbbbdbd12b8");
    (("i860", "lfk10", "postpass"), "fa8a06e95ccce6c0ad3b771315a8377c");
    (("i860", "lfk10", "ips"), "0d81bc8b7976aceaa83ab1ab4e0b90f5");
    (("i860", "lfk10", "rase"), "d97f9d510243a87e09329fd9e3c8d2e5");
    (("i860", "lfk11", "naive"), "c79174eb0b68e0c1af7249d089727cab");
    (("i860", "lfk11", "postpass"), "8a947f0671a5d7da51edca9ead045603");
    (("i860", "lfk11", "ips"), "73cd6901b5b5bb90e3c84a6cac174bef");
    (("i860", "lfk11", "rase"), "c62570ba9ffdc1c4080bc34bdb17a253");
    (("i860", "lfk12", "naive"), "4103dac7c7435165d5fdefc2c12b39b7");
    (("i860", "lfk12", "postpass"), "5f385a1703215c014ce5f9bfc408e198");
    (("i860", "lfk12", "ips"), "7c65405508ac575000ea7f0400df041f");
    (("i860", "lfk12", "rase"), "b8b723066fb5008ed8b9745a13151e93");
    (("i860", "lfk13", "naive"), "cc4cf253e8fd59376d1eb05ddc143b5f");
    (("i860", "lfk13", "postpass"), "1127f99ad0d26b5055083cbe39a0175c");
    (("i860", "lfk13", "ips"), "ca09aee7653224edd73f352341e6172d");
    (("i860", "lfk13", "rase"), "0242449d725fd550c72518e39dba56ae");
    (("i860", "lfk14", "naive"), "7772248da446cf57ada4243ebc1c0ad2");
    (("i860", "lfk14", "postpass"), "d50cd9e07a9f24d60892db6dbf02a261");
    (("i860", "lfk14", "ips"), "c0c3a5b30718e72a85bd8eec2d87041b");
    (("i860", "lfk14", "rase"), "aec0d1d887485f77b394bc7aa47cb610");
    (("i860", "suite:matmul", "naive"), "39ae234474e5cccfa83fee410ec5704b");
    (("i860", "suite:matmul", "postpass"), "c7606961fa97d9b0be15af31dcbc24c7");
    (("i860", "suite:matmul", "ips"), "25f72c8117e0edc78185bab3b89482d0");
    (("i860", "suite:matmul", "rase"), "a52ba9c401f367b96ad7f7e8fda73374");
    (("i860", "suite:sieve", "naive"), "1025a9160028784c061cf0217740adb5");
    (("i860", "suite:sieve", "postpass"), "91e4c9d58b1c6ce66e701e96e21068fd");
    (("i860", "suite:sieve", "ips"), "c7614fe8636f92f574a8d35b7a59fa5c");
    (("i860", "suite:sieve", "rase"), "ceca033cde0757c05ee3b92b0cfbbd9f");
    (("i860", "suite:sort", "naive"), "711f53ae506cc4aacdcac7dfbbaed1bc");
    (("i860", "suite:sort", "postpass"), "8db63eb1be73f999f8036a00a6d5df80");
    (("i860", "suite:sort", "ips"), "dbc5c61413c66d43e8246f61d7125964");
    (("i860", "suite:sort", "rase"), "d20b3299bf891cf0630249be33ee354e");
    (("i860", "suite:strings", "naive"), "c88d3d1a56bbee4e532ff174fc34f320");
    (("i860", "suite:strings", "postpass"), "7e12f501193747d1e9009fc05bf1e0c3");
    (("i860", "suite:strings", "ips"), "b5360c2372331000bdb52daa29ae6a10");
    (("i860", "suite:strings", "rase"), "0ebacfd671b2a2082d4cc7acbe5d02d7");
    (("i860", "suite:recursion", "naive"), "bbde21e9c855220670145fb7e23b1dda");
    (("i860", "suite:recursion", "postpass"), "50f32814c652fb929d41bd58e712d685");
    (("i860", "suite:recursion", "ips"), "c625b8b378de8c159832df224c2eb604");
    (("i860", "suite:recursion", "rase"), "408c8853c19b10659d73bcbe9d4e29f4");
    (("i860", "suite:poly", "naive"), "49ebcccf15dd36a3aedb32c54cf61caa");
    (("i860", "suite:poly", "postpass"), "b8fa8018ef9d6dc4a48df5573bd7c81e");
    (("i860", "suite:poly", "ips"), "0f57a89c23d55d2cc0952b8c966d3f6a");
    (("i860", "suite:poly", "rase"), "0f57a89c23d55d2cc0952b8c966d3f6a");
    (("i860", "suite:lfk1", "naive"), "a4d621f993c598aa80e3acffb2323cd1");
    (("i860", "suite:lfk1", "postpass"), "d6f438b1f9cae31c47fa1ff700f95fe9");
    (("i860", "suite:lfk1", "ips"), "2fdd67abfb21dfd9979482bd9efb1b23");
    (("i860", "suite:lfk1", "rase"), "b3ffecf490c0adcfa3ad8b4c9c1a2a94");
    (("i860", "suite:lfk5", "naive"), "120f3400e4e1705386b3c19669df93ed");
    (("i860", "suite:lfk5", "postpass"), "875239548da66510134fed282257c138");
    (("i860", "suite:lfk5", "ips"), "6e45812a25d2ab00c6c796903ee6cab4");
    (("i860", "suite:lfk5", "rase"), "3f94b08616c294eb7211bdf06b443e38");
    (("i860", "suite:lfk7", "naive"), "4f835ecbc05055a29f6c8a65da4697e4");
    (("i860", "suite:lfk7", "postpass"), "35c32fd3a076da8a7d60f7483ffb5b31");
    (("i860", "suite:lfk7", "ips"), "5c11f24fb0eebbe8d84fcd9da75565fa");
    (("i860", "suite:lfk7", "rase"), "cc8cf9b389b5083bb9ab53fea8727b29");
  ]

(* the cells whose allocation fails today, with the exact message *)
let alloc_errors =
  [
    ( ("toyp", "suite:poly", "ips"),
      "register allocation: spill temporary %p25 cannot be colored and has \
       no spillable neighbour" );
    ( ("toyp", "suite:poly", "rase"),
      "register allocation: spill temporary %p25 cannot be colored and has \
       no spillable neighbour" );
  ]

let test_alloc_contract () =
  let errors = ref [] in
  List.iter
    (fun (tname, load) ->
      let model = load () in
      List.iter
        (fun ((file, _) as source) ->
          List.iter
            (fun s ->
              let cell = (tname, file, Strategy.to_string s) in
              let blob = alloc_blob model source s in
              String.split_on_char '\n' blob
              |> List.iter (fun l ->
                     match String.starts_with ~prefix:"error: " l with
                     | true ->
                         errors :=
                           (cell, String.sub l 7 (String.length l - 7))
                           :: !errors
                     | false -> ());
              check Alcotest.string
                (Printf.sprintf "%s %s %s allocation digest" tname file
                   (Strategy.to_string s))
                (List.assoc cell alloc_goldens)
                (Digest.to_hex (Digest.string blob)))
            Strategy.all)
        (corpus ()))
    targets;
  check
    Alcotest.(list (pair (triple string string string) string))
    "cells that fail in allocation" alloc_errors (List.rev !errors)

(* ---------------- per-model register tables ---------------- *)

(* the list versions the select phase called per node before the
   tables existed *)
let reference_available_regs model max_local cls =
  let all = Model.allocable_of_class model cls in
  match max_local with
  | None -> all
  | Some k -> List.filteri (fun i _ -> i < k) all

let reference_color_order model regs =
  let caller, callee =
    List.partition (fun r -> not (Model.is_callee_save model r)) regs
  in
  caller @ callee

(* TOYP with 32 integer registers under 16 doubles, allocable in a mixed
   order, and callee-save registers under both low and high doubles *)
let many_doubles () =
  let edit (a, b) s =
    let n = String.length a in
    let rec at k =
      if k + n > String.length s then
        Alcotest.failf "TOYP description lacks %S" a
      else if String.sub s k n = a then
        String.sub s 0 k ^ b ^ String.sub s (k + n) (String.length s - k - n)
      else at (k + 1)
    in
    at 0
  in
  List.fold_right edit
    [
      ("%reg r[0:7]", "%reg r[0:31]");
      ("%reg d[0:3]", "%reg d[0:15]");
      ("%allocable r[1:5], d[1:2];", "%allocable d[3:15], r[1:5], d[1:2], r[8:29];");
      ("%calleesave r[4:7];", "%calleesave r[4:7], r[20:31];");
    ]
    Toyp.description
  |> Builder.load ~name:"many-doubles" ~file:"<many-doubles.maril>"

let test_register_tables () =
  List.iter
    (fun (tname, model) ->
      let tab = Regtab.get model in
      check Alcotest.bool (tname ^ " tables are memoized") true
        (Regtab.get model == tab);
      let regs = Array.to_list tab.Regtab.regs in
      let name r = Format.asprintf "%a" (Model.pp_reg model) r in
      let names ids = List.map (fun a -> name tab.Regtab.regs.(a)) ids in
      List.iteri
        (fun h r ->
          check Alcotest.int (tname ^ " id of " ^ name r) h (Regtab.id tab r);
          check Alcotest.bool
            (tname ^ " callee-save " ^ name r)
            (Model.is_callee_save model r) tab.Regtab.callee_save.(h);
          check
            Alcotest.(list string)
            (tname ^ " overlap set of " ^ name r)
            (List.map name
               (List.sort_uniq compare
                  (List.filter (Model.regs_overlap model r)
                     model.Model.cwvm.Model.v_allocable)))
            (names (Array.to_list tab.Regtab.overlaps.(h))))
        regs;
      Array.iter
        (fun (c : Model.rclass) ->
          let cls = c.Model.c_id in
          List.iter
            (fun idx ->
              match Regtab.id tab { Model.cls; idx } with
              | h ->
                  Alcotest.failf "%s %s[%d] outside the class got id %d" tname
                    c.Model.c_name idx h
              | exception Invalid_argument _ -> ())
            [ c.Model.c_lo - 1; c.Model.c_hi + 1 ];
          let n = List.length (Model.allocable_of_class model cls) in
          List.iter
            (fun max_local ->
              check
                Alcotest.(list string)
                (Printf.sprintf "%s %s colors at max_local %s" tname
                   c.Model.c_name
                   (match max_local with
                   | None -> "None"
                   | Some k -> string_of_int k))
                (List.map name
                   (reference_color_order model
                      (reference_available_regs model max_local cls)))
                (names (Array.to_list (Regtab.colors tab max_local cls))))
            (None :: List.init (n + 1) Option.some))
        model.Model.classes)
    (("many-doubles", many_doubles ())
    :: List.map (fun (t, load) -> (t, load ())) targets)

(* ---------------- liveness (QCheck differential) ---------------- *)

(* The allocator's liveness before it moved to dense keys, transcribed:
   [Kp]/[Kh] keys in a [Set] on polymorphic compare, facts per label.
   The reference the bitset version must reproduce exactly. *)
module Reference_liveness = struct
  type key = Kp of int | Kh of int * int

  module KeySet = Set.Make (struct
    type t = key

    let compare = compare
  end)

  let key_of_reg = function
    | `Preg (p : Mir.preg) -> Kp p.Mir.p_id
    | `Phys (r : Model.reg) -> Kh (r.Model.cls, r.Model.idx)

  let inst_uses (i : Mir.inst) =
    List.map key_of_reg (Mir.inst_uses i)
    @ List.map (fun r -> key_of_reg (`Phys r)) i.Mir.n_xuse

  let inst_defs (i : Mir.inst) =
    List.map key_of_reg (Mir.inst_defs i)
    @ List.map (fun r -> key_of_reg (`Phys r)) i.Mir.n_xdef

  let block_use_def (b : Mir.block) =
    let use = ref KeySet.empty and def = ref KeySet.empty in
    List.iter
      (fun i ->
        List.iter
          (fun k -> if not (KeySet.mem k !def) then use := KeySet.add k !use)
          (inst_uses i);
        List.iter (fun k -> def := KeySet.add k !def) (inst_defs i))
      b.Mir.b_insts;
    (!use, !def)

  let compute (fn : Mir.func) =
    let blocks = fn.Mir.f_blocks in
    let ud = Hashtbl.create 16 in
    List.iter
      (fun (b : Mir.block) -> Hashtbl.replace ud b.Mir.b_label (block_use_def b))
      blocks;
    let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
    List.iter
      (fun (b : Mir.block) ->
        Hashtbl.replace live_in b.Mir.b_label KeySet.empty;
        Hashtbl.replace live_out b.Mir.b_label KeySet.empty)
      blocks;
    let exit_label =
      match List.rev blocks with
      | (b : Mir.block) :: _ -> Some b.Mir.b_label
      | [] -> None
    in
    let seeded =
      if fn.Mir.f_has_calls then KeySet.empty
      else
        KeySet.singleton
          (key_of_reg (`Phys fn.Mir.f_model.Model.cwvm.Model.v_retaddr))
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Mir.block) ->
          let out =
            List.fold_left
              (fun acc l ->
                match Hashtbl.find_opt live_in l with
                | Some s -> KeySet.union acc s
                | None -> acc)
              (if Some b.Mir.b_label = exit_label then seeded else KeySet.empty)
              b.Mir.b_succs
          in
          let use, def = Hashtbl.find ud b.Mir.b_label in
          let inn = KeySet.union use (KeySet.diff out def) in
          if not (KeySet.equal out (Hashtbl.find live_out b.Mir.b_label)) then begin
            Hashtbl.replace live_out b.Mir.b_label out;
            changed := true
          end;
          if not (KeySet.equal inn (Hashtbl.find live_in b.Mir.b_label)) then begin
            Hashtbl.replace live_in b.Mir.b_label inn;
            changed := true
          end)
        (List.rev blocks)
    done;
    (live_in, live_out)
end

(* A random function on r2000: integer, single (the %equiv halves) and
   double operations over a few pseudos of each class and any hard
   register of the class, implicit uses and defs of any hard register,
   and successor lists with self-loops, loops with no exit, unreachable
   blocks and labels naming no block. *)
type ginst = {
  form : int;  (* 0 addu r, 1 add.s f, 2 add.d d *)
  opnds : (bool * int) list;  (* (pseudo?, pick) for $1 $2 $3 *)
  xuse : int list;  (* hard register ids *)
  xdef : int list;
}

type gfunc = {
  gblocks : (ginst list * int list) list;  (* insts, successors (-1: none) *)
  has_calls : bool;
}

let r2000 = lazy (R2000.load ())

let gen_gfunc =
  let open QCheck2.Gen in
  let n_hard = (Regtab.get (Lazy.force r2000)).Regtab.n_hard in
  let ginst =
    let* form = int_bound 2 in
    let* opnds = list_repeat 3 (pair bool (int_bound 99)) in
    let* xuse = list_size (int_bound 2) (int_bound (n_hard - 1)) in
    let+ xdef = list_size (int_bound 2) (int_bound (n_hard - 1)) in
    { form; opnds; xuse; xdef }
  in
  let* nb = int_range 1 7 in
  let* gblocks =
    list_repeat nb
      (pair
         (list_size (int_bound 5) ginst)
         (list_size (int_bound 2) (int_range (-1) (nb - 1))))
  in
  let+ has_calls = bool in
  { gblocks; has_calls }

let build_gfunc g =
  let model = Lazy.force r2000 in
  let tab = Regtab.get model in
  let fn = Mir.new_func model "f" in
  fn.Mir.f_has_calls <- g.has_calls;
  let forms =
    List.map
      (fun (op, cls) ->
        let c = Option.get (Model.find_class model cls) in
        ( List.find
            (fun (i : Model.instr) -> not i.Model.i_escape)
            (Model.instrs_by_name model op),
          c,
          Array.init 4 (fun _ -> Mir.fresh_preg fn c.Model.c_id) ))
      [ ("addu", "r"); ("add.s", "f"); ("add.d", "d") ]
  in
  let label k = if k < 0 then "nowhere" else Printf.sprintf "b%d" k in
  fn.Mir.f_blocks <-
    List.mapi
      (fun k (insts, succs) ->
        let b = Mir.new_block (label k) in
        b.Mir.b_succs <- List.map label succs;
        b.Mir.b_insts <-
          List.map
            (fun gi ->
              let op, (c : Model.rclass), pregs = List.nth forms gi.form in
              let opnd (pseudo, pick) =
                if pseudo then Mir.Opreg pregs.(pick mod Array.length pregs)
                else
                  Mir.Ophys
                    {
                      Model.cls = c.Model.c_id;
                      idx =
                        c.Model.c_lo + (pick mod (c.Model.c_hi - c.Model.c_lo + 1));
                    }
              in
              let hard = List.map (fun h -> tab.Regtab.regs.(h)) in
              Mir.mk_inst ~xuse:(hard gi.xuse) ~xdef:(hard gi.xdef) fn op
                (Array.of_list (List.map opnd gi.opnds)))
            insts;
        b)
      g.gblocks;
  fn

let print_gfunc g =
  let fn = build_gfunc g in
  Format.asprintf "calls=%b@.%a%s" g.has_calls Mir.pp_func fn
    (String.concat "\n"
       (List.map
          (fun (b : Mir.block) ->
            Printf.sprintf "%s -> %s" b.Mir.b_label
              (String.concat " " b.Mir.b_succs))
          fn.Mir.f_blocks))

let prop_liveness_matches_reference =
  QCheck2.Test.make ~name:"liveness == KeySet reference" ~count:500
    ~print:print_gfunc gen_gfunc (fun g ->
      let fn = build_gfunc g in
      let live = Liveness.compute fn in
      let ref_in, ref_out = Reference_liveness.compute fn in
      let dense set =
        List.sort compare
          (List.map
             (function
               | Reference_liveness.Kp id -> id
               | Reference_liveness.Kh (cls, idx) ->
                   Liveness.hard_key live { Model.cls; idx })
             (Reference_liveness.KeySet.elements set))
      in
      List.for_all
        (fun (b : Mir.block) ->
          let l = b.Mir.b_label in
          Bitset.to_list (Liveness.live_in live l) = dense (Hashtbl.find ref_in l)
          && Bitset.to_list (Liveness.live_out live l)
             = dense (Hashtbl.find ref_out l))
        fn.Mir.f_blocks)

(* ---------------- simplify order (QCheck differential) ---------------- *)

type sgraph = {
  adj : int array array;
  size : int array;
  avail : int array;
  forbidden : int array;
  cost : float array;
  no_spill : bool array;
}

(* The list/Hashtbl simplify loop Regalloc.try_color ran before
   Regalloc.simplify existed, transcribed verbatim over the same array
   inputs (node ids are the indices, already in p_id order): the
   reference the incremental version must reproduce exactly. *)
let reference_simplify g =
  let module IntSet = Set.Make (Int) in
  let adj = Array.map (fun a -> IntSet.of_list (Array.to_list a)) g.adj in
  let blocking u v = (g.size.(v) + g.size.(u) - 1) / g.size.(u) in
  let remaining = List.init (Array.length g.adj) Fun.id in
  let removed : (int, unit) Hashtbl.t = Hashtbl.create 64 in
  let stack = ref [] in
  let n_remaining = ref (List.length remaining) in
  let degree_ok u =
    let avail = g.avail.(u) in
    let blocked =
      IntSet.fold
        (fun vid acc ->
          if Hashtbl.mem removed vid then acc else acc + blocking u vid)
        adj.(u) g.forbidden.(u)
    in
    blocked < avail
  in
  while !n_remaining > 0 do
    let candidates =
      List.filter (fun u -> not (Hashtbl.mem removed u)) remaining
    in
    let pick =
      match List.find_opt degree_ok candidates with
      | Some u -> u
      | None ->
          let weight u =
            let deg = IntSet.cardinal adj.(u) + 1 in
            (if g.no_spill.(u) then 1e18 else g.cost.(u)) /. float_of_int deg
          in
          List.fold_left
            (fun best u ->
              match best with
              | None -> Some u
              | Some b -> if weight u < weight b then Some u else best)
            None candidates
          |> Option.get
    in
    Hashtbl.replace removed pick ();
    stack := pick :: !stack;
    decr n_remaining
  done;
  Array.of_list (List.rev !stack)

(* random interference graphs: 1- and 2-word classes, precolored
   conflicts, spill temporaries, and costs from a small set so weights
   tie often *)
let gen_sgraph =
  let open QCheck2.Gen in
  let* n = int_range 0 40 in
  let* density = int_range 0 100 in
  let* pairs =
    list_size (return (n * n / 2))
      (pair (int_bound (max 0 (n - 1))) (int_bound (max 0 (n - 1))))
  in
  let* picks = list_repeat (List.length pairs) (int_bound 99) in
  let* words = array_repeat n (int_range 1 2) in
  let* avail = array_repeat n (int_range 1 8) in
  let* forbidden = array_repeat n (int_range 0 3) in
  let* cost = array_repeat n (map (fun k -> float_of_int (k * 10)) (int_bound 4)) in
  let+ no_spill = array_repeat n (map (fun k -> k = 0) (int_bound 4)) in
  let edges = Array.make n [] in
  List.iter2
    (fun (u, v) pick ->
      if u <> v && pick < density && not (List.mem v edges.(u)) then begin
        edges.(u) <- v :: edges.(u);
        edges.(v) <- u :: edges.(v)
      end)
    pairs picks;
  {
    adj = Array.map Array.of_list edges;
    size = Array.map (fun w -> 4 * w) words;
    avail;
    forbidden;
    cost;
    no_spill;
  }

let print_sgraph g =
  String.concat "\n"
    (List.init (Array.length g.adj) (fun u ->
         Printf.sprintf "%d: size=%d avail=%d forbidden=%d cost=%g%s adj=[%s]"
           u g.size.(u) g.avail.(u) g.forbidden.(u) g.cost.(u)
           (if g.no_spill.(u) then " no_spill" else "")
           (String.concat " " (Array.to_list (Array.map string_of_int g.adj.(u))))))

let prop_simplify_matches_reference =
  QCheck2.Test.make ~name:"simplify == list/Hashtbl reference" ~count:500
    ~print:print_sgraph gen_sgraph (fun g ->
      Regalloc.simplify ~adj:g.adj ~size:g.size ~avail:g.avail
        ~forbidden:g.forbidden ~cost:g.cost ~no_spill:g.no_spill
      = reference_simplify g)

let suite =
  [
    Alcotest.test_case "allocation completes, no pregs left" `Quick
      test_allocation_completes;
    Alcotest.test_case "spilling under pressure" `Quick test_spilling_under_pressure;
    Alcotest.test_case "register pair aliasing respected" `Quick
      test_pair_aliasing_respected;
    Alcotest.test_case "identity moves coalesced" `Quick test_identity_moves_coalesced;
    Alcotest.test_case "callee-save registers recorded" `Quick
      test_callee_save_recorded;
    Alcotest.test_case "local-only baseline spills globals" `Quick
      test_forbid_globals_spills;
    Alcotest.test_case "max_local budget forces spills" `Quick test_max_local_budget;
    Alcotest.test_case "loop depth detection" `Quick test_liveness_loop_depth;
    Alcotest.test_case "liveness basics" `Quick test_liveness_basic;
    Alcotest.test_case "liveness in a loop with no exit" `Quick
      test_liveness_no_exit_loop;
    QCheck_alcotest.to_alcotest prop_simplify_matches_reference;
    QCheck_alcotest.to_alcotest prop_liveness_matches_reference;
    Alcotest.test_case "register tables vs the list versions" `Quick
      test_register_tables;
    Alcotest.test_case "allocation contract digests" `Slow test_alloc_contract;
  ]
