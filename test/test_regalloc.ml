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
     live across the entry->loop edge even though no path reaches an exit *)
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
  let key = Locs.pseudo (Regtab.get m) p in
  check Alcotest.bool "live out of entry" true
    (Bitset.mem (Liveness.live_out live "entry") key);
  check Alcotest.bool "live into the loop" true
    (Bitset.mem (Liveness.live_in live "loop") key)

let test_victim_tie_break () =
  (* On TOYP, with the hard double d1 (over r2, r3) live across the
     [add] that reads spilled %p2 and %p3, both reload temporaries are
     simplified first but only one finds a color, so the other must pick
     a neighbouring victim to spill. Its ordinary neighbours %p0 and %p1
     have equal spill costs; the lowest p_id goes to memory. *)
  let m = Lazy.force toyp in
  let add = List.hd (Model.instrs_by_name m "add") in
  let fadd = List.hd (Model.instrs_by_name m "fadd.d") in
  let cid name = (Option.get (Model.find_class m name)).Model.c_id in
  let r idx = Mir.Ophys { Model.cls = cid "r"; idx } in
  let d idx = Mir.Ophys { Model.cls = cid "d"; idx } in
  let fn = Mir.new_func m "f" in
  fn.Mir.f_has_calls <- true;
  let a = Mir.fresh_preg fn (cid "r") and b = Mir.fresh_preg fn (cid "r") in
  let s = Mir.fresh_preg fn (cid "r") and u = Mir.fresh_preg fn (cid "r") in
  let i op ops = Mir.mk_inst fn op ops and p q = Mir.Opreg q in
  let entry = Mir.new_block "entry" in
  entry.Mir.b_insts <-
    [
      i add [| p a; r 0; r 0 |];
      i add [| p b; r 0; r 0 |];
      i add [| r 6; r 0; r 0 |];
      i add [| r 7; r 0; r 0 |];
      i add [| p s; r 0; r 0 |];
      i add [| p u; r 0; r 0 |];
      i fadd [| d 1; d 3; d 3 |];
      i add [| r 7; p s; p u |];
      i fadd [| d 3; d 1; d 1 |];
      i add [| r 7; p a; p b |];
      i add [| r 7; p a; p b |];
    ];
  fn.Mir.f_blocks <- [ entry ];
  ignore (Regalloc.allocate fn);
  let where (q : Mir.preg) =
    match List.assoc q.Mir.p_id fn.Mir.f_locations with
    | Mir.Lslot _ -> "slot"
    | Mir.Lreg _ -> "reg"
  in
  check Alcotest.(list string) "victim is the lowest p_id" [ "slot"; "reg" ]
    [ where a; where b ]

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

(* the strategy's passes before its allocation pass, and that pass *)
let split_at_alloc strategy =
  let rec split acc = function
    | p :: _ when is_alloc_pass p -> (List.rev acc, p)
    | p :: rest -> split (p :: acc) rest
    | [] -> Alcotest.fail "pipeline has no allocation pass"
  in
  split [] (Strategy.pipeline strategy)

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
      let prefix, alloc = split_at_alloc strategy in
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
   moved to dense ids. The rows that liveness of half-register writes
   and the reuse of a reload across adjacent reads moved are re-pinned
   (CHANGES.md lists them). Never regenerate a row to absorb a
   difference: a change that is meant to move allocations re-pins
   exactly the rows it moves and says why. *)
let alloc_goldens =
  [
    (("toyp", "lfk1", "naive"), "62cd2eac24f4ac3a9d759e377329ce79");
    (("toyp", "lfk1", "postpass"), "e27331ae719af5091d24d3a0edcb5ad6");
    (("toyp", "lfk1", "ips"), "928dc9022f78bc4c0b541dd0d1831c6e");
    (("toyp", "lfk1", "rase"), "837ed9f0ea8df5ffa7d9872efeed5c61");
    (("toyp", "lfk2", "naive"), "d9c19e13ce0ecc4b9160e2f99f44fe1a");
    (("toyp", "lfk2", "postpass"), "248f7d5afbfeceb99a0f8b7576ab13e8");
    (("toyp", "lfk2", "ips"), "35fcee1be928b1265d99333c3eae1a22");
    (("toyp", "lfk2", "rase"), "3957d7a953a1a2b7c3cbfaebe2fbaf1b");
    (("toyp", "lfk3", "naive"), "423d72d2d3916673a139ab36cecefe63");
    (("toyp", "lfk3", "postpass"), "380cf960edeae20ea51f45f9908cb0b3");
    (("toyp", "lfk3", "ips"), "12aa722fb5505df5afd5e6d7f04bb8f9");
    (("toyp", "lfk3", "rase"), "2e41195a33f396b74cf2add619c64723");
    (("toyp", "lfk4", "naive"), "beb19d1fb35180e3b470f130698367ab");
    (("toyp", "lfk4", "postpass"), "eb90469c3b897f6015ab187537999369");
    (("toyp", "lfk4", "ips"), "725741cdd56a0cad15ee7eeb2bcf8aed");
    (("toyp", "lfk4", "rase"), "dc2ba6928845a6c8488e97e30dfcf2fe");
    (("toyp", "lfk5", "naive"), "e9158bec52093a5266c74f027e67776f");
    (("toyp", "lfk5", "postpass"), "faa04134567f6def7230121297197d6a");
    (("toyp", "lfk5", "ips"), "1017fbd3483a92aea53416d9e120e071");
    (("toyp", "lfk5", "rase"), "176bf8f9907bf157aad43b44b85776b9");
    (("toyp", "lfk6", "naive"), "c8e929fa4858a8d9212f975dfb0e6e4f");
    (("toyp", "lfk6", "postpass"), "03d8e9bd26547b6348697aa0651fa2da");
    (("toyp", "lfk6", "ips"), "4e304bc6fd16fbc70f27f5be9a50a464");
    (("toyp", "lfk6", "rase"), "3c12add185608d747b795a1296324b3b");
    (("toyp", "lfk7", "naive"), "c80496fc09b57b3027c64247579c4494");
    (("toyp", "lfk7", "postpass"), "1799cdffa510824d8b19c594e6bb1423");
    (("toyp", "lfk7", "ips"), "0bd483f9d11d01b97118038a051b795a");
    (("toyp", "lfk7", "rase"), "0e161af0479f56dfa1bab6d395b5f742");
    (("toyp", "lfk8", "naive"), "a303b8f2e27f8fef4821d7bd5e3d9fe4");
    (("toyp", "lfk8", "postpass"), "41c740354d8003f643fa41989aa5a7ad");
    (("toyp", "lfk8", "ips"), "cdd0f1491aa8fe15509fe712ee42f2f1");
    (("toyp", "lfk8", "rase"), "a5ed74eede36cf9d88249e7e6f30154c");
    (("toyp", "lfk9", "naive"), "2340e3dad58969ff9478a3fe88a03992");
    (("toyp", "lfk9", "postpass"), "cdddaed7860d77bd15d32723d5aea6f5");
    (("toyp", "lfk9", "ips"), "83614fe28c5bf9e02d89d8ba5d798731");
    (("toyp", "lfk9", "rase"), "c6f58ce6e96347101fe43f18c903c089");
    (("toyp", "lfk10", "naive"), "041fce6d48ff1fad5d5587599c19e899");
    (("toyp", "lfk10", "postpass"), "ecfc3ca4bff3eb518fa5a2702ff5c6a5");
    (("toyp", "lfk10", "ips"), "a20c1846bff3f877197779b52a0ab486");
    (("toyp", "lfk10", "rase"), "1b8e5c0b13b0e3bbdfc815f49c038675");
    (("toyp", "lfk11", "naive"), "ae32a63fa77280d473c0eda5e07e9023");
    (("toyp", "lfk11", "postpass"), "49471e7b095e0639eed21e6d5260261e");
    (("toyp", "lfk11", "ips"), "08cbfeb66dfef994c2cb6304481b0f33");
    (("toyp", "lfk11", "rase"), "bbbb0e8841a048cbe992fed724baef5d");
    (("toyp", "lfk12", "naive"), "5bc9de95e24e7d6f65949356c9e4f878");
    (("toyp", "lfk12", "postpass"), "c39c25a7fc1b3c9768d58f3a33944479");
    (("toyp", "lfk12", "ips"), "61718ab850cac25a9453e7b68d26eb49");
    (("toyp", "lfk12", "rase"), "31eca231232b7fca2b6d30cef46e080e");
    (("toyp", "lfk13", "naive"), "898c85075b596353c3bc07c38aa6c773");
    (("toyp", "lfk13", "postpass"), "75e061141ac98c6597f1887292da96eb");
    (("toyp", "lfk13", "ips"), "4d1062f9162e2a4ff5a16490e4484579");
    (("toyp", "lfk13", "rase"), "1dcd9ebfbf72900e74ea04e9a8fa10ad");
    (("toyp", "lfk14", "naive"), "01e4165dfc8afa2b90b16d2c1f610479");
    (("toyp", "lfk14", "postpass"), "5dafa5351df18508427df6f00a82079c");
    (("toyp", "lfk14", "ips"), "5b2d74ae00721ab41074ccbe287c7255");
    (("toyp", "lfk14", "rase"), "1d25e464aa4f8241345823bd58e21b0b");
    (("toyp", "suite:matmul", "naive"), "6108c94471514a1fdd21adcf7b6ba76d");
    (("toyp", "suite:matmul", "postpass"), "25a6f3efea8acc2f4f58017624f66b19");
    (("toyp", "suite:matmul", "ips"), "0178d2ef33ffd9f4f7abeb20b539b5a9");
    (("toyp", "suite:matmul", "rase"), "9e214774f66c24791f79069a285f93e5");
    (("toyp", "suite:sieve", "naive"), "e84d04f9c62f903fb6a7c3423ba9d31d");
    (("toyp", "suite:sieve", "postpass"), "5d4c12cf24da60a6baf6dad94180eeb5");
    (("toyp", "suite:sieve", "ips"), "47e0f631a89105cdb80c1b44f3a5c221");
    (("toyp", "suite:sieve", "rase"), "8730166e8bdbb23fb3d674fced4952a4");
    (("toyp", "suite:sort", "naive"), "597250f6fe91a3ac38f243d34dfed276");
    (("toyp", "suite:sort", "postpass"), "154b24285181507265761f58a20cde26");
    (("toyp", "suite:sort", "ips"), "734e187f983d0f4acc752100557f5729");
    (("toyp", "suite:sort", "rase"), "da583e13b504e62d63333e60d772e590");
    (("toyp", "suite:strings", "naive"), "6849b95d5da77eef6e561f08e84520db");
    (("toyp", "suite:strings", "postpass"), "e782a31134a9edc69b9969c7352be271");
    (("toyp", "suite:strings", "ips"), "dcd509f88918923af4c6693d87023371");
    (("toyp", "suite:strings", "rase"), "8d93bacdb78f154a93b2825c8c68ec08");
    (("toyp", "suite:recursion", "naive"), "faef2451e528e96bf998fe51de3a41f4");
    (("toyp", "suite:recursion", "postpass"), "72e831b377d53b65caaf02bdb05a3eb5");
    (("toyp", "suite:recursion", "ips"), "99efb3e49ebc8f7d013c751eddf45280");
    (("toyp", "suite:recursion", "rase"), "dfe5e8123e49cf2bae3fbf3ed3bfcf9d");
    (("toyp", "suite:poly", "naive"), "46ca472219cf488ebf3bcfaf02b6d145");
    (("toyp", "suite:poly", "postpass"), "8fb0b25cc6d0d18096d16b313753c5cc");
    (("toyp", "suite:poly", "ips"), "fcaf36f1dbb62d471ff98ad20f58e448");
    (("toyp", "suite:poly", "rase"), "fcaf36f1dbb62d471ff98ad20f58e448");
    (("toyp", "suite:lfk1", "naive"), "62cd2eac24f4ac3a9d759e377329ce79");
    (("toyp", "suite:lfk1", "postpass"), "e27331ae719af5091d24d3a0edcb5ad6");
    (("toyp", "suite:lfk1", "ips"), "928dc9022f78bc4c0b541dd0d1831c6e");
    (("toyp", "suite:lfk1", "rase"), "837ed9f0ea8df5ffa7d9872efeed5c61");
    (("toyp", "suite:lfk5", "naive"), "e9158bec52093a5266c74f027e67776f");
    (("toyp", "suite:lfk5", "postpass"), "faa04134567f6def7230121297197d6a");
    (("toyp", "suite:lfk5", "ips"), "1017fbd3483a92aea53416d9e120e071");
    (("toyp", "suite:lfk5", "rase"), "176bf8f9907bf157aad43b44b85776b9");
    (("toyp", "suite:lfk7", "naive"), "c80496fc09b57b3027c64247579c4494");
    (("toyp", "suite:lfk7", "postpass"), "1799cdffa510824d8b19c594e6bb1423");
    (("toyp", "suite:lfk7", "ips"), "0bd483f9d11d01b97118038a051b795a");
    (("toyp", "suite:lfk7", "rase"), "0e161af0479f56dfa1bab6d395b5f742");
    (("r2000", "lfk1", "naive"), "ab83b64c9f6e441960bf4ac13af6c528");
    (("r2000", "lfk1", "postpass"), "6e22d097cae3a33374ebf2f5f33db88c");
    (("r2000", "lfk1", "ips"), "70a58c3daff5b30e9e9f3b6ff2792f39");
    (("r2000", "lfk1", "rase"), "f952a022dda01b7e1b96bf3aa9dc4b22");
    (("r2000", "lfk2", "naive"), "0b8a36cef5b72b3fb69f642bb63446ec");
    (("r2000", "lfk2", "postpass"), "f80f9f5c4e957b91b8e5ab74e00916b1");
    (("r2000", "lfk2", "ips"), "726cdf888f157843c58b7c7f6b8a9505");
    (("r2000", "lfk2", "rase"), "56a0e18a66e2ef6d82295ace213ede57");
    (("r2000", "lfk3", "naive"), "4a33277c411db8e390d04952341a85aa");
    (("r2000", "lfk3", "postpass"), "072919b8f814e554d0ab68f7ab146b9a");
    (("r2000", "lfk3", "ips"), "02c7a683ad37a6f36a30a4fdaa9461c6");
    (("r2000", "lfk3", "rase"), "02c7a683ad37a6f36a30a4fdaa9461c6");
    (("r2000", "lfk4", "naive"), "eb64cd80075162abb477fb4ae71b46e4");
    (("r2000", "lfk4", "postpass"), "6ff6efbd9999bac547a2588019da60d1");
    (("r2000", "lfk4", "ips"), "6091db6d8fd659820e8fcf8523d21f12");
    (("r2000", "lfk4", "rase"), "fc615c7c38ab9799078086e92c2aa5cb");
    (("r2000", "lfk5", "naive"), "f5b7b756a24e270a516fe34fe39e456f");
    (("r2000", "lfk5", "postpass"), "cdcdd09a238a8b7983d07faee4a0aad9");
    (("r2000", "lfk5", "ips"), "4734686701c535e56be7fd177751605b");
    (("r2000", "lfk5", "rase"), "69207aa7f14e882372becc5d63835e05");
    (("r2000", "lfk6", "naive"), "f3648ed54cdb3964b41a186cf7ed1ab6");
    (("r2000", "lfk6", "postpass"), "0fc4ce97fdc5a1298ee755d1db8edb17");
    (("r2000", "lfk6", "ips"), "7f2ac47a4f4ec9390de7be26a4f2bae0");
    (("r2000", "lfk6", "rase"), "636cd9929b9e494c5a0f08d5d5e894af");
    (("r2000", "lfk7", "naive"), "8439a6fedfa746c4cb24b4a81d8ce20a");
    (("r2000", "lfk7", "postpass"), "7355bf5c5f977059a014e19827f596db");
    (("r2000", "lfk7", "ips"), "cb2d8acfb1538f3ed31c5c74acfcb59b");
    (("r2000", "lfk7", "rase"), "5c228fe9f3fbb21f4087c09980b1b793");
    (("r2000", "lfk8", "naive"), "09d8566d9b4f7fe5247871e15a09496e");
    (("r2000", "lfk8", "postpass"), "f99aeb08875b22a0912bedd4570731e0");
    (("r2000", "lfk8", "ips"), "1da9dd22ae67d0414c4d52ba782854fa");
    (("r2000", "lfk8", "rase"), "342ca5db4d48a612a8a196ccc5354d76");
    (("r2000", "lfk9", "naive"), "4cc6e88544751113d74ff77f5b84f079");
    (("r2000", "lfk9", "postpass"), "52ec38e0d844ad01432991179fdfdc43");
    (("r2000", "lfk9", "ips"), "04935e1628e14be60af5ca1a3cae89f5");
    (("r2000", "lfk9", "rase"), "3e340a801a3feac51a48ca123059e899");
    (("r2000", "lfk10", "naive"), "b62100cfb6bda5eb11baf19125b237d9");
    (("r2000", "lfk10", "postpass"), "e80c3031334414c101afacbde93eb11a");
    (("r2000", "lfk10", "ips"), "9c1d439cd983871100a09a6e87a6ea12");
    (("r2000", "lfk10", "rase"), "11cd4fcfdfb6800d82f977311b2126b9");
    (("r2000", "lfk11", "naive"), "6d34769990c21e52790a1e4c186fb069");
    (("r2000", "lfk11", "postpass"), "dcf2a2e55868faf1f8d3d8f31bc7d973");
    (("r2000", "lfk11", "ips"), "819e99d35fc664fa5a04eb452c17d4fc");
    (("r2000", "lfk11", "rase"), "85b5da0218f96e2226e8fe3262e74a2c");
    (("r2000", "lfk12", "naive"), "f30de2365a0038860c33639df2656bac");
    (("r2000", "lfk12", "postpass"), "3ef63be159b193bb9971b5fb3a4dad52");
    (("r2000", "lfk12", "ips"), "57f70307a6c3765ed261e865fbb6f943");
    (("r2000", "lfk12", "rase"), "dfd3b7c95b23d1b62da3171c7c9b6300");
    (("r2000", "lfk13", "naive"), "3712380a256bc9c62fae5c3c2639e835");
    (("r2000", "lfk13", "postpass"), "6041cb92833408a0d1c0393dbd2c6626");
    (("r2000", "lfk13", "ips"), "859a1dba1711d52dbe1b516876b88cb9");
    (("r2000", "lfk13", "rase"), "1340fd3455ee63488dcd9b4777ea4772");
    (("r2000", "lfk14", "naive"), "65e597d4e86f81abb6f9c6ae4aaebc5e");
    (("r2000", "lfk14", "postpass"), "0f3fee139f21a61ac2dd917f2170a286");
    (("r2000", "lfk14", "ips"), "02a3b98a7be03d89282de4ee13f2b2cb");
    (("r2000", "lfk14", "rase"), "02a3b98a7be03d89282de4ee13f2b2cb");
    (("r2000", "suite:matmul", "naive"), "a9169d033fbba2a4ce26d8c36a971aca");
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
    (("r2000", "suite:recursion", "naive"), "00217a751872bd783d179f902a1fb0a2");
    (("r2000", "suite:recursion", "postpass"), "ae4353b855af1a38f02341a6365f0b84");
    (("r2000", "suite:recursion", "ips"), "bd62c2587445061c8059d406474d7ac3");
    (("r2000", "suite:recursion", "rase"), "6fa4b81db0d5977b9d803782fd09100a");
    (("r2000", "suite:poly", "naive"), "9089e387e5d9361448950095d9ced922");
    (("r2000", "suite:poly", "postpass"), "32379f8e0eabaead731b6b2942adcdbc");
    (("r2000", "suite:poly", "ips"), "1f99bca27e033b3fdbb101a0837bf297");
    (("r2000", "suite:poly", "rase"), "10e9241981795a42129bc724344bc05c");
    (("r2000", "suite:lfk1", "naive"), "ab83b64c9f6e441960bf4ac13af6c528");
    (("r2000", "suite:lfk1", "postpass"), "6e22d097cae3a33374ebf2f5f33db88c");
    (("r2000", "suite:lfk1", "ips"), "70a58c3daff5b30e9e9f3b6ff2792f39");
    (("r2000", "suite:lfk1", "rase"), "f952a022dda01b7e1b96bf3aa9dc4b22");
    (("r2000", "suite:lfk5", "naive"), "f5b7b756a24e270a516fe34fe39e456f");
    (("r2000", "suite:lfk5", "postpass"), "cdcdd09a238a8b7983d07faee4a0aad9");
    (("r2000", "suite:lfk5", "ips"), "4734686701c535e56be7fd177751605b");
    (("r2000", "suite:lfk5", "rase"), "69207aa7f14e882372becc5d63835e05");
    (("r2000", "suite:lfk7", "naive"), "8439a6fedfa746c4cb24b4a81d8ce20a");
    (("r2000", "suite:lfk7", "postpass"), "7355bf5c5f977059a014e19827f596db");
    (("r2000", "suite:lfk7", "ips"), "cb2d8acfb1538f3ed31c5c74acfcb59b");
    (("r2000", "suite:lfk7", "rase"), "5c228fe9f3fbb21f4087c09980b1b793");
    (("m88000", "lfk1", "naive"), "26e3be050fe3007c52c78d8cb2ba42c5");
    (("m88000", "lfk1", "postpass"), "620d267a1a69844660277846c939f06b");
    (("m88000", "lfk1", "ips"), "97202812682439565be82bdc42f5e95f");
    (("m88000", "lfk1", "rase"), "b0fa7d59da7ecfcccbab1234d4874352");
    (("m88000", "lfk2", "naive"), "8d0a005dfaa591b119c70baf8a589bcd");
    (("m88000", "lfk2", "postpass"), "403001957714d608c8be007174c0fc1c");
    (("m88000", "lfk2", "ips"), "7c10242b814a51b27aa1e334790fe327");
    (("m88000", "lfk2", "rase"), "e3bb4e7d8ad9e1138cb0bc7788fcf4dc");
    (("m88000", "lfk3", "naive"), "126c3e91e72e5ec897d3cda099f71b3c");
    (("m88000", "lfk3", "postpass"), "5cac3964a1fb1975edc07547a1940a07");
    (("m88000", "lfk3", "ips"), "f94a91aefb7e4e47630f6db02bf44e74");
    (("m88000", "lfk3", "rase"), "0ca6aa4cf8da97cf15ea5b64e69af53a");
    (("m88000", "lfk4", "naive"), "c1fc45f9162f8499dd112ad2b7edfeb2");
    (("m88000", "lfk4", "postpass"), "57d5dda92653f9b03c06fd0e53f305a1");
    (("m88000", "lfk4", "ips"), "cb7f09ec4fcd441812cfbffba012f9e6");
    (("m88000", "lfk4", "rase"), "146747d1c2086cd8f6080867eb671617");
    (("m88000", "lfk5", "naive"), "e6fa53dfbed414afb29c31a5a8df0f63");
    (("m88000", "lfk5", "postpass"), "38c61c854f386f48540a89b689ecf6e4");
    (("m88000", "lfk5", "ips"), "b7d2d8761d73bc5c5d1f1a0ecdf0dbad");
    (("m88000", "lfk5", "rase"), "35ef2c064ce073fedb8ce227cf54fd64");
    (("m88000", "lfk6", "naive"), "35fb40731b4c8f92d16bc3d4f6819fe1");
    (("m88000", "lfk6", "postpass"), "d9fa192e24e8dffbde6a8e5039ffab60");
    (("m88000", "lfk6", "ips"), "990c5009d427612188545a41c7a44ac4");
    (("m88000", "lfk6", "rase"), "2fdcfbf6d437638dfbffa0ef8c72c16c");
    (("m88000", "lfk7", "naive"), "e446cf5e302586587820692402dec558");
    (("m88000", "lfk7", "postpass"), "432d20be3e55096f8acce241063366c7");
    (("m88000", "lfk7", "ips"), "4a02c6566ea4833753560fb215648385");
    (("m88000", "lfk7", "rase"), "4a02c6566ea4833753560fb215648385");
    (("m88000", "lfk8", "naive"), "c31293c741fe7d47d34a92b08d9f2522");
    (("m88000", "lfk8", "postpass"), "31adbb314c902d7c71c5382fc1801822");
    (("m88000", "lfk8", "ips"), "5971752180827a6719575bcaf88213b9");
    (("m88000", "lfk8", "rase"), "e69cf3986e1a43aef0ccede88d87429c");
    (("m88000", "lfk9", "naive"), "f9332ff9c6d48d35cf208755687e470c");
    (("m88000", "lfk9", "postpass"), "9ae86d0022b266a48c0c8f3c0bb30da4");
    (("m88000", "lfk9", "ips"), "099571182e0741d5e1f2dff477c49ce9");
    (("m88000", "lfk9", "rase"), "57b2c5b1395243af971b6917c7ff3a54");
    (("m88000", "lfk10", "naive"), "f57559497ca4dbb57f5fb610e50efd43");
    (("m88000", "lfk10", "postpass"), "ae3c725661cfa174f9f7dd24cd46c820");
    (("m88000", "lfk10", "ips"), "77dd04a5f0700899b9140dab6628df90");
    (("m88000", "lfk10", "rase"), "5ba67bcd9dcf24d8d54993b60cedde6c");
    (("m88000", "lfk11", "naive"), "1ae8c2634402a70696309d9460e3ee74");
    (("m88000", "lfk11", "postpass"), "1df3b9c55210633dfb388185fecc8c22");
    (("m88000", "lfk11", "ips"), "923877b1d619a21e662d4020830a784f");
    (("m88000", "lfk11", "rase"), "20895e1c06c25739c85998d1e2d60887");
    (("m88000", "lfk12", "naive"), "f86619b3f690326981937532dbeeb7a2");
    (("m88000", "lfk12", "postpass"), "f5f774ea5e1868eb5b1db9a23b687ba6");
    (("m88000", "lfk12", "ips"), "4a5f35718411d4433df09788467bdcf3");
    (("m88000", "lfk12", "rase"), "31d5b5d1cd42c7af516419a048082515");
    (("m88000", "lfk13", "naive"), "d672bdbfcc96d9a1a75ce2322f9f0cd3");
    (("m88000", "lfk13", "postpass"), "369d320d13cb3cf9b915c80927cf64d6");
    (("m88000", "lfk13", "ips"), "9de8120edb21c9167cdd9b72b8614174");
    (("m88000", "lfk13", "rase"), "eccc1335c0f7d6b634dcc978be1b3762");
    (("m88000", "lfk14", "naive"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "lfk14", "postpass"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "lfk14", "ips"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "lfk14", "rase"), "158d04ab6b1dc47878ffb8504dc8ac87");
    (("m88000", "suite:matmul", "naive"), "ee58353e72bc47330bd0b12999aa2c09");
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
    (("m88000", "suite:recursion", "naive"), "0e3ffe1041911f79c7b89c3245df4a3c");
    (("m88000", "suite:recursion", "postpass"), "50e5e7c8661917ef22b5d881453bd858");
    (("m88000", "suite:recursion", "ips"), "957b30d7b34c94225c4e48568d950d29");
    (("m88000", "suite:recursion", "rase"), "957b30d7b34c94225c4e48568d950d29");
    (("m88000", "suite:poly", "naive"), "657bae1f50a4ef53f6c1a6677b8e7bff");
    (("m88000", "suite:poly", "postpass"), "ed95456335d70b2cff149c2a3ef7811e");
    (("m88000", "suite:poly", "ips"), "c1cc46628ecff1be3efacc9db31d1e4b");
    (("m88000", "suite:poly", "rase"), "67d9540a1091167c0822ea6f1d174ce8");
    (("m88000", "suite:lfk1", "naive"), "26e3be050fe3007c52c78d8cb2ba42c5");
    (("m88000", "suite:lfk1", "postpass"), "620d267a1a69844660277846c939f06b");
    (("m88000", "suite:lfk1", "ips"), "97202812682439565be82bdc42f5e95f");
    (("m88000", "suite:lfk1", "rase"), "b0fa7d59da7ecfcccbab1234d4874352");
    (("m88000", "suite:lfk5", "naive"), "e6fa53dfbed414afb29c31a5a8df0f63");
    (("m88000", "suite:lfk5", "postpass"), "38c61c854f386f48540a89b689ecf6e4");
    (("m88000", "suite:lfk5", "ips"), "b7d2d8761d73bc5c5d1f1a0ecdf0dbad");
    (("m88000", "suite:lfk5", "rase"), "35ef2c064ce073fedb8ce227cf54fd64");
    (("m88000", "suite:lfk7", "naive"), "e446cf5e302586587820692402dec558");
    (("m88000", "suite:lfk7", "postpass"), "432d20be3e55096f8acce241063366c7");
    (("m88000", "suite:lfk7", "ips"), "4a02c6566ea4833753560fb215648385");
    (("m88000", "suite:lfk7", "rase"), "4a02c6566ea4833753560fb215648385");
    (("i860", "lfk1", "naive"), "a4d621f993c598aa80e3acffb2323cd1");
    (("i860", "lfk1", "postpass"), "d6f438b1f9cae31c47fa1ff700f95fe9");
    (("i860", "lfk1", "ips"), "2fdd67abfb21dfd9979482bd9efb1b23");
    (("i860", "lfk1", "rase"), "b3ffecf490c0adcfa3ad8b4c9c1a2a94");
    (("i860", "lfk2", "naive"), "aa6873675dea48cccd994fcdf88f60ac");
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
    (("i860", "suite:recursion", "naive"), "60552a21acee812afc1d790400c91105");
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
      "register allocation: spill temporary %p22 cannot be colored and has \
       no spillable neighbour" );
    ( ("toyp", "suite:poly", "rase"),
      "register allocation: spill temporary %p22 cannot be colored and has \
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
          (* the sets the neighbour walk finds, against every pair *)
          let where rel =
            names
              (List.filter
                 (fun g -> rel r tab.Regtab.regs.(g))
                 (List.init tab.Regtab.n_hard Fun.id))
          in
          let sorted set = names (List.sort compare (Array.to_list set)) in
          check
            Alcotest.(list string)
            (tname ^ " overlap set of " ^ name r)
            (where (Model.regs_overlap model))
            (sorted tab.Regtab.overlaps.(h));
          let covers w l =
            let bw, ow, sw = Model.reg_bytes model w in
            let bl, ol, sl = Model.reg_bytes model l in
            bw = bl && ow <= ol && ol + sl <= ow + sw
          in
          check
            Alcotest.(list string)
            (tname ^ " cover set of " ^ name r)
            (where covers)
            (sorted tab.Regtab.covers.(h));
          let c = Model.class_exn model r.Model.cls in
          check
            Alcotest.(option int)
            (tname ^ " clock of " ^ name r)
            (if c.Model.c_temporal then c.Model.c_clock else None)
            tab.Regtab.clock.(h))
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
   [Kp]/[Kh] keys in a [Set] on polymorphic compare, facts per label,
   with the rule for half-register writes added to its block summary.
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

  (* the deleted [Mir.inst_uses], plus implicit uses *)
  let inst_uses (i : Mir.inst) =
    List.filter_map
      (fun p -> Option.map key_of_reg (Mir.operand_reg i.Mir.n_ops.(p)))
      i.Mir.n_op.Model.i_reads
    @ List.map (fun r -> key_of_reg (`Phys r)) i.Mir.n_xuse

  (* A block's upward-exposed uses and its kills, walking it backward. A
     full write kills its key. A write of half [k] of a key kills it when
     [half.(1 - k)] holds the key: the other half is written below with
     no read of the key in between. *)
  let block_use_def (b : Mir.block) =
    let use = ref KeySet.empty and def = ref KeySet.empty in
    let half = [| KeySet.empty; KeySet.empty |] in
    let forget k =
      Array.iteri (fun h s -> half.(h) <- KeySet.remove k s) half
    in
    let kill k =
      forget k;
      use := KeySet.remove k !use;
      def := KeySet.add k !def
    in
    List.iter
      (fun (i : Mir.inst) ->
        List.iter
          (fun pos ->
            match i.Mir.n_ops.(pos) with
            | Mir.Opart (o, h) -> (
                match Mir.operand_reg o with
                | Some r ->
                    let k = key_of_reg r in
                    if KeySet.mem k half.(1 - h) then kill k
                    else half.(h) <- KeySet.add k half.(h)
                | None -> ())
            | o ->
                Option.iter (fun r -> kill (key_of_reg r)) (Mir.operand_reg o))
          i.Mir.n_op.Model.i_writes;
        List.iter (fun r -> kill (key_of_reg (`Phys r))) i.Mir.n_xdef;
        List.iter
          (fun k ->
            forget k;
            use := KeySet.add k !use)
          (inst_uses i))
      (List.rev b.Mir.b_insts);
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
   register of the class, [mov.s] writes of one half of a double pseudo
   or of a double argument pair (the halves of the [mov.d] escape),
   implicit uses and defs of any hard register, and successor lists with
   self-loops, loops with no exit, unreachable blocks and labels naming
   no block. *)
type ginst = {
  form : int;
      (* 0 addu r, 1 add.s f, 2 add.d d, 3 mov.s of an f into half
         ($3 mod 2) of a d *)
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
    let* form = int_bound 3 in
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
  let movs = Option.get (Model.instr_by_tag model "s.movs") in
  let label k = if k < 0 then "nowhere" else Printf.sprintf "b%d" k in
  fn.Mir.f_blocks <-
    List.mapi
      (fun k (insts, succs) ->
        let b = Mir.new_block (label k) in
        b.Mir.b_succs <- List.map label succs;
        b.Mir.b_insts <-
          List.map
            (fun gi ->
              let opnd form (pseudo, pick) =
                let _, (c : Model.rclass), pregs = List.nth forms form in
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
              let mk =
                Mir.mk_inst ~xuse:(hard gi.xuse) ~xdef:(hard gi.xdef) fn
              in
              match (gi.form, gi.opnds) with
              | 3, [ (pseudo, pick); src; (_, part) ] ->
                  (* hard pairs: the double argument registers d6, d7 *)
                  let pair =
                    (pseudo, if pseudo then pick else 6 + (pick mod 2))
                  in
                  mk movs [| Mir.Opart (opnd 2 pair, part mod 2); opnd 1 src |]
              | form, opnds ->
                  let op, _, _ = List.nth forms form in
                  mk op (Array.of_list (List.map (opnd form) opnds)))
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
      let tab = Regtab.get fn.Mir.f_model in
      let ref_in, ref_out = Reference_liveness.compute fn in
      let dense set =
        List.sort compare
          (List.map
             (function
               | Reference_liveness.Kp id -> tab.Regtab.n_hard + id
               | Reference_liveness.Kh (cls, idx) ->
                   Regtab.id tab { Model.cls; idx })
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
    Alcotest.test_case "spill-temporary victim tie-break" `Quick
      test_victim_tie_break;
    Alcotest.test_case "liveness basics" `Quick test_liveness_basic;
    Alcotest.test_case "liveness in a loop with no exit" `Quick
      test_liveness_no_exit_loop;
    QCheck_alcotest.to_alcotest prop_simplify_matches_reference;
    QCheck_alcotest.to_alcotest prop_liveness_matches_reference;
    Alcotest.test_case "register tables vs the list versions" `Quick
      test_register_tables;
    Alcotest.test_case "allocation contract digests" `Slow test_alloc_contract;
  ]
