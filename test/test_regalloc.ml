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
  let out = Hashtbl.find live.Liveness.live_out entry.Mir.b_label in
  check Alcotest.bool "live-out non-empty" false (Liveness.KeySet.is_empty out)

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
  let key = Liveness.Kp p.Mir.p_id in
  check Alcotest.bool "live out of entry" true
    (Liveness.KeySet.mem key (Hashtbl.find live.Liveness.live_out "entry"));
  check Alcotest.bool "live into the loop" true
    (Liveness.KeySet.mem key (Hashtbl.find live.Liveness.live_in "loop"));
  check Alcotest.bool "the shared solver reaches no fact there" true
    (Glive.live_in (Glive.compute fn) "loop" = None)

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
  ]
