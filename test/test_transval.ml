(* Translation-validation tests (Transval: Schedval + Regval).

   Positive direction: clean pass outputs validate clean, through the
   direct API and through the pipeline hooks (every strategy, validation
   on). Negative direction: seeded miscompiles — an illegal swap across a
   dependence edge, a stolen delay slot, a dropped spill reload, a
   clobbered register pair — are each caught with the expected V-code at
   the expected phase. QCheck properties drive Schedval with random legal
   re-linearizations (accepted) and random order/multiset violations
   (rejected). *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let r2000 = lazy (R2000.load ())

let codes ds = List.map (fun (d : Diag.t) -> d.Diag.code) ds

let pp_diags ds = String.concat "; " (List.map Diag.to_string ds)

let assert_code what code phase ds =
  match List.find_opt (fun (d : Diag.t) -> d.Diag.code = code) ds with
  | Some d ->
      check Alcotest.bool
        (what ^ ": phase")
        true
        (d.Diag.phase = Some phase)
  | None ->
      Alcotest.failf "%s: expected %s, got [%s]" what code (pp_diags ds)

let select_mir model src =
  Select.select_prog model (Cgen.compile ~file:"<tv.c>" src)

let main_fn (prog : Mir.prog) =
  List.find (fun (fn : Mir.func) -> fn.Mir.f_name = "main") prog.Mir.p_funcs

let sched_src =
  {|int a[16];
    int main(void) {
      int i; int s = 0;
      for (i = 0; i < 16; i++) a[i] = i * 7 - 5;
      for (i = 0; i < 16; i++) if (a[i] > 0) s = s + a[i];
      print_int(s); return 0;
    }|}

(* ------------------------------------------------------------------ *)
(* Pipeline integration: validation on is clean and priced             *)

(* validation prices itself as validate:capture:<phase> and
   validate:<phase> profile entries *)
let has_validate_entries (c : Marion.compiled) =
  List.exists
    (fun (e : Profile.entry) ->
      String.starts_with ~prefix:"validate:" e.Profile.e_name)
    (Profile.entries c.Marion.report.Strategy.profile)

let test_pipeline_validates_clean () =
  List.iter
    (fun strat ->
      let c =
        Marion.compile (Lazy.force r2000) strat ~file:"<tv.c>" sched_src
      in
      check (Alcotest.list Alcotest.string)
        (Strategy.to_string strat ^ ": no validator findings")
        []
        (codes c.Marion.report.Strategy.validate_diags);
      check Alcotest.bool
        (Strategy.to_string strat ^ ": validation was priced")
        true
        (has_validate_entries c))
    Strategy.all

let test_no_validate_opts_out () =
  let c =
    Marion.compile
      ~opts:{ Strategy.default with validate = false }
      (Lazy.force r2000) Strategy.Postpass ~file:"<tv.c>" sched_src
  in
  check Alcotest.bool "no validation entries" false (has_validate_entries c)

(* ------------------------------------------------------------------ *)
(* Seeded miscompiles: Schedval                                        *)

let post_regalloc_fn model src =
  let prog = select_mir model src in
  let fn = main_fn prog in
  ignore (Regalloc.allocate fn);
  fn

(* find, in some block pair, a dependence-connected instruction pair of
   the scheduled output and swap it end-for-end *)
let swap_dependent_pair (before : Mir.func) (fn : Mir.func) =
  let model = fn.Mir.f_model in
  let try_block (bb : Mir.block) (b : Mir.block) =
    let body =
      List.filter (fun i -> not (Listsched.is_nop i)) bb.Mir.b_insts
    in
    let dag = Dag.build model body in
    match
      List.find_opt
        (fun (e : Dag.edge) -> e.Dag.e_kind = Dag.True)
        dag.Dag.edges
    with
    | None -> false
    | Some e ->
        let src_id = dag.Dag.insts.(e.Dag.e_src).Mir.n_id in
        let dst_id = dag.Dag.insts.(e.Dag.e_dst).Mir.n_id in
        let arr = Array.of_list b.Mir.b_insts in
        let pos id =
          let p = ref (-1) in
          Array.iteri
            (fun k (i : Mir.inst) -> if i.Mir.n_id = id then p := k)
            arr;
          !p
        in
        let ps = pos src_id and pd = pos dst_id in
        if ps < 0 || pd < 0 then false
        else begin
          let t = arr.(ps) in
          arr.(ps) <- arr.(pd);
          arr.(pd) <- t;
          b.Mir.b_insts <- Array.to_list arr;
          true
        end
  in
  let rec go bs1 bs2 =
    match (bs1, bs2) with
    | bb :: t1, b :: t2 -> if try_block bb b then true else go t1 t2
    | _ -> false
  in
  go before.Mir.f_blocks fn.Mir.f_blocks

let test_schedval_illegal_swap () =
  let fn = post_regalloc_fn (Lazy.force r2000) sched_src in
  let before = Transval.capture fn in
  ignore (Listsched.schedule_func fn);
  check (Alcotest.list Alcotest.string) "clean schedule validates" []
    (codes (Transval.validate_func Diag.Post_sched ~before fn));
  check Alcotest.bool "seeded a swap" true (swap_dependent_pair before fn);
  assert_code "illegal swap" "V004" Diag.Post_sched
    (Transval.validate_func Diag.Post_sched ~before fn)

let test_schedval_stolen_delay_slot () =
  (* overwrite a delay-slot nop with a copy of an earlier instruction of
     the same block: the schedule now issues that instruction twice *)
  let fn = post_regalloc_fn (Lazy.force r2000) sched_src in
  let before = Transval.capture fn in
  ignore (Listsched.schedule_func fn);
  let stole =
    List.exists
      (fun (b : Mir.block) ->
        let arr = Array.of_list b.Mir.b_insts in
        let slot = ref (-1) in
        Array.iteri
          (fun k (i : Mir.inst) ->
            if
              !slot < 0 && k > 0
              && Listsched.is_nop i
              && arr.(k - 1).Mir.n_op.Model.i_branch
            then slot := k)
          arr;
        let victim = ref None in
        Array.iteri
          (fun k (i : Mir.inst) ->
            if !victim = None && k < !slot && not (Listsched.is_nop i) then
              victim := Some i)
          arr;
        match (!slot, !victim) with
        | k, Some v when k >= 0 ->
            arr.(k) <- { v with Mir.n_ops = Array.copy v.Mir.n_ops };
            b.Mir.b_insts <- Array.to_list arr;
            true
        | _ -> false)
      fn.Mir.f_blocks
  in
  check Alcotest.bool "seeded a stolen slot" true stole;
  assert_code "stolen delay slot" "V002" Diag.Post_sched
    (Transval.validate_func Diag.Post_sched ~before fn)

(* ------------------------------------------------------------------ *)
(* Seeded miscompiles: Regval                                          *)

let test_regval_dropped_reload () =
  (* local-usage allocation spills every cross-block value; deleting the
     reload that feeds a use in a non-defining block leaves the use
     reading a register that holds no reloaded value *)
  let prog = select_mir (Lazy.force r2000) sched_src in
  let fn = main_fn prog in
  let before = Transval.capture fn in
  let base = before.Mir.f_next_slot in
  ignore (Regalloc.allocate ~forbid_global_pregs:true fn);
  check (Alcotest.list Alcotest.string) "clean allocation validates" []
    (codes (Transval.validate_func Diag.Post_regalloc ~before fn));
  let orig_ids = Hashtbl.create 64 in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) -> Hashtbl.replace orig_ids i.Mir.n_id ())
        b.Mir.b_insts)
    before.Mir.f_blocks;
  let is_reload (i : Mir.inst) =
    (not (Hashtbl.mem orig_ids i.Mir.n_id))
    && i.Mir.n_op.Model.i_loads
    && Array.exists
         (function Mir.Oslot (s, _) -> s >= base | _ -> false)
         i.Mir.n_ops
  in
  (* not every reload is load-bearing (the value may coincidentally still
     be in the register); find one whose deletion the validator rejects *)
  let caught =
    List.exists
      (fun (b : Mir.block) ->
        let insts = b.Mir.b_insts in
        let rec try_drop pre = function
          | [] -> false
          | i :: rest when is_reload i ->
              b.Mir.b_insts <- List.rev_append pre rest;
              let ds = Transval.validate_func Diag.Post_regalloc ~before fn in
              if List.mem "V018" (codes ds) then begin
                assert_code "dropped reload" "V018" Diag.Post_regalloc ds;
                true
              end
              else begin
                b.Mir.b_insts <- insts;
                try_drop (i :: pre) rest
              end
          | i :: rest -> try_drop (i :: pre) rest
        in
        try_drop [] insts)
      fn.Mir.f_blocks
  in
  check Alcotest.bool "some dropped reload is caught" true caught

let double_src =
  {|double g;
    int main(void) {
      double a; double b; double c;
      a = 1.5; b = 2.25;
      c = a + b;
      g = c * b + a;
      print_int((int) (g * 4.0));
      return 0;
    }|}

let test_regval_clobbered_pair () =
  (* insert an integer move writing the low half of a live double
     register between its def and its use: %equiv pair clobbering *)
  let model = Lazy.force toyp in
  let prog = select_mir model double_src in
  let fn = main_fn prog in
  let before = Transval.capture fn in
  ignore (Regalloc.allocate fn);
  check (Alcotest.list Alcotest.string) "clean allocation validates" []
    (codes (Transval.validate_func Diag.Post_regalloc ~before fn));
  let movs =
    match Model.instr_by_tag model "s.movs" with
    | Some i -> i
    | None -> Alcotest.fail "toyp should declare the [s.movs] move"
  in
  let r0 =
    match Model.find_class model "r" with
    | Some c -> { Model.cls = c.Model.c_id; idx = 0 }
    | None -> Alcotest.fail "toyp should declare the r register set"
  in
  let orig_ids = Hashtbl.create 64 in
  List.iter
    (fun (b : Mir.block) ->
      List.iter
        (fun (i : Mir.inst) -> Hashtbl.replace orig_ids i.Mir.n_id ())
        b.Mir.b_insts)
    before.Mir.f_blocks;
  (* a full-width (8-byte, not Opart) register read by an original
     instruction — not an inserted spill store, which Regval reports
     under its own code: half-clobbering the pair right before it leaves
     the reader looking at mixed values *)
  let full_pair_read (i : Mir.inst) =
    if not (Hashtbl.mem orig_ids i.Mir.n_id) then None
    else
    List.fold_left
      (fun acc pos ->
        match acc with
        | Some _ -> acc
        | None -> (
            if pos >= Array.length i.Mir.n_ops then None
            else
              match i.Mir.n_ops.(pos) with
              | Mir.Ophys r
                when (let _, _, sz = Model.reg_bytes model r in sz = 8) ->
                  Some r
              | _ -> None))
      None i.Mir.n_op.Model.i_reads
  in
  let seeded =
    List.exists
      (fun (b : Mir.block) ->
        let arr = Array.of_list b.Mir.b_insts in
        let site = ref None in
        Array.iteri
          (fun k (i : Mir.inst) ->
            if !site = None then
              match full_pair_read i with
              | Some d -> (
                  match Model.subreg model d 0 with
                  | Some half -> site := Some (k, half)
                  | None -> ())
              | None -> ())
          arr;
        match !site with
        | Some (k, half) ->
            let clobber =
              Mir.mk_inst fn movs
                [| Mir.Ophys half; Mir.Ophys r0; Mir.Ophys r0 |]
            in
            b.Mir.b_insts <-
              List.concat
                [
                  Array.to_list (Array.sub arr 0 k);
                  [ clobber ];
                  Array.to_list (Array.sub arr k (Array.length arr - k));
                ];
            true
        | None -> false)
      fn.Mir.f_blocks
  in
  check Alcotest.bool "seeded a pair clobber" true seeded;
  assert_code "clobbered pair" "V019" Diag.Post_regalloc
    (Transval.validate_func Diag.Post_regalloc ~before fn)

(* The shape of a double move on r2000 (two [mov.s] halves) with a
   spill reload into the same register between the halves, then a read
   of the whole pair: the reload clobbers the half already written, so
   the read sees a mixed value. [hard] writes the double argument pair
   d6 instead of a pseudo. *)
let test_regval_half_clobber ~hard () =
  let model = Lazy.force r2000 in
  let cid name = (Option.get (Model.find_class model name)).Model.c_id in
  let movs = Option.get (Model.instr_by_tag model "s.movs") in
  let addd = List.hd (Model.instrs_by_name model "add.d") in
  let fn = Mir.new_func model "main" in
  let f idx = Mir.Ophys { Model.cls = cid "f"; idx } in
  let d6 = { Model.cls = cid "d"; idx = 6 } in
  let p = Mir.fresh_preg fn (cid "d") in
  let pair = if hard then Mir.Ophys d6 else Mir.Opreg p in
  let sum = Mir.Opreg (Mir.fresh_preg fn (cid "d")) in
  let entry = Mir.new_block "entry" in
  entry.Mir.b_insts <-
    [
      Mir.mk_inst fn movs [| Mir.Opart (pair, 0); f 8 |];
      Mir.mk_inst fn movs [| Mir.Opart (pair, 1); f 9 |];
      Mir.mk_inst fn addd [| sum; pair; pair |];
    ];
  fn.Mir.f_blocks <- [ entry ];
  let before = Transval.capture fn in
  ignore (Regalloc.allocate fn);
  check (Alcotest.list Alcotest.string) "clean allocation validates" []
    (codes (Transval.validate_func Diag.Post_regalloc ~before fn));
  let reg =
    if hard then d6
    else
      match List.assoc p.Mir.p_id fn.Mir.f_locations with
      | Mir.Lreg r -> r
      | Mir.Lslot _ -> Alcotest.fail "the pair should get a register"
  in
  let reload =
    Frame.load_at fn
      (Frame.find_load_ri model (cid "d"))
      ~dst:(Mir.Ophys reg)
      ~base:(Mir.Ophys model.Model.cwvm.Model.v_fp)
      ~off:(Mir.Oslot (before.Mir.f_next_slot, 0))
  in
  (match entry.Mir.b_insts with
  | lo :: rest -> entry.Mir.b_insts <- lo :: reload :: rest
  | [] -> Alcotest.fail "empty block");
  assert_code "reload between the halves" "V019" Diag.Post_regalloc
    (Transval.validate_func Diag.Post_regalloc ~before fn)

(* ------------------------------------------------------------------ *)
(* QCheck: Schedval over random blocks                                 *)

(* a random legal linearization of the block's DAG, driven by a seeded
   PRNG so the property is reproducible from the generated value *)
let random_topo_order model insts seed =
  let dag = Dag.build model insts in
  let n = Array.length dag.Dag.insts in
  let rng = Random.State.make [| seed |] in
  let indeg = Array.make n 0 in
  List.iter
    (fun (e : Dag.edge) -> indeg.(e.Dag.e_dst) <- indeg.(e.Dag.e_dst) + 1)
    dag.Dag.edges;
  let ready = ref [] in
  Array.iteri (fun k d -> if d = 0 then ready := k :: !ready) indeg;
  let out = ref [] in
  while !ready <> [] do
    let k = Random.State.int rng (List.length !ready) in
    let chosen = List.nth !ready k in
    ready := List.filteri (fun j _ -> j <> k) !ready;
    out := dag.Dag.insts.(chosen) :: !out;
    List.iter
      (fun (s, _, _) ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then ready := s :: !ready)
      dag.Dag.succs.(chosen)
  done;
  List.rev !out

let gen_block_and_seed =
  QCheck2.Gen.(pair Test_props.gen_block_model (int_bound 1_000_000))

let prop_schedval_accepts_legal =
  QCheck2.Test.make ~name:"Schedval accepts random legal linearizations"
    ~count:100 gen_block_and_seed
    (fun ((fn, insts), seed) ->
      let model = fn.Mir.f_model in
      let order = random_topo_order model insts seed in
      Transval.schedval model ~before:insts order = [])

let prop_schedval_rejects_edge_violation =
  QCheck2.Test.make ~name:"Schedval rejects a violated dependence edge"
    ~count:100 gen_block_and_seed
    (fun ((fn, insts), seed) ->
      let model = fn.Mir.f_model in
      let dag = Dag.build model insts in
      match dag.Dag.edges with
      | [] -> true (* nothing to violate: vacuously fine *)
      | edges ->
          let rng = Random.State.make [| seed |] in
          let e = List.nth edges (Random.State.int rng (List.length edges)) in
          let order = random_topo_order model insts seed in
          (* move the edge's source to the back: its sink now precedes it *)
          let src_id = dag.Dag.insts.(e.Dag.e_src).Mir.n_id in
          let rest, src =
            List.partition (fun (i : Mir.inst) -> i.Mir.n_id <> src_id) order
          in
          let ds = Transval.schedval model ~before:insts (rest @ src) in
          ds <> []
          && List.for_all
               (fun c -> List.mem c [ "V004"; "V005"; "V006"; "V007" ])
               (codes ds))

let prop_schedval_rejects_drop =
  QCheck2.Test.make ~name:"Schedval rejects a dropped instruction"
    ~count:100 gen_block_and_seed
    (fun ((fn, insts), seed) ->
      let model = fn.Mir.f_model in
      let order = random_topo_order model insts seed in
      let rng = Random.State.make [| seed + 1 |] in
      let k = Random.State.int rng (List.length order) in
      let order = List.filteri (fun j _ -> j <> k) order in
      List.mem "V001" (codes (Transval.schedval model ~before:insts order)))

let prop_schedval_rejects_duplicate =
  QCheck2.Test.make ~name:"Schedval rejects a duplicated instruction"
    ~count:100 gen_block_and_seed
    (fun ((fn, insts), seed) ->
      let model = fn.Mir.f_model in
      let order = random_topo_order model insts seed in
      let rng = Random.State.make [| seed + 2 |] in
      let k = Random.State.int rng (List.length order) in
      let dup = List.nth order k in
      let order = order @ [ { dup with Mir.n_ops = Array.copy dup.Mir.n_ops } ] in
      List.mem "V002" (codes (Transval.schedval model ~before:insts order)))

let suite =
  [
    Alcotest.test_case "pipeline validates clean" `Quick
      test_pipeline_validates_clean;
    Alcotest.test_case "--no-validate opts out" `Quick
      test_no_validate_opts_out;
    Alcotest.test_case "seeded: illegal swap (V004)" `Quick
      test_schedval_illegal_swap;
    Alcotest.test_case "seeded: stolen delay slot (V002)" `Quick
      test_schedval_stolen_delay_slot;
    Alcotest.test_case "seeded: dropped reload (V018)" `Quick
      test_regval_dropped_reload;
    Alcotest.test_case "seeded: clobbered pair (V019)" `Quick
      test_regval_clobbered_pair;
    Alcotest.test_case "seeded: reload between pseudo halves (V019)" `Quick
      (test_regval_half_clobber ~hard:false);
    Alcotest.test_case "seeded: reload between hard halves (V019)" `Quick
      (test_regval_half_clobber ~hard:true);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_schedval_accepts_legal;
        prop_schedval_rejects_edge_violation;
        prop_schedval_rejects_drop;
        prop_schedval_rejects_duplicate;
      ]
