(* Contracts for the static checkers themselves (Mircheck, Regval,
   Schedval): what they say and what they cost.

   Diagnostic bytes: every cell of the 368 (Livermore 1-14 and the
   program suite x 4 targets x 4 strategies) runs its strategy's
   pipeline. At every phase point the verifier checks the function and a
   set of seeded mutants of it (the shapes test_check plants: operand
   count and class, immediate range, bad register, pseudo after
   allocation, broken CFG, dropped delay slot, undefined use, ...), and
   after every validated pass the validator checks the pass's output and
   mutants of it (the shapes test_transval plants: dropped reload,
   reordered, duplicated, inserted or deleted instructions, operands
   moved to other registers, wrong locations, broken block structure,
   ...). The rendered diagnostics are digested per target and compared
   against digests captured before the checkers were reworked for speed,
   so one changed message byte fails the test. Never regenerate them to
   make a checker change pass. The validator must report nothing on any
   cell's unmutated output; a finding there fails with the cell's name.

   Allocation: a checker that passes should allocate little. Over the
   Livermore cells, the minor words Mircheck, Regval and Schedval
   allocate on the clean (passing) path are bounded per checked
   instruction. Building message text eagerly on every operand breaks
   the Mircheck and Regval bounds. *)

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Mutators: in place on a copy; [false] when the shape has no site    *)

(* replace the first instruction, in layout order, for which [f] gives
   a replacement list (empty: delete it) *)
let edit_first (fn : Mir.func) f =
  let rec blocks = function
    | [] -> false
    | (b : Mir.block) :: bs ->
        let rec insts acc = function
          | [] -> blocks bs
          | i :: rest -> (
              match f b i with
              | Some repl ->
                  b.Mir.b_insts <- List.rev_append acc (repl @ rest);
                  true
              | None -> insts (i :: acc) rest)
        in
        insts [] b.Mir.b_insts
  in
  blocks fn.Mir.f_blocks

(* rewrite the first operand (instructions in layout order, operands in
   position order) for which [f i j o] gives a new operand *)
let edit_operand fn ?(only = fun _ -> true) f =
  edit_first fn (fun _ (i : Mir.inst) ->
      if not (only i) then None
      else
        let hit = ref None in
        Array.iteri
          (fun j o ->
            if !hit = None then hit := Option.map (fun o' -> (j, o')) (f i j o))
          i.Mir.n_ops;
        Option.map
          (fun (j, o') ->
            let ops = Array.copy i.Mir.n_ops in
            ops.(j) <- o';
            [ { i with Mir.n_ops = ops } ])
          !hit)

let is_move (i : Mir.inst) =
  match i.Mir.n_op.Model.i_sem with
  | [ Ast.Sassign (Ast.Lopnd 1, Ast.Eopnd _) ] -> true
  | _ -> false

(* another register of the same class: the next index, wrapping *)
let other_reg model (r : Model.reg) =
  let c = Model.class_exn model r.Model.cls in
  let idx = r.Model.idx in
  { r with Model.idx = (if idx < c.Model.c_hi then idx + 1 else c.Model.c_lo) }

let bad_reg = { Model.cls = 0; idx = 1000 }

let drop_last_block (fn : Mir.func) =
  match List.rev fn.Mir.f_blocks with
  | [] | [ _ ] -> false
  | _ :: rest ->
      fn.Mir.f_blocks <- List.rev rest;
      true

let rename_first_block (fn : Mir.func) =
  match fn.Mir.f_blocks with
  | [] -> false
  | (b : Mir.block) :: rest ->
      fn.Mir.f_blocks <- { b with Mir.b_label = b.Mir.b_label ^ "_x" } :: rest;
      true

let reverse_blocks (fn : Mir.func) =
  List.iter
    (fun (b : Mir.block) -> b.Mir.b_insts <- List.rev b.Mir.b_insts)
    fn.Mir.f_blocks;
  true

(* swap the first adjacent pair satisfying [ok] in every block *)
let swap_adjacent ok (fn : Mir.func) =
  let any = ref false in
  List.iter
    (fun (b : Mir.block) ->
      let rec go = function
        | x :: y :: rest when ok x && ok y ->
            any := true;
            y :: x :: rest
        | x :: rest -> x :: go rest
        | [] -> []
      in
      b.Mir.b_insts <- go b.Mir.b_insts)
    fn.Mir.f_blocks;
  !any

let verifier_mutators : (string * (Mir.func -> bool)) list =
  [
    ( "class",
      fun fn ->
        edit_operand fn (fun i j o ->
            match (i.Mir.n_op.Model.i_opnds.(j), o) with
            | Model.Kreg _, (Mir.Ophys _ | Mir.Opreg _) -> Some (Mir.Oimm 0)
            | _ -> None) );
    ( "arity",
      fun fn ->
        edit_first fn (fun _ i ->
            let n = Array.length i.Mir.n_ops in
            if n > 0 then
              Some [ { i with Mir.n_ops = Array.sub i.Mir.n_ops 0 (n - 1) } ]
            else None) );
    ( "imm-range",
      fun fn ->
        let model = fn.Mir.f_model in
        edit_operand fn (fun i j o ->
            match (i.Mir.n_op.Model.i_opnds.(j), o) with
            | Model.Kimm d, Mir.Oimm _ ->
                let def = model.Model.defs.(d) in
                if def.Model.d_hi < max_int then
                  Some (Mir.Oimm (def.Model.d_hi + 1))
                else None
            | _ -> None) );
    ( "bad-reg",
      fun fn ->
        edit_operand fn (fun _ _ o ->
            match o with
            | Mir.Ophys r ->
                Some (Mir.Ophys { r with Model.idx = r.Model.idx + 1000 })
            | _ -> None) );
    ( "bad-xuse",
      fun fn ->
        edit_first fn (fun _ i ->
            Some [ { i with Mir.n_xuse = bad_reg :: i.Mir.n_xuse } ]) );
    ( "bad-xdef",
      fun fn ->
        edit_first fn (fun _ i ->
            if i.Mir.n_op.Model.i_call || i.Mir.n_xdef <> [] then
              Some [ { i with Mir.n_xdef = i.Mir.n_xdef @ [ bad_reg ] } ]
            else None) );
    ( "pseudo",
      fun fn ->
        edit_operand fn (fun i j o ->
            match (i.Mir.n_op.Model.i_opnds.(j), o) with
            | Model.Kreg c, Mir.Ophys _ ->
                Some (Mir.Opreg (Mir.fresh_preg fn c))
            | _ -> None) );
    ( "part",
      fun fn ->
        edit_operand fn (fun i j o ->
            match (i.Mir.n_op.Model.i_opnds.(j), o) with
            | Model.Kreg _, (Mir.Ophys _ | Mir.Opreg _) ->
                Some (Mir.Opart (o, 1))
            | _ -> None) );
    ( "slot",
      fun fn ->
        edit_operand fn (fun _ _ o ->
            match o with Mir.Oimm _ -> Some (Mir.Oslot (0, 4)) | _ -> None) );
    ( "label",
      fun fn ->
        edit_operand fn (fun _ _ o ->
            match o with
            | Mir.Olab _ -> Some (Mir.Olab "Lnowhere")
            | _ -> None) );
    ( "succ",
      fun fn ->
        match fn.Mir.f_blocks with
        | [] -> false
        | b :: _ ->
            b.Mir.b_succs <- "Lnowhere" :: b.Mir.b_succs;
            true );
    ( "dup-label",
      fun fn ->
        match fn.Mir.f_blocks with
        | [] -> false
        | b :: _ ->
            fn.Mir.f_blocks <-
              fn.Mir.f_blocks @ [ Mir.new_block b.Mir.b_label ];
            true );
    ( "drop-fill",
      fun fn ->
        List.exists
          (fun (b : Mir.block) ->
            let rec go = function
              | (x : Mir.inst) :: _ :: rest
                when x.Mir.n_op.Model.i_branch
                     && x.Mir.n_op.Model.i_slots <> 0 ->
                  Some (x :: rest)
              | x :: rest -> Option.map (fun r -> x :: r) (go rest)
              | [] -> None
            in
            match go b.Mir.b_insts with
            | Some l ->
                b.Mir.b_insts <- l;
                true
            | None -> false)
          fn.Mir.f_blocks );
    ( "after-term",
      fun fn ->
        List.exists
          (fun (b : Mir.block) ->
            match b.Mir.b_insts with
            | first :: _
              when List.exists
                     (fun (i : Mir.inst) ->
                       i.Mir.n_op.Model.i_branch && not i.Mir.n_op.Model.i_call)
                     b.Mir.b_insts ->
                b.Mir.b_insts <- b.Mir.b_insts @ [ Mir.clone_inst fn first ];
                true
            | _ -> false)
          fn.Mir.f_blocks );
    ( "drop-def",
      fun fn ->
        edit_first fn (fun _ i ->
            if i.Mir.n_op.Model.i_writes <> [] then Some [] else None) );
    ("reverse", reverse_blocks);
  ]

(* Regval's mutants of an allocation's output; [orig] holds the ids of
   the instructions the allocator was given *)
let regval_mutators orig : (string * (Mir.func -> bool)) list =
  let matched (i : Mir.inst) = Hashtbl.mem orig i.Mir.n_id in
  let inserted i = not (matched i) in
  [
    ( "drop-reload",
      fun fn ->
        edit_first fn (fun _ i ->
            if inserted i && i.Mir.n_op.Model.i_loads then Some [] else None) );
    ( "drop-inserted",
      fun fn ->
        edit_first fn (fun _ i -> if inserted i then Some [] else None) );
    ( "delete",
      fun fn ->
        edit_first fn (fun _ i ->
            if matched i && not (is_move i) then Some [] else None) );
    ( "delete-move",
      fun fn ->
        edit_first fn (fun _ i ->
            if matched i && is_move i then Some [] else None) );
    ("swap", swap_adjacent matched);
    ( "dup",
      fun fn ->
        edit_first fn (fun _ i -> if matched i then Some [ i; i ] else None) );
    ( "clone",
      fun fn ->
        edit_first fn (fun _ i ->
            if matched i && not (is_move i) then Some [ i; Mir.clone_inst fn i ]
            else None) );
    ( "read-reg",
      fun fn ->
        let model = fn.Mir.f_model in
        edit_operand fn ~only:matched (fun i j o ->
            match o with
            | Mir.Ophys r when List.mem j i.Mir.n_op.Model.i_reads ->
                Some (Mir.Ophys (other_reg model r))
            | _ -> None) );
    ( "def-reg",
      fun fn ->
        let model = fn.Mir.f_model in
        edit_operand fn ~only:matched (fun i j o ->
            match o with
            | Mir.Ophys r when List.mem j i.Mir.n_op.Model.i_writes ->
                Some (Mir.Ophys (other_reg model r))
            | _ -> None) );
    ( "inserted-reg",
      fun fn ->
        let model = fn.Mir.f_model in
        edit_operand fn ~only:inserted (fun _ _ o ->
            match o with
            | Mir.Ophys r -> Some (Mir.Ophys (other_reg model r))
            | _ -> None) );
    ( "imm",
      fun fn ->
        edit_operand fn ~only:matched (fun _ _ o ->
            match o with Mir.Oimm v -> Some (Mir.Oimm (v + 1)) | _ -> None) );
    ( "arity",
      fun fn ->
        edit_first fn (fun _ i ->
            let n = Array.length i.Mir.n_ops in
            if matched i && n > 0 then
              Some [ { i with Mir.n_ops = Array.sub i.Mir.n_ops 0 (n - 1) } ]
            else None) );
    ( "location",
      fun fn ->
        let model = fn.Mir.f_model in
        let moved = ref false in
        fn.Mir.f_locations <-
          List.map
            (fun (pid, l) ->
              match l with
              | Mir.Lreg r when not !moved ->
                  moved := true;
                  (pid, Mir.Lreg (other_reg model r))
              | _ -> (pid, l))
            fn.Mir.f_locations;
        !moved );
    ( "no-location",
      fun fn ->
        match fn.Mir.f_locations with
        | [] -> false
        | _ :: rest ->
            fn.Mir.f_locations <- rest;
            true );
    ("drop-block", drop_last_block);
    ("rename-block", rename_first_block);
  ]

let schedval_mutators : (string * (Mir.func -> bool)) list =
  let real i = not (Listsched.is_nop i) in
  [
    ("reverse", reverse_blocks);
    ("swap", swap_adjacent real);
    ( "drop",
      fun fn -> edit_first fn (fun _ i -> if real i then Some [] else None) );
    ( "dup",
      fun fn ->
        edit_first fn (fun _ i -> if real i then Some [ i; i ] else None) );
    ( "clone",
      fun fn ->
        edit_first fn (fun _ i ->
            if real i then Some [ i; Mir.clone_inst fn i ] else None) );
    ("drop-block", drop_last_block);
    ("rename-block", rename_first_block);
  ]

(* ------------------------------------------------------------------ *)
(* The 368 cells through their pipelines                               *)

(* Runs every cell of [corpus] on [model] through each strategy's
   pipeline, calling [verify phase fn] at every phase point and
   [validate phase ~before ~analysis fn] after every validated pass
   ([analysis]: the disambiguation of [before], computed outside). *)
let run_cells ~corpus model ~cell ~verify ~validate =
  List.iter
    (fun (file, src) ->
      List.iter
        (fun strategy ->
          cell (Printf.sprintf "%s %s" file (Strategy.to_string strategy));
          match
            let ir = Cgen.compile ~file src in
            List.iter (Glue.transform_func model) ir.Ir.funcs;
            List.map (Select.select_func model) ir.Ir.funcs
          with
          | exception (Select.No_pattern _ | Loc.Error _) -> ()
          | fns ->
              List.iter
                (fun (fn : Mir.func) ->
                  verify Diag.Post_select fn;
                  let snapshot phase fn =
                    if Transval.validated_phase phase then
                      Some (Transval.capture fn)
                    else None
                  in
                  let validate phase ~before fn =
                    let analysis =
                      match phase with
                      | Diag.Post_sched -> Some (Disambig.compute before)
                      | _ -> None
                    in
                    validate phase ~before ~analysis fn
                  in
                  match
                    Pass.run_pipeline ~verify ~snapshot ~validate
                      (Strategy.pipeline strategy) fn
                  with
                  | exception Loc.Error _ -> ()
                  | _ -> ())
                fns)
        Strategy.all)
    corpus

let render buf label ds =
  List.iter
    (fun d -> Printf.bprintf buf "%s\t%s\n" label (Diag.to_string d))
    ds

(* every rendered diagnostic of one target's cells, clean and mutated *)
let diagnostic_blob model =
  let buf = Buffer.create (1 lsl 20) in
  let cell_name = ref "" in
  let fn_label phase (fn : Mir.func) what =
    Printf.sprintf "%s %s %s %s" !cell_name fn.Mir.f_name
      (Diag.phase_name phase) what
  in
  let verify phase fn =
    render buf (fn_label phase fn "clean") (Mircheck.check_func phase fn);
    List.iter
      (fun (name, mutate) ->
        let m = Transval.capture fn in
        if mutate m then
          render buf (fn_label phase fn name) (Mircheck.check_func phase m))
      verifier_mutators
  in
  let validate phase ~before ~analysis fn =
    let run f =
      Transval.validate_func ~disambig:true ?analysis phase ~before f
    in
    let clean = run fn in
    (match clean with
    | [] -> ()
    | d :: _ ->
        Alcotest.failf "%s: validator reports %s on a clean compile"
          (fn_label phase fn "valid clean")
          (Diag.to_string d));
    render buf (fn_label phase fn "valid clean") clean;
    let mutators =
      match phase with
      | Diag.Post_regalloc ->
          let orig = Hashtbl.create 64 in
          List.iter
            (fun (b : Mir.block) ->
              List.iter
                (fun (i : Mir.inst) -> Hashtbl.replace orig i.Mir.n_id ())
                b.Mir.b_insts)
            before.Mir.f_blocks;
          regval_mutators orig
      | _ -> schedval_mutators
    in
    List.iter
      (fun (name, mutate) ->
        let m = Transval.capture fn in
        if mutate m then
          render buf (fn_label phase fn ("valid " ^ name)) (run m))
      mutators
  in
  run_cells ~corpus:(Test_regalloc.corpus ()) model
    ~cell:(fun c -> cell_name := c)
    ~verify ~validate;
  Buffer.contents buf

(* MD5 of [diagnostic_blob] per target and its diagnostic count,
   captured before the checkers stopped building message text on their
   passing paths. Never regenerate them. *)
let diagnostic_goldens =
  [
    ("toyp", ("469bee2d8ef5be4e197e3c57f4d910ff", 79933));
    ("r2000", ("9bf72d511f9460aa66df543c52e86547", 62805));
    ("m88000", ("fbf9ef200866df21613d4f79048039e6", 62758));
    ("i860", ("6d027d6c027eb9a3f41d0271bc315380", 85244));
  ]

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

let test_diagnostic_bytes () =
  List.iter
    (fun (tname, load) ->
      let blob = diagnostic_blob (load ()) in
      let g_digest, g_n = List.assoc tname diagnostic_goldens in
      check Alcotest.int (tname ^ " diagnostic count") g_n (count_lines blob);
      check Alcotest.string (tname ^ " diagnostic bytes") g_digest
        (Digest.to_hex (Digest.string blob)))
    Test_regalloc.targets

(* ------------------------------------------------------------------ *)
(* Allocation on the passing path                                      *)

(* Minor words per checked instruction over the Livermore cells, for
   Mircheck, Regval and Schedval on the clean path, and for the DAG
   rebuild Schedval must repeat ({!Dag.build} on each block's input, with
   the scheduler's alias oracle), which the Schedval figure includes *)
let passing_allocation () =
  let words = Array.make 4 0. and insts = Array.make 4 0 in
  let count (fn : Mir.func) =
    List.fold_left
      (fun acc (b : Mir.block) -> acc + List.length b.Mir.b_insts)
      0 fn.Mir.f_blocks
  in
  let measure k fn f =
    let w0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    words.(k) <- words.(k) +. (Gc.minor_words () -. w0);
    insts.(k) <- insts.(k) + count fn
  in
  let verify phase fn = measure 0 fn (fun () -> Mircheck.check_func phase fn) in
  let validate phase ~before ~analysis fn =
    match phase with
    | Diag.Post_regalloc ->
        measure 1 fn (fun () -> Transval.validate_func phase ~before fn)
    | _ ->
        measure 2 fn (fun () ->
            Transval.validate_func ~disambig:true ?analysis phase ~before fn);
        let oracle =
          Option.map (fun d -> Dag.oracle (Disambig.may_alias d)) analysis
        in
        measure 3 fn (fun () ->
            List.map
              (fun (b : Mir.block) ->
                Dag.build ?oracle before.Mir.f_model
                  (List.filter
                     (fun i -> not (Listsched.is_nop i))
                     b.Mir.b_insts))
              before.Mir.f_blocks)
  in
  List.iter
    (fun (_, load) ->
      run_cells ~corpus:(Livermore.sources ()) (load ())
        ~cell:(fun _ -> ()) ~verify ~validate)
    Test_regalloc.targets;
  Array.mapi (fun k w -> w /. float_of_int (max 1 insts.(k))) words

(* Bounds in minor words per checked instruction. Before the checkers
   stopped building message text on their passing paths these read
   126 (Mircheck), 851 (Regval) and 26 beyond the DAG rebuild (Schedval,
   whose rebuild takes 212); after, 31, 23 and 6. *)
let test_passing_allocation () =
  let per = passing_allocation () in
  let schedval_own = per.(2) -. per.(3) in
  List.iter
    (fun (name, words, bound) ->
      if words > bound then
        Alcotest.failf "%s allocates %.1f words per instruction (bound %.0f)"
          name words bound)
    [
      ("Mircheck", per.(0), 45.);
      ("Regval", per.(1), 35.);
      ("Schedval beyond its DAG rebuild", schedval_own, 12.);
    ]

let suite =
  [
    Alcotest.test_case "diagnostic bytes vs pre-rework goldens, 368 cells"
      `Slow test_diagnostic_bytes;
    Alcotest.test_case "passing checkers allocate little per instruction"
      `Slow test_passing_allocation;
  ]
