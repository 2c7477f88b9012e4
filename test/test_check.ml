(* Static-checking tests: the description linter (Marilint) and the
   phase-aware MIR verifier (Mircheck).

   Positive direction: every built-in description lints clean, and clean
   compiles under every strategy produce zero check diagnostics at all
   four phase points. Negative direction: a deliberately broken Maril
   description yields a located lint error, and seeded MIR mutations are
   each caught with the right code at the right phase. *)

let check = Alcotest.check

let builtins =
  [
    ("toyp", lazy (Toyp.load ()));
    ("r2000", lazy (R2000.load ()));
    ("m88000", lazy (M88000.load ()));
    ("i860", lazy (I860.load ()));
  ]

let r2000 = List.assoc "r2000" builtins

(* ------------------------------------------------------------------ *)
(* Marilint *)

let test_builtins_lint_clean () =
  List.iter
    (fun (name, model) ->
      match Marion.lint (Lazy.force model) with
      | [] -> ()
      | ds ->
          Alcotest.failf "%s lints dirty: %s" name
            (String.concat "; " (List.map Diag.to_string ds)))
    builtins

let broken_latency_desc =
  {|declare { %reg r[0:7] (int); %resource IF; %resource EX; }
    cwvm { %general (int) r; %allocable r[1:5]; %SP r[7] +down;
           %fp r[6] +down; %retaddr r[1]; }
    instr { %instr nop {nop;} [IF;] (1,1,0)
            %instr add r, r, r (int) {$1 = $2 + $3;} [IF; EX;] (1,4,0) }|}

let test_broken_description_l003 () =
  (* latency 4 over a 2-cycle resource vector: the result would outlive
     the declared pipeline. The finding must carry the declaration site. *)
  let m =
    Marion.load_target ~name:"bad" ~file:"<bad>" broken_latency_desc
  in
  match Marion.lint m with
  | [ d ] ->
      check Alcotest.string "code" "L003" d.Diag.code;
      check Alcotest.bool "severity" true (d.Diag.severity = Diag.Error);
      check Alcotest.string "located in the description" "<bad>"
        d.Diag.loc.Loc.file;
      check Alcotest.bool "line known" true (d.Diag.loc.Loc.line > 0)
  | ds ->
      Alcotest.failf "expected exactly one L003, got [%s]"
        (String.concat "; " (List.map Diag.to_string ds))

let test_lint_suppression () =
  let m =
    Marion.load_target ~name:"bad" ~file:"<bad>" broken_latency_desc
  in
  check Alcotest.int "suppressed" 0
    (List.length (Marion.lint ~suppress:[ "L003" ] m));
  (* and a suppressed-clean description compiles *)
  match Marilint.lint_exn ~suppress:[ "L003" ] m with
  | _ -> ()
  | exception Diag.Check_error _ ->
      Alcotest.fail "suppression should clear the error"

let test_compile_rejects_broken_description () =
  let m =
    Marion.load_target ~name:"bad" ~file:"<bad>" broken_latency_desc
  in
  let src = "int main(void) { return 0; }" in
  match Marion.compile m Strategy.Postpass ~file:"<t.c>" src with
  | _ -> Alcotest.fail "expected Check_error before selection"
  | exception Diag.Check_error ds ->
      check Alcotest.bool "L003 reported" true
        (List.exists (fun d -> d.Diag.code = "L003") ds)

(* ------------------------------------------------------------------ *)
(* Clean compiles carry zero diagnostics *)

let clean_src =
  {|int a[32];
    int main(void) {
      int i; int s = 0;
      for (i = 0; i < 32; i++) a[i] = i * 3 - 16;
      for (i = 0; i < 32; i++) if (a[i] > 0) s = s + a[i];
      print_int(s); return s & 127;
    }|}

let test_clean_compiles_no_diags () =
  (* A-series analysis findings are advisory and expected even on clean
     source (the front end materializes discarded expression values, so
     the dead-store client legitimately fires); anything else is a
     regression *)
  let advisory (d : Diag.t) =
    String.length d.Diag.code > 0
    && d.Diag.code.[0] = 'A'
    && d.Diag.severity = Diag.Warning
  in
  List.iter
    (fun (tname, model) ->
      let m = Lazy.force model in
      List.iter
        (fun strat ->
          let c = Marion.compile m strat ~file:"<clean.c>" clean_src in
          match
            List.filter
              (fun d -> not (advisory d))
              c.Marion.report.Strategy.check_diags
          with
          | [] -> ()
          | ds ->
              Alcotest.failf "%s/%s: unexpected diagnostics: %s" tname
                (Strategy.to_string strat)
                (String.concat "; " (List.map Diag.to_string ds)))
        Strategy.all)
    builtins

(* ------------------------------------------------------------------ *)
(* Seeded mutations: each must be caught with the right code + phase *)

let compile_quiet strat src =
  (Marion.compile
     ~opts:{ Strategy.default with check = false }
     (Lazy.force r2000) strat ~file:"<mut.c>" src)
    .Marion.prog

let find_map_inst prog f =
  let rec scan = function
    | [] -> None
    | (fn : Mir.func) :: fns ->
        let rec blocks = function
          | [] -> scan fns
          | (b : Mir.block) :: bs ->
              let rec insts = function
                | [] -> blocks bs
                | i :: is -> (
                    match f fn b i with Some _ as r -> r | None -> insts is)
              in
              insts b.Mir.b_insts
        in
        blocks fn.Mir.f_blocks
  in
  match scan prog.Mir.p_funcs with
  | Some x -> x
  | None -> Alcotest.fail "mutation site not found"

let codes_at phase prog =
  List.map
    (fun (d : Diag.t) -> d.Diag.code)
    (Marion.check_mir phase prog)

let assert_caught what phase code prog =
  let found = codes_at phase prog in
  if not (List.mem code found) then
    Alcotest.failf "%s: expected %s at %s, got [%s]" what code
      (Diag.phase_name phase)
      (String.concat "; " found);
  (* and the exn entry point refuses the program *)
  match Mircheck.check_prog_exn phase prog with
  | _ -> Alcotest.failf "%s: check_prog_exn accepted the mutant" what
  | exception Diag.Check_error _ -> ()

let test_mutation_operand_class () =
  (* swap a register operand for an immediate: M002 (operand shape) *)
  let prog = compile_quiet Strategy.Postpass clean_src in
  let () =
    find_map_inst prog (fun _ _ (i : Mir.inst) ->
        let hit = ref None in
        Array.iteri
          (fun j k ->
            match (k, i.Mir.n_ops.(j)) with
            | Model.Kreg _, Mir.Ophys _ when !hit = None -> hit := Some j
            | _ -> ())
          i.Mir.n_op.Model.i_opnds;
        match !hit with
        | Some j ->
            i.Mir.n_ops.(j) <- Mir.Oimm 0;
            Some ()
        | None -> None)
  in
  assert_caught "class swap" Diag.Final "M002" prog

let test_mutation_fixed_register () =
  (* retarget a fixed-register operand: M003. No built-in description
     uses one, so check against a synthetic model declaring an
     instruction pinned to the stack pointer. *)
  let m =
    Marion.load_target ~name:"fix" ~file:"<fix>"
      {|declare { %reg r[0:7] (int); %resource IF; }
        cwvm { %general (int) r; %allocable r[1:5]; %SP r[7] +down;
               %fp r[6] +down; %retaddr r[1]; }
        instr { %instr nop {nop;} [IF;] (1,1,0)
                %instr mvsp r[7], r (int) {$1 = $2;} [IF;] (1,1,0) }|}
  in
  let mvsp = List.hd (Model.instrs_by_name m "mvsp") in
  let cls =
    match mvsp.Model.i_opnds.(0) with
    | Model.Kregfix r -> r.Model.cls
    | _ -> Alcotest.fail "mvsp operand 0 should be a fixed register"
  in
  let fn = Mir.new_func m "f" in
  let i =
    (* r[6] where the description pins r[7] *)
    Mir.mk_inst fn mvsp
      [|
        Mir.Ophys { Model.cls; idx = 6 }; Mir.Ophys { Model.cls; idx = 7 };
      |]
  in
  let b = Mir.new_block "entry" in
  b.Mir.b_insts <- [ i ];
  fn.Mir.f_blocks <- [ b ];
  let prog = { Mir.p_model = m; p_globals = []; p_funcs = [ fn ] } in
  assert_caught "fixed-register swap" Diag.Post_select "M003" prog

let test_mutation_immediate_range () =
  (* push an immediate outside its %def range: M004 *)
  let prog = compile_quiet Strategy.Postpass clean_src in
  let () =
    find_map_inst prog (fun (fn : Mir.func) _ (i : Mir.inst) ->
        let model = fn.Mir.f_model in
        let hit = ref None in
        Array.iteri
          (fun j k ->
            match (k, i.Mir.n_ops.(j)) with
            | Model.Kimm d, Mir.Oimm _ when !hit = None ->
                let def = model.Model.defs.(d) in
                if def.Model.d_hi < max_int then hit := Some (j, def)
            | _ -> ())
          i.Mir.n_op.Model.i_opnds;
        match !hit with
        | Some (j, def) ->
            i.Mir.n_ops.(j) <- Mir.Oimm (def.Model.d_hi + 1);
            Some ()
        | None -> None)
  in
  assert_caught "immediate range" Diag.Final "M004" prog

let test_mutation_dropped_delay_slot () =
  (* delete the instruction filling a delay slot: M041 post-sched *)
  let prog = compile_quiet Strategy.Postpass clean_src in
  let () =
    find_map_inst prog (fun _ (b : Mir.block) (i : Mir.inst) ->
        if i.Mir.n_op.Model.i_slots <> 0 && i.Mir.n_op.Model.i_branch then begin
          let rec drop_after = function
            | [] -> []
            | x :: _ :: rest when x.Mir.n_id = i.Mir.n_id -> x :: rest
            | x :: rest -> x :: drop_after rest
          in
          let before = List.length b.Mir.b_insts in
          b.Mir.b_insts <- drop_after b.Mir.b_insts;
          if List.length b.Mir.b_insts < before then Some () else None
        end
        else None)
  in
  assert_caught "dropped delay slot" Diag.Post_sched "M041" prog

let test_mutation_pseudo_after_alloc () =
  (* resurrect a pseudo-register in allocated code: M021 *)
  let prog = compile_quiet Strategy.Postpass clean_src in
  let () =
    find_map_inst prog (fun (fn : Mir.func) _ (i : Mir.inst) ->
        let hit = ref None in
        Array.iteri
          (fun j k ->
            match (k, i.Mir.n_ops.(j)) with
            | Model.Kreg c, Mir.Ophys _ when !hit = None -> hit := Some (j, c)
            | _ -> ())
          i.Mir.n_op.Model.i_opnds;
        match !hit with
        | Some (j, c) ->
            i.Mir.n_ops.(j) <- Mir.Opreg (Mir.fresh_preg fn c);
            Some ()
        | None -> None)
  in
  assert_caught "pseudo after allocation" Diag.Final "M021" prog

let test_mutation_use_before_def () =
  (* a hand-built post-select function reading a never-assigned pseudo:
     M031 (definitely-assigned dataflow) *)
  let m = Lazy.force r2000 in
  let add =
    match Model.instrs_by_name m "addu" with
    | i :: _ -> i
    | [] -> List.hd (Model.instrs_by_name m "add")
  in
  let cls =
    match add.Model.i_opnds.(0) with
    | Model.Kreg c -> c
    | _ -> Alcotest.fail "add operand 0 is not a register class"
  in
  let fn = Mir.new_func m "f" in
  let dst = Mir.fresh_preg fn cls and src = Mir.fresh_preg fn cls in
  let i =
    Mir.mk_inst fn add [| Mir.Opreg dst; Mir.Opreg src; Mir.Opreg src |]
  in
  let b = Mir.new_block "entry" in
  b.Mir.b_insts <- [ i ];
  fn.Mir.f_blocks <- [ b ];
  let prog =
    { Mir.p_model = m; p_globals = []; p_funcs = [ fn ] }
  in
  assert_caught "use before def" Diag.Post_select "M031" prog

(* M031 across blocks: hand-built post-select CFGs over one pseudo [p],
   defined (from the stack pointer, which the entry seed assigns) in
   [def_in] and read in [use_in]. [blocks] lists (label, successors) in
   layout order; the first is the entry. Returns the blocks M031 fires
   in. *)
let m031_blocks ~blocks ~def_in ~use_in =
  let m = Lazy.force r2000 in
  let add = List.hd (Model.instrs_by_name m "addu") in
  let cls =
    match add.Model.i_opnds.(0) with
    | Model.Kreg c -> c
    | _ -> Alcotest.fail "addu operand 0 is not a register class"
  in
  let sp = Mir.Ophys m.Model.cwvm.Model.v_sp in
  let fn = Mir.new_func m "f" in
  let p = Mir.fresh_preg fn cls in
  let mk (label, succs) =
    let b = Mir.new_block label in
    b.Mir.b_succs <- succs;
    b.Mir.b_insts <-
      (if List.mem label def_in then
         [ Mir.mk_inst fn add [| Mir.Opreg p; sp; sp |] ]
       else [])
      @
      if List.mem label use_in then
        [ Mir.mk_inst fn add [| sp; Mir.Opreg p; Mir.Opreg p |] ]
      else [];
    b
  in
  fn.Mir.f_blocks <- List.map mk blocks;
  List.sort_uniq compare
    (List.filter_map
       (fun (d : Diag.t) ->
         if d.Diag.code = "M031" then d.Diag.block else None)
       (Mircheck.check_func Diag.Post_select fn))

let test_m031_multi_block () =
  let diamond =
    [
      ("entry", [ "left"; "right" ]); ("left", [ "join" ]);
      ("right", [ "join" ]); ("join", []);
    ]
  in
  let blocks = Alcotest.list Alcotest.string in
  check blocks "defined on one arm: M031 at the join" [ "join" ]
    (m031_blocks ~blocks:diamond ~def_in:[ "left" ] ~use_in:[ "join" ]);
  check blocks "defined on both arms: clean" []
    (m031_blocks ~blocks:diamond ~def_in:[ "left"; "right" ]
       ~use_in:[ "join" ]);
  check blocks "defined only in the loop body: M031 at the header"
    [ "head" ]
    (m031_blocks
       ~blocks:
         [
           ("entry", [ "head" ]); ("head", [ "body"; "exit" ]);
           ("body", [ "head" ]); ("exit", []);
         ]
       ~def_in:[ "body" ] ~use_in:[ "head" ]);
  check blocks "unreachable use: no obligation" []
    (m031_blocks
       ~blocks:[ ("entry", []); ("dead", []) ]
       ~def_in:[] ~use_in:[ "dead" ])

(* [x * x] with [x] never assigned: [mult] reads the pseudo through two
   operands, and M031 names it once for the instruction *)
let test_m031_once_per_register () =
  let m = Lazy.force r2000 in
  let prog =
    Select.select_prog m
      (Cgen.compile ~file:"<m031.c>" "int f(void) { int x; return x * x; }")
  in
  check
    Alcotest.(list string)
    "one M031 per unassigned register per instruction"
    [ "mult reads %0(x), which is not assigned on every path from function \
       entry" ]
    (List.filter_map
       (fun (d : Diag.t) ->
         if d.Diag.code = "M031" then Some d.Diag.message else None)
       (Mircheck.check_prog Diag.Post_select prog))

let test_duplicate_label_m011 () =
  (* two blocks share a label: reported, never raised *)
  let m = Lazy.force r2000 in
  let fn = Mir.new_func m "f" in
  let a = Mir.new_block "L" and b = Mir.new_block "L" in
  a.Mir.b_succs <- [ "L" ];
  fn.Mir.f_blocks <- [ a; b ];
  let codes =
    List.map
      (fun (d : Diag.t) -> d.Diag.code)
      (Mircheck.check_func Diag.Post_select fn)
  in
  check Alcotest.bool "M011 reported" true (List.mem "M011" codes)

let test_mutation_broken_cfg () =
  (* point a successor edge at a label that does not exist: M012 *)
  let prog = compile_quiet Strategy.Postpass clean_src in
  let () =
    find_map_inst prog (fun (fn : Mir.func) _ _ ->
        match fn.Mir.f_blocks with
        | (b : Mir.block) :: _ ->
            b.Mir.b_succs <- "Lnowhere" :: b.Mir.b_succs;
            Some ()
        | [] -> None)
  in
  assert_caught "broken cfg" Diag.Post_select "M012" prog

(* ------------------------------------------------------------------ *)
(* L013: shadowed selection patterns *)

(* the narrow-immediate add can never be selected: the wide form is
   declared first, matches everything the narrow form matches (first
   match wins), and its range strictly contains the narrow range *)
let shadowed_desc order =
  let wide = "%instr addi r, r, #wide (int) {$1 = $2 + $3;} [IF; EX;] (1,1,0)" in
  let narrow =
    "%instr addi8 r, r, #narrow (int) {$1 = $2 + $3;} [IF; EX;] (1,1,0)"
  in
  let first, second =
    match order with `Wide_first -> (wide, narrow) | `Narrow_first -> (narrow, wide)
  in
  Printf.sprintf
    {|declare { %%reg r[0:7] (int); %%resource IF; %%resource EX;
               %%def wide [-32768:32767]; %%def narrow [-128:127]; }
      cwvm { %%general (int) r; %%allocable r[1:5]; %%SP r[7] +down;
             %%fp r[6] +down; %%retaddr r[1]; }
      instr { %%instr nop {nop;} [IF;] (1,1,0)
              %%instr add r, r, r (int) {$1 = $2 + $3;} [IF; EX;] (1,1,0)
              %s
              %s }|}
    first second

let test_l013_shadowed_pattern () =
  let m =
    Marion.load_target ~name:"shadow" ~file:"<shadow>"
      (shadowed_desc `Wide_first)
  in
  match List.filter (fun (d : Diag.t) -> d.Diag.code = "L013") (Marion.lint m)
  with
  | [ d ] ->
      check Alcotest.bool "warning severity" true
        (d.Diag.severity = Diag.Warning);
      check Alcotest.string "located in the description" "<shadow>"
        d.Diag.loc.Loc.file;
      check Alcotest.bool "names the shadowed pattern" true
        (let msg = d.Diag.message in
         String.length msg >= 5 && String.sub msg 0 5 = "addi8")
  | ds ->
      Alcotest.failf "expected exactly one L013, got [%s]"
        (String.concat "; " (List.map Diag.to_string ds))

let test_l013_narrow_first_is_reachable () =
  (* with the narrow form first, both patterns are reachable: the wide
     range is not contained in the narrow one *)
  let m =
    Marion.load_target ~name:"shadow" ~file:"<shadow>"
      (shadowed_desc `Narrow_first)
  in
  check Alcotest.int "no L013" 0
    (List.length
       (List.filter (fun (d : Diag.t) -> d.Diag.code = "L013") (Marion.lint m)))

(* ------------------------------------------------------------------ *)
(* Diag.sort: deterministic render order *)

let test_diag_sort_deterministic () =
  let mk ?func ?phase ?block ~line code =
    Diag.make ?func ?phase ?block ~code
      ~loc:{ Loc.file = "<f>"; line; col = 1 }
      "d"
  in
  let a = mk ~func:"a" ~phase:Diag.Post_sched ~line:4 "V001" in
  let b = mk ~func:"b" ~phase:Diag.Post_select ~line:1 "M001" in
  let c = mk ~func:"a" ~phase:Diag.Post_select ~block:"L0" ~line:9 "M009" in
  let d = mk ~func:"a" ~phase:Diag.Post_sched ~line:2 "V001" in
  let e = mk ~line:1 "L003" in
  let sorted = Diag.sort [ a; b; c; d; e ] in
  (* no-function lints first, then by (function, phase, code, location) *)
  check (Alcotest.list Alcotest.string) "render order"
    [ "L003"; "M009"; "V001@2"; "V001@4"; "M001" ]
    (List.map
       (fun (x : Diag.t) ->
         if x.Diag.code = "V001" then
           Printf.sprintf "V001@%d" x.Diag.loc.Loc.line
         else x.Diag.code)
       sorted);
  (* and sorting is a fixpoint: re-sorting any permutation agrees *)
  check Alcotest.bool "permutation-independent" true
    (Diag.sort [ e; d; c; b; a ] = sorted)

let suite =
  [
    Alcotest.test_case "builtins lint clean" `Quick test_builtins_lint_clean;
    Alcotest.test_case "L013 shadowed pattern" `Quick
      test_l013_shadowed_pattern;
    Alcotest.test_case "L013 narrow-first is reachable" `Quick
      test_l013_narrow_first_is_reachable;
    Alcotest.test_case "Diag.sort is deterministic" `Quick
      test_diag_sort_deterministic;
    Alcotest.test_case "broken description L003" `Quick
      test_broken_description_l003;
    Alcotest.test_case "lint suppression" `Quick test_lint_suppression;
    Alcotest.test_case "compile rejects broken description" `Quick
      test_compile_rejects_broken_description;
    Alcotest.test_case "clean compiles carry no diags" `Quick
      test_clean_compiles_no_diags;
    Alcotest.test_case "mutation: operand class" `Quick
      test_mutation_operand_class;
    Alcotest.test_case "mutation: fixed register" `Quick
      test_mutation_fixed_register;
    Alcotest.test_case "mutation: immediate range" `Quick
      test_mutation_immediate_range;
    Alcotest.test_case "mutation: dropped delay slot" `Quick
      test_mutation_dropped_delay_slot;
    Alcotest.test_case "mutation: pseudo after alloc" `Quick
      test_mutation_pseudo_after_alloc;
    Alcotest.test_case "mutation: use before def" `Quick
      test_mutation_use_before_def;
    Alcotest.test_case "M031 across blocks" `Quick test_m031_multi_block;
    Alcotest.test_case "M031 once per register per instruction" `Quick
      test_m031_once_per_register;
    Alcotest.test_case "duplicate label M011" `Quick
      test_duplicate_label_m011;
    Alcotest.test_case "mutation: broken cfg" `Quick
      test_mutation_broken_cfg;
  ]
