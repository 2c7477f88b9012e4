(* Tests for the Maril lexer, parser and machine model builder, using the
   paper's TOYP description (Figures 1-3). *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let figure_model =
  lazy
    (Builder.load ~name:"toyp-fig" ~file:"<fig>" Toyp.figure_description)

let test_lex_simple () =
  let toks = Lexer.tokenize ~file:"<t>" "%reg r[0:7] (int);" in
  check Alcotest.int "token count" 12 (Array.length toks);
  (match toks.(0).Token.kind with
  | Token.DIRECTIVE "reg" -> ()
  | k -> Alcotest.failf "expected %%reg, got %s" (Token.to_string k));
  match toks.(11).Token.kind with
  | Token.EOF -> ()
  | k -> Alcotest.failf "expected EOF, got %s" (Token.to_string k)

let test_lex_operators () =
  let toks = Lexer.tokenize ~file:"<t>" "== != <= >= << >> >>> :: ==> === ->" in
  ignore toks;
  let kinds = Array.to_list toks |> List.map (fun t -> t.Token.kind) in
  match kinds with
  | [
   Token.EQEQ; Token.NE; Token.LE; Token.GE; Token.SHL; Token.SHR; Token.SHRU;
   Token.COLONCOLON; Token.ARROW; Token.EQEQ; Token.MINUS; Token.GT; Token.EOF;
  ] ->
      ()
  | _ ->
      Alcotest.failf "unexpected kinds: %s"
        (String.concat " " (List.map Token.to_string kinds))

let test_lex_comments () =
  let toks = Lexer.tokenize ~file:"<t>" "/* hi */ add // eol\n 42" in
  check Alcotest.int "count" 3 (Array.length toks)

let test_lex_dollar () =
  let toks = Lexer.tokenize ~file:"<t>" "$1 = $22;" in
  match toks.(0).Token.kind, toks.(2).Token.kind with
  | Token.DOLLAR 1, Token.DOLLAR 22 -> ()
  | _ -> Alcotest.fail "bad $ operands"

let test_lex_error () =
  match Lexer.tokenize ~file:"<t>" "@@@" with
  | _ -> Alcotest.fail "expected a lex error"
  | exception Loc.Error (_, _) -> ()

(* numbers too large for an int fail at the literal (the '$' of an
   operand), not as a bare int_of_string failure *)
let test_lex_out_of_range () =
  List.iter
    (fun (src, col) ->
      match Lexer.tokenize ~file:"<t>" src with
      | _ -> Alcotest.failf "%s: expected a lex error" src
      | exception Loc.Error (loc, msg) ->
          check Alcotest.string src
            (Printf.sprintf "<t>:1:%d: integer literal out of range" col)
            (Loc.error_to_string loc msg))
    [
      ("%reg r[0:99999999999999999999] (int);", 10);
      ("%reg r[0:0x1FFFFFFFFFFFFFFFF] (int);", 10);
      ("{$1 = $99999999999999999999;}", 7);
    ]

let test_parse_expr () =
  let e = Parser.parse_expr ~file:"<t>" "$1 + $2 * 3" in
  match e with
  | Ast.Ebinop (Ast.Add, Ast.Eopnd 1, Ast.Ebinop (Ast.Mul, Ast.Eopnd 2, Ast.Eint 3))
    ->
      ()
  | _ -> Alcotest.failf "bad precedence: %s" (Format.asprintf "%a" Ast.pp_expr e)

let test_parse_expr_cmp () =
  let e = Parser.parse_expr ~file:"<t>" "($1 :: $2) == 0" in
  match e with
  | Ast.Erel (Ast.Eq, Ast.Ebinop (Ast.Cmp, Ast.Eopnd 1, Ast.Eopnd 2), Ast.Eint 0)
    ->
      ()
  | _ -> Alcotest.fail "bad generic compare parse"

let test_parse_toyp_sections () =
  let d =
    Parser.parse ~name:"toyp" ~file:"<toyp>" Toyp.figure_description
  in
  check Alcotest.string "name" "toyp" d.Ast.d_name;
  check Alcotest.int "declare items" 8 (List.length d.Ast.d_declare);
  check Alcotest.int "cwvm items" 13 (List.length d.Ast.d_cwvm);
  (* 11 instruction directives + 1 aux + 1 glue *)
  check Alcotest.int "instr items" 13 (List.length d.Ast.d_instr)

let test_parse_instr_shape () =
  let d = Parser.parse ~name:"t" ~file:"<t>"
      {|instr { %instr fadd.d d, d, d (double) {$1 = $2 + $3;}
               [IF; ID; F1,ID; F1; F2; F3; F4; F5; IW,F5;] (1,6,0) }|}
  in
  match d.Ast.d_instr with
  | [ Ast.Iinstr i ] ->
      check Alcotest.string "mnemonic" "fadd.d" i.Ast.i_name;
      check Alcotest.int "operands" 3 (List.length i.Ast.i_operands);
      check Alcotest.int "cycles" 9 (List.length i.Ast.i_rvec);
      check Alcotest.int "latency" 6 i.Ast.i_latency;
      check Alcotest.bool "type" true (i.Ast.i_type = Some Ast.Double)
  | _ -> Alcotest.fail "expected one instruction"

let test_parse_aux () =
  let d =
    Parser.parse ~name:"t" ~file:"<t>"
      {|instr { %instr f r (int) {$1 = $1;} [IF;] (1,1,0)
               %instr g r (int) {$1 = $1;} [IF;] (1,1,0)
               %aux f : g (1.$1 == 2.$1) (7) }|}
  in
  match d.Ast.d_instr with
  | [ _; _; Ast.Iaux a ] ->
      check Alcotest.string "first" "f" a.Ast.a_first;
      check Alcotest.string "second" "g" a.Ast.a_second;
      check Alcotest.int "latency" 7 a.Ast.a_latency;
      (match a.Ast.a_cond with
      | Some { Ast.left = 1, 1; right = 2, 1 } -> ()
      | _ -> Alcotest.fail "bad condition")
  | _ -> Alcotest.fail "expected aux"

let test_parse_temporal_reg () =
  let d =
    Parser.parse ~name:"t" ~file:"<t>"
      {|declare { %clock clk_m; %reg ml (double; clk_m) +temporal; }|}
  in
  match d.Ast.d_declare with
  | [ Ast.Dclock ([ "clk_m" ], _); Ast.Dreg r ] ->
      check Alcotest.string "name" "ml" r.name;
      check Alcotest.bool "temporal" true (List.mem Ast.Ftemporal r.flags);
      check Alcotest.bool "clock" true (r.clock = Some "clk_m")
  | _ -> Alcotest.fail "bad temporal declaration"

let test_build_figure_model () =
  let m = Lazy.force figure_model in
  check Alcotest.int "resources" 10 (Array.length m.Model.resources);
  check Alcotest.int "classes" 2 (Array.length m.Model.classes);
  check Alcotest.int "instructions" 11 (Array.length m.Model.instrs);
  check Alcotest.int "glues" 1 (List.length m.Model.glues);
  check Alcotest.int "auxes" 1 (List.length m.Model.auxes)

let test_build_equiv_overlap () =
  let m = Lazy.force figure_model in
  let r = Option.get (Model.find_class m "r") in
  let d = Option.get (Model.find_class m "d") in
  let reg c i = { Model.cls = c.Model.c_id; idx = i } in
  (* d[1] overlays r[2] and r[3] but not r[1] or r[4] *)
  check Alcotest.bool "d1/r2" true (Model.regs_overlap m (reg d 1) (reg r 2));
  check Alcotest.bool "d1/r3" true (Model.regs_overlap m (reg d 1) (reg r 3));
  check Alcotest.bool "d1/r1" false (Model.regs_overlap m (reg d 1) (reg r 1));
  check Alcotest.bool "d1/r4" false (Model.regs_overlap m (reg d 1) (reg r 4));
  check Alcotest.bool "d1/d1" true (Model.regs_overlap m (reg d 1) (reg d 1));
  check Alcotest.bool "d1/d2" false (Model.regs_overlap m (reg d 1) (reg d 2))

let test_build_facts () =
  let m = Lazy.force figure_model in
  let ld = List.hd (Model.instrs_by_name m "ld") in
  check Alcotest.bool "ld loads" true ld.Model.i_loads;
  check Alcotest.bool "ld !stores" false ld.Model.i_stores;
  check (Alcotest.list Alcotest.int) "ld writes" [ 0 ] ld.Model.i_writes;
  check (Alcotest.list Alcotest.int) "ld reads" [ 1 ] ld.Model.i_reads;
  let st = List.hd (Model.instrs_by_name m "st") in
  check Alcotest.bool "st stores" true st.Model.i_stores;
  check Alcotest.bool "st reads value and base" true
    (List.sort compare st.Model.i_reads = [ 0; 1 ]);
  let beq0 = List.hd (Model.instrs_by_name m "beq0") in
  check Alcotest.bool "beq0 branch" true beq0.Model.i_branch;
  check Alcotest.int "beq0 slots" 1 beq0.Model.i_slots

let test_build_hard_reg () =
  let m = Lazy.force figure_model in
  let r = Option.get (Model.find_class m "r") in
  check (Alcotest.option Alcotest.int) "r0 = 0" (Some 0)
    (Model.hard_value m { Model.cls = r.Model.c_id; idx = 0 });
  check (Alcotest.option Alcotest.int) "r1 not hard" None
    (Model.hard_value m { Model.cls = r.Model.c_id; idx = 1 })

let test_full_toyp_builds () =
  let m = Lazy.force toyp in
  check Alcotest.bool "has nop" true (Model.find_nop m <> None);
  check Alcotest.bool "movd registered" true (Funcs.find m "movd" <> None);
  (* aux latency applies only when the condition holds *)
  let fadd = List.hd (Model.instrs_by_name m "fadd.d") in
  let std = List.hd (Model.instrs_by_name m "st.d") in
  check (Alcotest.option Alcotest.int) "aux hit" (Some 7)
    (Model.aux_latency m ~first:fadd ~second:std ~opnd_eq:(fun _ _ -> true));
  check (Alcotest.option Alcotest.int) "aux miss" None
    (Model.aux_latency m ~first:fadd ~second:std ~opnd_eq:(fun _ _ -> false))

let test_bad_descriptions () =
  let expect_err src =
    match Builder.load ~name:"bad" ~file:"<bad>" src with
    | _ -> Alcotest.fail "expected an error"
    | exception Loc.Error (_, _) -> ()
  in
  (* unknown resource in rvec *)
  expect_err
    {|declare { %reg r[0:1] (int); }
      cwvm { %general (int) r; %allocable r[0:1]; %SP r[0]; %fp r[0];
             %retaddr r[0]; }
      instr { %instr add r, r, r (int) {$1 = $2 + $3;} [BOGUS;] (1,1,0) }|};
  (* operand out of range in semantics *)
  expect_err
    {|declare { %reg r[0:1] (int); %resource IF; }
      cwvm { %general (int) r; %allocable r[0:1]; %SP r[0]; %fp r[0];
             %retaddr r[0]; }
      instr { %instr add r, r (int) {$1 = $2 + $3;} [IF;] (1,1,0) }|};
  (* missing cwvm essentials *)
  expect_err
    {|declare { %reg r[0:1] (int); %resource IF; }
      cwvm { %general (int) r; }
      instr { }|}

let test_printer_roundtrip () =
  (* parse -> print -> reparse -> print reaches a fixed point, for every
     built-in description *)
  List.iter
    (fun (name, src) ->
      let d1 = Parser.parse ~name ~file:("<" ^ name ^ ">") src in
      let p1 = Printer.to_string d1 in
      let d2 = Parser.parse ~name ~file:("<" ^ name ^ "/2>") p1 in
      let p2 = Printer.to_string d2 in
      check Alcotest.string (name ^ " round trip") p1 p2;
      (* and the reprinted description builds the same model shape *)
      let m1 = Builder.build d1 and m2 = Builder.build d2 in
      check Alcotest.int (name ^ " instr count") (Array.length m1.Model.instrs)
        (Array.length m2.Model.instrs);
      check Alcotest.int (name ^ " resources") (Array.length m1.Model.resources)
        (Array.length m2.Model.resources))
    [
      ("toyp", Toyp.description);
      ("r2000", R2000.description);
      ("m88000", M88000.description);
      ("i860", I860.description);
    ]

let suite =
  [
    Alcotest.test_case "lex simple" `Quick test_lex_simple;
    Alcotest.test_case "lex operators" `Quick test_lex_operators;
    Alcotest.test_case "lex comments" `Quick test_lex_comments;
    Alcotest.test_case "lex dollar" `Quick test_lex_dollar;
    Alcotest.test_case "lex error" `Quick test_lex_error;
    Alcotest.test_case "out-of-range numbers" `Quick test_lex_out_of_range;
    Alcotest.test_case "parse expr precedence" `Quick test_parse_expr;
    Alcotest.test_case "parse generic compare" `Quick test_parse_expr_cmp;
    Alcotest.test_case "parse toyp sections" `Quick test_parse_toyp_sections;
    Alcotest.test_case "parse instr shape" `Quick test_parse_instr_shape;
    Alcotest.test_case "parse aux" `Quick test_parse_aux;
    Alcotest.test_case "parse temporal reg" `Quick test_parse_temporal_reg;
    Alcotest.test_case "build figure model" `Quick test_build_figure_model;
    Alcotest.test_case "build equiv overlap" `Quick test_build_equiv_overlap;
    Alcotest.test_case "build derived facts" `Quick test_build_facts;
    Alcotest.test_case "build hard regs" `Quick test_build_hard_reg;
    Alcotest.test_case "full toyp builds" `Quick test_full_toyp_builds;
    Alcotest.test_case "bad descriptions rejected" `Quick test_bad_descriptions;
    Alcotest.test_case "printer round trip" `Quick test_printer_roundtrip;
  ]
