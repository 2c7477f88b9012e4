(* Tests for the mini-C front end: lexer, parser, IL generation and the
   reference interpreter. *)

let check = Alcotest.check

let run src =
  let r = Cinterp.run_source ~file:"<test.c>" src in
  r.Cinterp.output

let retval src =
  let r = Cinterp.run_source ~file:"<test.c>" src in
  r.Cinterp.return_value

let test_interp_arith () =
  check Alcotest.int "arith"
    ((3 + 4) * 5 - (17 / 3) - (17 mod 3))
    (retval "int main(void) { return (3+4)*5 - 17/3 - 17%3; }")

let test_interp_output () =
  check Alcotest.string "print"
    "7\n"
    (run "int main(void) { print_int(3 + 4); return 0; }")

let test_interp_loops () =
  check Alcotest.int "sum 1..10" 55
    (retval
       {|int main(void) {
           int i; int s; s = 0;
           for (i = 1; i <= 10; i++) s += i;
           return s;
         }|})

let test_interp_while_break () =
  check Alcotest.int "break" 5
    (retval
       {|int main(void) {
           int i = 0;
           while (1) { if (i == 5) break; i++; }
           return i;
         }|})

let test_interp_arrays () =
  check Alcotest.int "array sum" (0 + 1 + 4 + 9 + 16)
    (retval
       {|int main(void) {
           int a[5]; int i; int s = 0;
           for (i = 0; i < 5; i++) a[i] = i * i;
           for (i = 0; i < 5; i++) s += a[i];
           return s;
         }|})

let test_interp_2d_arrays () =
  check Alcotest.int "matrix" 100
    (retval
       {|double m[5][5];
         int main(void) {
           int i; int j; double s = 0.0;
           for (i = 0; i < 5; i++)
             for (j = 0; j < 5; j++)
               m[i][j] = (double)(i * j);
           for (i = 0; i < 5; i++)
             for (j = 0; j < 5; j++)
               s = s + m[i][j];
           return (int)(s + 0.5);
         }|})

let test_interp_doubles () =
  check Alcotest.string "double io" "3.500000\n"
    (run "int main(void) { print_double(3.5); return 0; }")

let test_interp_functions () =
  check Alcotest.int "fib" 55
    (retval
       {|int fib(int n) {
           if (n < 2) return n;
           return fib(n - 1) + fib(n - 2);
         }
         int main(void) { return fib(10); }|})

let test_interp_double_args () =
  check Alcotest.string "double fn" "12.250000\n"
    (run
       {|double sq(double x) { return x * x; }
         int main(void) { print_double(sq(3.5)); return 0; }|})

let test_interp_pointers () =
  check Alcotest.int "swap" 1
    (retval
       {|void swap(int *a, int *b) { int t = *a; *a = *b; *b = t; }
         int main(void) {
           int x = 3; int y = 7;
           swap(&x, &y);
           return x == 7 && y == 3;
         }|})

let test_interp_globals () =
  check Alcotest.int "globals" 42
    (retval
       {|int g = 40;
         int bump(void) { g = g + 2; return g; }
         int main(void) { return bump(); }|})

let test_interp_global_array_init () =
  check Alcotest.int "init list" 60
    (retval
       {|int a[4] = {10, 20, 30};
         int main(void) { return a[0] + a[1] + a[2] + a[3]; }|})

let test_interp_char () =
  check Alcotest.int "char wrap" 1
    (retval
       {|int main(void) {
           char c = 200;      /* wraps to -56 */
           return c == -56;
         }|})

let test_interp_shortcircuit () =
  check Alcotest.int "shortcircuit" 1
    (retval
       {|int g = 0;
         int bump(void) { g++; return 1; }
         int main(void) {
           int r = (0 && bump()) + (1 || bump());
           return r == 1 && g == 0;
         }|})

let test_interp_ternary () =
  check Alcotest.int "ternary" 21
    (retval "int main(void) { int x = 3; return x > 2 ? 21 : 9; }")

let test_interp_do_while () =
  check Alcotest.int "do" 10
    (retval
       {|int main(void) {
           int i = 0;
           do { i += 2; } while (i < 10);
           return i;
         }|})

let test_interp_shifts () =
  check Alcotest.int "shifts" ((5 lsl 3) lor (64 asr 2))
    (retval "int main(void) { return (5 << 3) | (64 >> 2); }")

let test_interp_livermore_k1_like () =
  (* shape of Livermore kernel 1: hydro fragment *)
  let expected =
    let z = Array.init 101 (fun _ -> 0.0) in
    let y = Array.init 101 (fun _ -> 0.0) in
    let x = Array.make 101 0.0 in
    for k = 0 to 89 do
      z.(k) <- float_of_int k *. 0.25;
      y.(k) <- float_of_int k *. 0.5
    done;
    let s = ref 0.0 in
    for k = 0 to 89 do
      x.(k) <- 0.5 +. (y.(k) *. ((2.0 *. z.(k + 10)) +. (0.01 *. z.(k + 11))))
    done;
    for k = 0 to 89 do
      s := !s +. x.(k)
    done;
    Printf.sprintf "%.6f\n" !s
  in
  check Alcotest.string "k1" expected
    (run
       {|double x[101]; double y[101]; double z[101];
         int main(void) {
           int k; double q = 0.5; double r = 2.0; double t = 0.01;
           double s = 0.0;
           for (k = 0; k < 90; k++) { z[k] = (double)k * 0.25; y[k] = (double)k * 0.5; }
           for (k = 0; k < 90; k++)
             x[k] = q + y[k] * (r * z[k + 10] + t * z[k + 11]);
           for (k = 0; k < 90; k++) s = s + x[k];
           print_double(s);
           return 0;
         }|})

(* ------------------------------------------------------------------ *)
(* IL generation                                                       *)
(* ------------------------------------------------------------------ *)

let gen src = Cgen.compile ~file:"<test.c>" src

let test_cgen_blocks_are_basic () =
  let prog = gen
      {|int main(void) {
          int i; int s = 0;
          for (i = 0; i < 10; i++) if (i % 2 == 0) s += i;
          return s;
        }|}
  in
  let fn = List.hd prog.Ir.funcs in
  (* every branch must be the last statement of its block *)
  List.iter
    (fun b ->
      let rec go = function
        | [] | [ _ ] -> ()
        | s :: tl ->
            (match s with
            | Ir.Jump _ | Ir.Cjump _ | Ir.Ret _ ->
                Alcotest.failf "branch in the middle of block %s" b.Ir.b_label
            | Ir.Assign _ | Ir.Store _ | Ir.Call _ -> ());
            go tl
      in
      go b.Ir.b_stmts)
    fn.Ir.fn_blocks

let test_cgen_cse_forces_temps () =
  (* x[i] appears as both load address and store address: the address
     computation must be shared through a temp *)
  let prog = gen
      {|double x[10];
        int main(void) { int i = 3; x[i] = x[i] + 1.0; return 0; }|}
  in
  let fn = List.hd prog.Ir.funcs in
  let entry = List.hd fn.Ir.fn_blocks in
  (* the block must contain an Assign of a Binop (the shared address),
     and the Store must use a Temp as its address *)
  let has_addr_assign =
    List.exists
      (fun s ->
        match s with
        | Ir.Assign (_, { Ir.e_kind = Ir.Binop (Ir.Add, _, _); _ }) -> true
        | _ -> false)
      entry.Ir.b_stmts
  in
  let store_uses_temp =
    List.exists
      (fun s ->
        match s with
        | Ir.Store (_, { Ir.e_kind = Ir.Temp _; _ }, _) -> true
        | _ -> false)
      entry.Ir.b_stmts
  in
  check Alcotest.bool "address assigned to temp" true has_addr_assign;
  check Alcotest.bool "store through temp" true store_uses_temp

let test_cgen_float_pool () =
  let prog = gen "int main(void) { print_double(2.5); return 0; }" in
  let pools =
    List.filter
      (fun g -> String.length g.Ir.gl_name > 4 && String.sub g.Ir.gl_name 0 4 = ".Lfp")
      prog.Ir.globals
  in
  check Alcotest.int "one pool entry" 1 (List.length pools);
  let g = List.hd pools in
  check Alcotest.int "8 bytes" 8 (Bytes.length g.Ir.gl_bytes);
  check Alcotest.bool "bits" true
    (Int64.float_of_bits (Bytes.get_int64_le g.Ir.gl_bytes 0) = 2.5)

let test_cgen_type_errors () =
  let expect_err src =
    match gen src with
    | _ -> Alcotest.fail "expected a front-end error"
    | exception Loc.Error (_, _) -> ()
  in
  expect_err "int main(void) { return x; }";
  expect_err "int main(void) { double d; return d % 2; }";
  expect_err "int main(void) { return f(1); }";
  expect_err "int main(void) { int a[3]; a = 4; return 0; }";
  expect_err "void main2(void) { return 3; }"

let test_parse_errors () =
  let expect_err src =
    match Cparse.parse ~file:"<t>" src with
    | _ -> Alcotest.fail "expected a parse error"
    | exception Loc.Error (_, _) -> ()
  in
  expect_err "int main(void) { return 0 }";
  expect_err "int main(void { return 0; }";
  expect_err "int 3x;";
  (* literals past the 63-bit native int are located errors, not a bare
     [Failure "int_of_string"] *)
  List.iter
    (fun (lit, col) ->
      match
        Cparse.parse ~file:"<t>"
          ("int main(void){ return " ^ lit ^ "; }")
      with
      | _ -> Alcotest.failf "%s: expected a parse error" lit
      | exception Loc.Error (loc, msg) ->
          check Alcotest.string lit
            (Printf.sprintf "<t>:1:%d: integer literal out of range" col)
            (Loc.error_to_string loc msg))
    [
      ("99999999999999999999", 24);
      ("0x1FFFFFFFFFFFFFFFF", 24);
      ("4611686018427387904", 24);
    ]

(* ------------------------------------------------------------------ *)
(* Front-end contracts: token streams and IL, pinned as digests       *)
(* ------------------------------------------------------------------ *)

(* every Livermore kernel, every suite program and the e2e edge cases *)
let corpus =
  Livermore.sources ()
  @ List.map (fun (n, s) -> ("suite:" ^ n, s)) Suite.programs
  @ List.map (fun (n, s) -> ("edge:" ^ n, s)) Test_e2e.edge_cases

let show_token { Clex.kind; loc } =
  let k =
    match kind with
    | Clex.ID s -> "ID " ^ s
    | Clex.KW s -> "KW " ^ s
    | Clex.INT n -> "INT " ^ string_of_int n
    | Clex.FLOAT f -> Printf.sprintf "FLOAT %h" f
    | Clex.CHAR c -> Printf.sprintf "CHAR %C" c
    | Clex.STRING s -> Printf.sprintf "STRING %S" s
    | Clex.PUNCT p -> "PUNCT " ^ p
    | Clex.EOF -> "EOF"
  in
  Format.asprintf "%a %s" Loc.pp loc k

(* the token stream, or the located error it stops at *)
let lex ~file src =
  match Clex.tokenize ~file src with
  | toks -> String.concat "\n" (Array.to_list (Array.map show_token toks))
  | exception Loc.Error (loc, msg) -> "error " ^ Loc.error_to_string loc msg

let md5 s = Digest.to_hex (Digest.string s)

(* generated from the lexer before it dispatched on characters, one
   [(file, md5 (lex ~file src))] per [corpus] entry; regenerate only for
   an intended change to the tokens or their locations *)
let token_goldens =
  [
    ("lfk1", "36c33a9c69748eca5567beb01dd04fcc");
    ("lfk2", "04bf519f45ef6d935115f66f1927c73b");
    ("lfk3", "ec9e3baa5a6381f8ef68f6566b57721b");
    ("lfk4", "0aaba9f3875eb4ef27dc02d78bcb7d1d");
    ("lfk5", "a4d7bf04e70be825f45394670e7310e0");
    ("lfk6", "7ea4ad763e6b4bc83c012e01d9720529");
    ("lfk7", "b48153b0a9c125b23cbfc8b55d615d29");
    ("lfk8", "7951b857745e7d92a802e1a1049254c7");
    ("lfk9", "086ab0f8e9cd8fedcfe4641ef483b1d1");
    ("lfk10", "9f5255d8dba890f92b0d47c056fc4732");
    ("lfk11", "4c3944e28d4f2ce04852d0b8cb99fe3a");
    ("lfk12", "fe7aebb23d65c9f3ee4fe5f7fd58775b");
    ("lfk13", "43c2ce7e254f6fd776fad803a140802a");
    ("lfk14", "90e5a54b9e230d9d1f783b1f9fec9729");
    ("suite:matmul", "dda276228ded1f42e21fca6716c44c3d");
    ("suite:sieve", "f6e91cc2b8534ffd36b3728619bef8ac");
    ("suite:sort", "29cc5b36da22121dc576b1fc4e910fe1");
    ("suite:strings", "8c8816703ad9dc135f76520d67d43faf");
    ("suite:recursion", "b488e0a64815a7f6bbd372039cb17d8d");
    ("suite:poly", "d1c537bf5e7268a2252670d9b5ff0cf9");
    ("suite:lfk1", "02e74cd8f8e4add3ddfdb44c5b41c4e5");
    ("suite:lfk5", "c1816aa314ad4d29f190c922cbd5d7c7");
    ("suite:lfk7", "1cec92f153715ed2f46af9bae71cef6d");
    ("edge:empty-main", "f31db5bb7e557c12130e4740313a5ff0");
    ("edge:negative-consts", "d267c67193aca19957da2c3199e9e91a");
    ("edge:big-consts", "15ff03286bd41db107fdb414f41f7417");
    ("edge:char-arith", "789d4fb59ffbf715dade8e637c5bd858");
    ("edge:short-arith", "6d905bb13ceaf34a3a7360466e84a449");
    ("edge:shift-edge", "dc04cd2bde5cf5f85c50a8d0138f6156");
    ("edge:float-to-int", "0f50c91e1f52f2124a39a426d26680a9");
    ("edge:mixed-types", "171afea51ae001ae7edb69eb30b902f2");
    ("edge:global-init-chain", "5556016e109a8a9c3c86a39c36cea4e2");
    ("edge:while-loops", "ea96e4f2f8848764cecb490dcb6cb7c9");
    ("edge:pointer-walk", "7c756ab155143d5a54a46b2b27bb7c99");
    ("edge:double-spill-pressure", "7a14bf539957ec54e7b0114f950dddd1");
    ("edge:args-and-doubles", "f1840bc85a788c4a34bee3fd95abcc74");
    ("edge:conditional-expressions", "8353bd367fed7459fc2425c955de4fb5");
    ("edge:logical-ops", "8dc35809b74b84283e422e145239b071");
  ]

let test_lexer_contract () =
  check
    Alcotest.(list (pair string string))
    "token-stream digests" token_goldens
    (List.map (fun (file, src) -> (file, md5 (lex ~file src))) corpus);
  List.iter
    (fun (src, expected) ->
      check Alcotest.string src expected (lex ~file:"<t>" src))
    [
      ("a;\n  @", "error <t>:2:3: unexpected character '@'");
      ("x $y", "error <t>:1:3: unexpected character '$'");
      ("c = '\\q';", "error <t>:1:5: unknown escape '\\q'");
      ("s = \"abc", "error <t>:1:5: unterminated string literal");
      ("c = 'a", "error <t>:1:5: unterminated character literal");
      ("c = 'ab'", "error <t>:1:5: unterminated character literal");
      ("c = '", "error <t>:1:5: unterminated character literal");
      ("x /* abc\n *", "error <t>:1:3: unterminated comment");
      ("n = 0x;", "error <t>:1:5: malformed hex literal");
      ("d = 1e;", "error <t>:1:5: malformed exponent");
      ("d = 1e+;", "error <t>:1:5: malformed exponent");
      ( "a <<= b >>= c",
        "<t>:1:1 ID a\n<t>:1:3 PUNCT <<=\n<t>:1:7 ID b\n<t>:1:9 PUNCT >>=\n\
         <t>:1:13 ID c\n<t>:1:14 EOF" );
      ( "p->q ... r..s",
        "<t>:1:1 ID p\n<t>:1:2 PUNCT ->\n<t>:1:4 ID q\n<t>:1:6 PUNCT .\n\
         <t>:1:7 PUNCT .\n<t>:1:8 PUNCT .\n<t>:1:10 ID r\n<t>:1:11 PUNCT .\n\
         <t>:1:12 PUNCT .\n<t>:1:13 ID s\n<t>:1:14 EOF" );
    ]

(* generated from the front end before the lexer dispatched on characters:
   (program, function, digest of Ir.pp_func, Ckey.of_ir_func). A mismatch
   means the IL changed (say, renumbered temps or reordered forced CSE
   temps), which also strands every cache entry the old front end
   wrote. *)
let il_goldens =
  [
    ( "lfk1", "main",
      "6063bdb4781caef0071126e9be4dc76b", "e5e20c7bb55434602ca6e38b6ebe5502" );
    ( "lfk2", "main",
      "a3f7d783e7d326e5c8852a14a19031b2", "365ecd2c139988d6917d3c4bf3d33121" );
    ( "lfk3", "main",
      "ea23f0eecf39522d540925203f3bdd3f", "38b8b1ab32b1db9ae336e38a39cd707f" );
    ( "lfk4", "main",
      "7e145a18be1f8607cc3937072704216e", "86e3767594553beeff0ebd3f11717b3a" );
    ( "lfk5", "main",
      "2fcf4e82e002069923aa858de3008d15", "97cf6f15eae203b4ae04294cfb84e09b" );
    ( "lfk6", "main",
      "1b867042922fa794f1664e062892c296", "e446f148d225d9e1d758c2be701e441b" );
    ( "lfk7", "main",
      "4a2b447499982dabe14ff7a99b4f285f", "dfdd187e65375fba919ed01a36e3c77d" );
    ( "lfk8", "main",
      "8576e446aa1ee6d6d7fa97347978238d", "e4b733ef42eeb63cf7a59a0a758fc731" );
    ( "lfk9", "main",
      "1bcc5db4665c3f91317296f4f5a6ef89", "e809c061609f2b51a9bac83d6cfd1aa9" );
    ( "lfk10", "main",
      "486b454f672816906c2c14df7c5042b3", "cdd13a6801f32d7cc62b679e8069a1c0" );
    ( "lfk11", "main",
      "0a2e473caeec13cc101e79d7c355efa8", "e1ba759282801c0f6aa7b17b37ba7120" );
    ( "lfk12", "main",
      "606642b9cc1d645f06e1155dba6423d7", "b7a62f2a0d1e52b7a182708b4c6e28d8" );
    ( "lfk13", "main",
      "473f7f9751d604c59db9dcada7c8b921", "19d849d70d76246d06535b43e9ee4703" );
    ( "lfk14", "main",
      "01e6d866a49b829de53c997a238755f2", "850288dc70ab84d7ccf2271dcc1890c1" );
    ( "suite:matmul", "main",
      "a64381bb120c59ecf51dac56cac9b2c0", "1b1ab1fbeed66b7bb791f65fc6c917db" );
    ( "suite:sieve", "main",
      "710c50661108be59041a04143b086db6", "2100bfb4dcbf04d5d26d2933b0e1a273" );
    ( "suite:sort", "main",
      "3941644bdf712b5ec4b43ae5d84ba03a", "171e590907e84424946695c8916b970e" );
    ( "suite:strings", "main",
      "1cf43d7eb085b58b2e92a7603ec583da", "5e0bad7cb9a3ff1bb4199da42031a03c" );
    ( "suite:recursion", "fib",
      "b6ed6a978bca639e35957ef802ddec0f", "da873f9706d91e0cd3e192343fd0f606" );
    ( "suite:recursion", "gcd",
      "1317ebb07163c0a7152077bc0a985b3c", "a3549f1db47b807b99cb802bb01f8004" );
    ( "suite:recursion", "main",
      "b4e98d5cf4d7438be3f469f2663ce6d8", "6a922f26551989e8b0d0144e67a2242f" );
    ( "suite:poly", "horner",
      "a55ffa8c4e9d5b1beb347c6d4af52a31", "c265af75030100409268b5f4f08551aa" );
    ( "suite:poly", "main",
      "111b904e8ecc4550e3cf61308947e388", "d6da50bae0f0b7c6121bbc850ba8e174" );
    ( "suite:lfk1", "main",
      "6063bdb4781caef0071126e9be4dc76b", "e5e20c7bb55434602ca6e38b6ebe5502" );
    ( "suite:lfk5", "main",
      "2fcf4e82e002069923aa858de3008d15", "97cf6f15eae203b4ae04294cfb84e09b" );
    ( "suite:lfk7", "main",
      "4a2b447499982dabe14ff7a99b4f285f", "dfdd187e65375fba919ed01a36e3c77d" );
    ( "edge:empty-main", "main",
      "e9045d4b3d3ec11233cd5761d42a7b89", "6af6c5578ce7a3948f829f4e1d149994" );
    ( "edge:negative-consts", "main",
      "34145bfab3d43d9a4c990d5ec142e468", "b07cf74ec49635309a9061fc23ae9707" );
    ( "edge:big-consts", "main",
      "785e2660272ae81b148ad368b6c117ec", "c6b26b14085501c8710324ec81172c31" );
    ( "edge:char-arith", "main",
      "ad8e8b4970a0a4c09d50a1c9458a572f", "6388ebfd41621fbc91a34ea5b724298b" );
    ( "edge:short-arith", "main",
      "69a3adf513389d511115546501637f99", "8acd82c4b7e72e7b527ac47af4702df8" );
    ( "edge:shift-edge", "main",
      "73fcb8b3690e77da7f7852d1482cfcbc", "2fda9633f8166ba13e7cdabe77766416" );
    ( "edge:float-to-int", "main",
      "55701e4b4ce9cd982f89126b271287ac", "1504d64d157f6615b9c1cd1482096202" );
    ( "edge:mixed-types", "main",
      "42e240d0a4d744e63bea1781a543025a", "6dfd43b464ec7f5c3892c2fdad380e9c" );
    ( "edge:global-init-chain", "main",
      "1c56324b1b6317f98a6575d8a14daa75", "b4d3bfbd5064d8744ee45a533c5b52f6" );
    ( "edge:while-loops", "main",
      "90be2dc73781edacf53bea43b8f5519e", "1342af4f7a3a50f2ab89535d682a3810" );
    ( "edge:pointer-walk", "main",
      "34bcf57fc104bee6b1a2fe465e04e852", "185687ee630f0583cd1c3804cea374ee" );
    ( "edge:double-spill-pressure", "main",
      "4124a6dd7ed8bb0278c4fb233eef5b05", "72969b6f2044faf60d6a9fc98d4452e7" );
    ( "edge:args-and-doubles", "mix",
      "8bbf822152ac6373ed21c18d470f2567", "6b46458ca75801e92da2a80e137d258a" );
    ( "edge:args-and-doubles", "imix",
      "e050db6c601a35ba2463131a03ffb346", "5b169cb8fc991703ee9d05cef16d3c32" );
    ( "edge:args-and-doubles", "main",
      "60509567b6d9defea4a3ce3f96b4ef97", "cf5d68b68c20318e336d616df725ee50" );
    ( "edge:conditional-expressions", "main",
      "e31b6c2893c01bee7984423504d5e189", "62e47785386bf406ae9d47db6b244243" );
    ( "edge:logical-ops", "main",
      "6a3961a6b7ae92949a5836a01a27a5f7", "ef17f59e6d9e698c80d209165e4b071d" );
  ]

let test_il_contract () =
  let got =
    List.concat_map
      (fun (file, src) ->
        List.map
          (fun (fn : Ir.func) ->
            ( file,
              fn.Ir.fn_name,
              md5 (Format.asprintf "%a" Ir.pp_func fn),
              Ckey.to_hex (Ckey.of_ir_func fn) ))
          (Cgen.compile ~file src).Ir.funcs)
      corpus
  in
  check
    Alcotest.(list (pair (pair string string) (pair string string)))
    "per-function IL digests"
    (List.map (fun (p, f, d, k) -> ((p, f), (d, k))) il_goldens)
    (List.map (fun (p, f, d, k) -> ((p, f), (d, k))) got)

let suite =
  [
    Alcotest.test_case "interp arith" `Quick test_interp_arith;
    Alcotest.test_case "interp output" `Quick test_interp_output;
    Alcotest.test_case "interp loops" `Quick test_interp_loops;
    Alcotest.test_case "interp while/break" `Quick test_interp_while_break;
    Alcotest.test_case "interp arrays" `Quick test_interp_arrays;
    Alcotest.test_case "interp 2d arrays" `Quick test_interp_2d_arrays;
    Alcotest.test_case "interp doubles" `Quick test_interp_doubles;
    Alcotest.test_case "interp functions" `Quick test_interp_functions;
    Alcotest.test_case "interp double args" `Quick test_interp_double_args;
    Alcotest.test_case "interp pointers" `Quick test_interp_pointers;
    Alcotest.test_case "interp globals" `Quick test_interp_globals;
    Alcotest.test_case "interp global array init" `Quick
      test_interp_global_array_init;
    Alcotest.test_case "interp char wrap" `Quick test_interp_char;
    Alcotest.test_case "interp shortcircuit" `Quick test_interp_shortcircuit;
    Alcotest.test_case "interp ternary" `Quick test_interp_ternary;
    Alcotest.test_case "interp do-while" `Quick test_interp_do_while;
    Alcotest.test_case "interp shifts" `Quick test_interp_shifts;
    Alcotest.test_case "interp livermore-like kernel" `Quick
      test_interp_livermore_k1_like;
    Alcotest.test_case "cgen blocks are basic" `Quick test_cgen_blocks_are_basic;
    Alcotest.test_case "cgen CSE forces temps" `Quick test_cgen_cse_forces_temps;
    Alcotest.test_case "cgen float pool" `Quick test_cgen_float_pool;
    Alcotest.test_case "cgen type errors" `Quick test_cgen_type_errors;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "lexer contract" `Quick test_lexer_contract;
    Alcotest.test_case "IL contract" `Quick test_il_contract;
  ]
