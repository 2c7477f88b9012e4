(* End-to-end differential tests: every program is run through the
   reference interpreter and through the full pipeline (front end, glue,
   selection, strategy, frame, simulator) — outputs and exit codes must
   agree, except in the cells [known_failures] lists. *)

let models = lazy [ Toyp.load (); R2000.load (); M88000.load (); I860.load () ]

(* Every program runs on every target under every strategy. *)

type failure =
  | Mismatch  (** compiles and runs, but output or exit code differ *)
  | Raises of string  (** the compile raises; the text is in its message *)

(* Every cell of the matrix known not to match the interpreter, with how
   it fails. A listed cell must keep failing exactly this way, so a fix
   fails the test until its entry is deleted; every unlisted cell must
   match. *)
let known_failures =
  [
    (* TOYP has two allocable double registers; poly keeps three doubles
       live once a prepass stretches the pair-copy live ranges *)
    ("poly", "toyp", Strategy.Ips, Raises "cannot be colored");
    ("poly", "toyp", Strategy.Rase, Raises "cannot be colored");
    (* the m88000 description has no branch pattern for an f64 compare *)
    ("lfk14", "m88000", Strategy.Naive, Raises "No_pattern");
    ("lfk14", "m88000", Strategy.Postpass, Raises "No_pattern");
    ("lfk14", "m88000", Strategy.Ips, Raises "No_pattern");
    ("lfk14", "m88000", Strategy.Rase, Raises "No_pattern");
    (* by design: TOYP's integer argument registers are the halves of d1,
       as the paper notes, so it cannot pass a double and an integer *)
    ("args-and-doubles", "toyp", Strategy.Naive, Raises "no CWVM argument");
    ("args-and-doubles", "toyp", Strategy.Postpass, Raises "no CWVM argument");
    ("args-and-doubles", "toyp", Strategy.Ips, Raises "no CWVM argument");
    ("args-and-doubles", "toyp", Strategy.Rase, Raises "no CWVM argument");
  ]

let contains ~sub s =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

(* one program's row of the matrix: each cell's outcome against the
   interpreter. Rows are memoized by (name, source), so a row that two
   tests share is compiled and run once: Suite's lfk1, lfk5 and lfk7 are
   Livermore kernels 1, 5 and 7 at one iteration. *)
let rows = Hashtbl.create 64

let row name src =
  match Hashtbl.find_opt rows (name, src) with
  | Some cells -> cells
  | None ->
      let oracle = Marion.interpret ~file:name src in
      let cells =
        List.concat_map
          (fun model ->
            List.map
              (fun strat ->
                let outcome =
                  match Marion.compile_and_run model strat ~file:name src with
                  | r ->
                      if
                        r.Marion.sim.Sim.output = oracle.Cinterp.output
                        && r.Marion.sim.Sim.return_value
                           = oracle.Cinterp.return_value
                      then `Matches
                      else `Differs
                  | exception e -> `Raised (Printexc.to_string e)
                in
                (model.Model.name, strat, outcome))
              Strategy.all)
          (Lazy.force models)
      in
      Hashtbl.add rows (name, src) cells;
      cells

(* one program's row of the matrix, checked against [known_failures] *)
let matrix name src () =
  List.iter
    (fun (target, strat, outcome) ->
      let tag =
        Printf.sprintf "%s on %s/%s" name target (Strategy.to_string strat)
      in
      let expected =
        List.find_map
          (fun (n, t, st, f) ->
            if n = name && t = target && st = strat then Some f else None)
          known_failures
      in
      match (expected, outcome) with
      | None, `Matches | Some Mismatch, `Differs -> ()
      | Some (Raises sub), `Raised msg when contains ~sub msg -> ()
      | Some _, `Matches ->
          Alcotest.failf
            "%s now matches the interpreter: delete its known_failures entry"
            tag
      | _, `Differs ->
          Alcotest.failf "%s: output or exit code differs from the interpreter"
            tag
      | _, `Raised msg -> Alcotest.failf "%s: raised %s" tag msg)
    (row name src)

let kernel_programs =
  List.map
    (fun (k : Livermore.kernel) ->
      (Printf.sprintf "lfk%d" k.Livermore.k_id, k.Livermore.k_source 1))
    Livermore.kernels

let livermore_kernels =
  List.map
    (fun (name, src) -> Alcotest.test_case name `Slow (matrix name src))
    kernel_programs

let suite_programs =
  List.map
    (fun (name, src) ->
      Alcotest.test_case ("suite:" ^ name) `Slow (matrix name src))
    Suite.programs

let edge_cases =
  [
    ( "empty-main", "int main(void) { return 0; }" );
    ( "negative-consts",
      "int main(void) { int a = -32768; int b = -1; return a / b == 32768; }" );
    ( "big-consts",
      {|int main(void) {
          int a = 1000000; int b = 123456789;
          return (a + b) % 1000;
        }|} );
    ( "char-arith",
      {|int main(void) {
          char a = 120; char b = 30;
          char c = a + b;       /* wraps */
          return c;
        }|} );
    ( "short-arith",
      {|int main(void) {
          short a = 30000; short b = 10000;
          short c = a + b;      /* wraps */
          return c == -25536;
        }|} );
    ( "shift-edge",
      "int main(void) { int x = -8; return (x >> 1) + (x << 2) + (1 << 30 >> 28); }"
    );
    ( "float-to-int",
      "int main(void) { double d = 3.99; return (int)d + (int)(0.0 - d); }" );
    ( "mixed-types",
      {|int main(void) {
          char c = 5; short s = 10; int i = 20; double d = 2.5;
          return (int)((double)(c + s + i) * d);
        }|} );
    ( "global-init-chain",
      {|int a = 3; int b = 4; double pi = 3.25;
        int main(void) { return a * b + (int)pi; }|} );
    ( "while-loops",
      {|int main(void) {
          int n = 100; int steps = 0; int x = 27;
          while (x != 1 && steps < n) {
            if (x % 2 == 0) x = x / 2; else x = 3 * x + 1;
            steps++;
          }
          return steps;
        }|} );
    ( "pointer-walk",
      {|int a[10];
        int main(void) {
          int *p; int s = 0; int i;
          for (i = 0; i < 10; i++) a[i] = i * 3;
          for (p = a; p < a + 10; p++) s += *p;
          return s;
        }|} );
    ( "double-spill-pressure",
      {|int main(void) {
          double a=1.0; double b=2.0; double c=3.0; double d=4.0;
          double e=5.0; double f=6.0; double g=7.0; double h=8.0;
          double x = a*b + c*d + e*f + g*h;
          double y = (a+b) * (c+d) * (e+f) * (g+h);
          print_double(x);
          print_double(y);
          return 0;
        }|} );
    ( "args-and-doubles",
      (* one double + one int argument. TOYP can pass neither this mix
         (see [known_failures]) nor two doubles: its paper register file
         has two allocable double registers *)
      {|double mix(double a, int b) { return a * 2.0 + (double)b; }
        int imix(int a, int b) { return a * 10 + b; }
        int main(void) {
          print_double(mix(1.5, 2));
          return imix(3, 4);
        }|} );
    ( "conditional-expressions",
      {|int main(void) {
          int a = 5; int b = 9;
          int mx = a > b ? a : b;
          int mn = a < b ? a : b;
          return mx * 100 + mn;
        }|} );
    ( "logical-ops",
      {|int main(void) {
          int a = 3; int b = 0;
          return (a && !b) + (b || a) * 10 + (!a) * 100;
        }|} );
  ]

let edge_tests =
  List.map
    (fun (name, src) -> Alcotest.test_case name `Quick (matrix name src))
    edge_cases

let suite = suite_programs @ livermore_kernels @ edge_tests
