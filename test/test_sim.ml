(* Pipeline simulator tests: stalls, multiple issue, delay slots, cache,
   tracing. *)

let check = Alcotest.check

let toyp = lazy (Toyp.load ())

let compile model strat src = Marion.compile model strat ~file:"<t.c>" src

let run ?config model strat src = Marion.run ?config (compile model strat src)

let test_basic_execution () =
  let m = Lazy.force toyp in
  let r = run m Strategy.Postpass "int main(void) { return 6 * 7; }" in
  check Alcotest.int "6*7" 42 r.Sim.return_value

let test_output_builtins () =
  let m = Lazy.force toyp in
  let r =
    run m Strategy.Postpass
      {|int main(void) {
          print_int(12);
          print_char('x');
          print_char(10);
          print_double(2.5);
          return 0;
        }|}
  in
  check Alcotest.string "output" "12\nx\n2.500000\n" r.Sim.output

let test_load_latency_stalls () =
  (* a dependent use of a load must wait for the load latency; cycles grow
     accordingly when no scheduling hides it *)
  let m = Lazy.force toyp in
  let naive = run m Strategy.Naive "int g; int main(void) { return g + 1; }" in
  check Alcotest.bool "some stall cycles" true
    (naive.Sim.cycles > naive.Sim.instructions)

let test_scheduling_reduces_cycles () =
  let m = Lazy.force toyp in
  let src =
    {|double a[32]; double b[32];
      int main(void) {
        int i; double s = 0.0; double t = 0.0;
        for (i = 0; i < 32; i++) { a[i] = (double)i; b[i] = (double)(i * 2); }
        for (i = 0; i < 32; i++) { s = s + a[i]; t = t + b[i]; }
        return (int)(s + t);
      }|}
  in
  let naive = run m Strategy.Naive src in
  let sched = run m Strategy.Postpass src in
  check Alcotest.int "same answer" naive.Sim.return_value sched.Sim.return_value;
  check Alcotest.bool "scheduling reduces cycles" true
    (sched.Sim.cycles < naive.Sim.cycles)

let test_i860_dual_issue () =
  let m = I860.load () in
  let src =
    {|double x; double y; double r1; double r2;
      int main(void) {
        int i; int s = 0;
        r1 = x * y;
        for (i = 0; i < 4; i++) s += i;
        r2 = x + y;
        return s;
      }|}
  in
  let config = { Sim.default_config with Sim.trace_limit = 200 } in
  let r = run ~config m Strategy.Postpass src in
  let by_cycle = Hashtbl.create 32 in
  List.iter
    (fun (cy, _) ->
      Hashtbl.replace by_cycle cy
        (1 + Option.value ~default:0 (Hashtbl.find_opt by_cycle cy)))
    r.Sim.trace;
  let dual = Hashtbl.fold (fun _ n acc -> if n > 1 then acc + 1 else acc) by_cycle 0 in
  check Alcotest.bool "some cycles issue two instructions" true (dual > 0)

let test_cache_model () =
  let m = Lazy.force toyp in
  let src =
    {|double v[512];
      int main(void) {
        int i; double s = 0.0;
        for (i = 0; i < 512; i++) v[i] = (double)i;
        for (i = 0; i < 512; i++) s = s + v[i];
        return (int)s % 1000;
      }|}
  in
  let cold =
    run
      ~config:
        {
          Sim.default_config with
          Sim.cache = Some { Sim.lines = 16; line_bytes = 16; miss_penalty = 10 };
        }
      m Strategy.Postpass src
  in
  let warm = run m Strategy.Postpass src in
  check Alcotest.int "same answer with cache" warm.Sim.return_value
    cold.Sim.return_value;
  check Alcotest.bool "misses counted" true (cold.Sim.cache_misses > 0);
  check Alcotest.bool "misses cost cycles" true (cold.Sim.cycles > warm.Sim.cycles)

(* a load whose destination is its own base register: the cache must see
   the address the load read, not one recomputed from the loaded value *)
let test_cache_load_address () =
  let src = Livermore.source ~iter:1 7 in
  let oracle = Cinterp.run_source ~file:"lfk7" src in
  let config =
    {
      Sim.default_config with
      Sim.cache = Some { Sim.lines = 64; line_bytes = 16; miss_penalty = 8 };
    }
  in
  List.iter
    (fun model ->
      let tag = model.Model.name in
      let compiled = compile model Strategy.Ips src in
      let cached = Marion.run ~config compiled in
      let plain = Marion.run compiled in
      check Alcotest.string (tag ^ " output") oracle.Cinterp.output
        cached.Sim.output;
      check Alcotest.int (tag ^ " exit") oracle.Cinterp.return_value
        cached.Sim.return_value;
      check Alcotest.bool (tag ^ " misses cost cycles") true
        (cached.Sim.cycles >= plain.Sim.cycles))
    [ Lazy.force toyp; M88000.load () ]

let test_block_frequencies () =
  let m = Lazy.force toyp in
  let r =
    run m Strategy.Postpass
      "int main(void) { int i; int s=0; for(i=0;i<7;i++) s+=i; return s; }"
  in
  (* some block (the loop body) executed exactly 7 times *)
  let has7 = Hashtbl.fold (fun _ n acc -> acc || n = 7) r.Sim.block_freq false in
  check Alcotest.bool "loop body counted 7 times" true has7

let test_nested_calls () =
  let m = Lazy.force toyp in
  let r =
    run m Strategy.Postpass
      {|int dbl(int x) { return x + x; }
        int quad(int x) { return dbl(dbl(x)); }
        int main(void) { return quad(5); }|}
  in
  check Alcotest.int "nested calls" 20 r.Sim.return_value

let test_recursion_deep () =
  let m = Lazy.force toyp in
  let r =
    run m Strategy.Postpass
      {|int sum(int n) { if (n == 0) return 0; return n + sum(n - 1); }
        int main(void) { return sum(100); }|}
  in
  check Alcotest.int "sum 1..100" 5050 r.Sim.return_value

let test_sim_error_on_bad_memory () =
  let m = Lazy.force toyp in
  match
    run m Strategy.Postpass
      {|int main(void) { int *p = (int *)(-64); return *p; }|}
  with
  | _ -> Alcotest.fail "expected a simulation error"
  | exception Sim.Sim_error _ -> ()

(* [fuel] is the most instructions a run may issue *)
let test_fuel_limit () =
  let prog =
    compile (R2000.load ()) Strategy.Postpass "int main(void) { return 3; }"
  in
  let with_fuel fuel =
    Marion.run ~config:{ Sim.default_config with Sim.fuel } prog
  in
  let k = (Marion.run prog).Sim.instructions in
  let r = with_fuel k in
  check Alcotest.int "completes on exactly its instructions" k
    r.Sim.instructions;
  check Alcotest.int "returns 3" 3 r.Sim.return_value;
  match with_fuel (k - 1) with
  | _ -> Alcotest.failf "completed with fuel %d" (k - 1)
  | exception Sim.Sim_error m ->
      check Alcotest.string "out of fuel"
        (Printf.sprintf "out of fuel after %d instructions" (k - 1))
        m

(* A fuel limit that runs out inside a hot loop body, at every position
   of its straight-line code: each of a run of consecutive limits stops
   the run after exactly that many instructions, with or without the
   segment timing memo (a one-issue trace turns it off). *)
let test_fuel_inside_loop () =
  let prog =
    compile (R2000.load ()) Strategy.Ips (Livermore.source ~iter:1 1)
  in
  let k = (Marion.run prog).Sim.instructions in
  for fuel = (k / 2) to (k / 2) + 40 do
    List.iter
      (fun trace_limit ->
        match
          Marion.run ~config:{ Sim.default_config with Sim.fuel; trace_limit }
            prog
        with
        | _ -> Alcotest.failf "completed with fuel %d of %d" fuel k
        | exception Sim.Sim_error m ->
            check Alcotest.string "out of fuel"
              (Printf.sprintf "out of fuel after %d instructions" fuel)
              m)
      [ 0; 1 ]
  done

(* Block [j] is entered twice with equal scoreboard windows: from [p1]
   and from [p2], each a jump whose delay slot writes r3, the register
   [j] reads first, with the same resource vector but a different
   latency (a load, 3 cycles, or an add, 1), after the same footprints
   before it. Only the register part of the memo key tells the two
   entries apart. *)
let test_memo_key_reads_registers () =
  let m = Lazy.force toyp in
  let find name pred =
    match
      Array.find_opt
        (fun (i : Model.instr) -> i.Model.i_name = name && pred i.Model.i_opnds)
        m.Model.instrs
    with
    | Some i -> i
    | None -> Alcotest.failf "toyp has no %s" name
  in
  let any _ = true
  and regs = Array.for_all (function Model.Kreg _ -> true | _ -> false) in
  let rcls =
    match Model.find_class m "r" with
    | Some c -> c.Model.c_id
    | None -> Alcotest.fail "toyp has no class r"
  in
  let r idx = Mir.Ophys { Model.cls = rcls; idx } in
  let fn = Mir.new_func m "main" in
  let i name pred ops = Mir.mk_inst fn (find name pred) ops in
  let add d a b = i "add" regs [| r d; r a; r b |]
  and jmp l = i "jmp" any [| Mir.Olab l |]
  and block label insts =
    let b = Mir.new_block label in
    b.Mir.b_insts <- insts;
    b
  in
  fn.Mir.f_blocks <-
    [
      block "main" [ jmp "p1"; add 5 0 0 ];
      block "p1" [ jmp "j"; i "ld" any [| r 3; r 7; Mir.Oimm 0 |] ];
      block "p2" [ jmp "j"; add 3 0 0 ];
      block "j"
        [ add 4 3 3; i "bne0" any [| r 2; Mir.Olab "x" |]; i "nop" any [||] ];
      block "k" [ jmp "p2"; add 2 7 0 ];
      block "x" [ i "jr" any [| r 1 |]; add 5 0 0 ];
    ];
  let prog = { Mir.p_model = m; p_globals = []; p_funcs = [ fn ] } in
  let stepped =
    Sim.run ~config:{ Sim.default_config with Sim.trace_limit = 100 } prog
  in
  (* the read of r3 waits 3 cycles after the load, 1 after the add *)
  let rec waits = function
    | (c, _) :: ((c', s') :: _ as rest) ->
        if
          String.starts_with ~prefix:"add" s'
          && String.ends_with ~suffix:"r3, r3" s'
        then (c' - c) :: waits rest
        else waits rest
    | _ -> []
  in
  check Alcotest.(list int) "r3 readiness at the two entries" [ 3; 1 ]
    (waits stepped.Sim.trace);
  let memo = Sim.run prog in
  check Alcotest.int "cycles" stepped.Sim.cycles memo.Sim.cycles;
  check Alcotest.int "instructions" stepped.Sim.instructions
    memo.Sim.instructions

(* Every cell that compiles (Livermore 1-14 and the program suite x 4
   targets x 4 strategies) simulates to the same result under the
   default configuration, which memoizes segment timing, and with a
   one-issue trace, which steps every instruction: every field but the
   trace, and the text of a simulation error. *)
let test_memo_vs_step () =
  let outcome config prog =
    match Sim.run ~config prog with
    | r ->
        Ok
          ( r.Sim.output,
            r.Sim.return_value,
            r.Sim.cycles,
            r.Sim.instructions,
            Hashtbl.fold (fun l n acc -> (l, n) :: acc) r.Sim.block_freq [],
            r.Sim.loads,
            r.Sim.cache_misses )
    | exception e -> Error (Printexc.to_string e)
  in
  let cells = ref 0 in
  List.iter
    (fun (tname, load) ->
      let model = load () in
      List.iter
        (fun (file, src) ->
          List.iter
            (fun strat ->
              match Strategy.compile model strat (Cgen.compile ~file src) with
              | exception _ -> ()
              | prog, _ ->
                  incr cells;
                  if
                    outcome Sim.default_config prog
                    <> outcome
                         { Sim.default_config with Sim.trace_limit = 1 }
                         prog
                  then
                    Alcotest.failf "%s %s %s: memoized run differs" tname file
                      (Strategy.to_string strat))
            Strategy.all)
        (Test_regalloc.corpus ()))
    Test_regalloc.targets;
  check Alcotest.bool "most cells compile" true (!cells > 300)

let test_estimated_cycles_close () =
  (* without a cache, the scheduler's estimate and the simulator agree
     closely: they implement the same hazard model *)
  let m = R2000.load () in
  let src = Livermore.source ~iter:1 12 in
  let compiled = compile m Strategy.Postpass src in
  let sim = Marion.run compiled in
  let est = Marion.estimated_cycles compiled sim in
  let ratio = float_of_int sim.Sim.cycles /. est in
  check Alcotest.bool
    (Printf.sprintf "ratio %.3f within 0.9..1.2" ratio)
    true
    (ratio > 0.9 && ratio < 1.2)

(* ------------------------------------------------------------------ *)
(* Simulator contract: one digest per target over Livermore 1-14 x every
   strategy, run with the Table-4 cache and a 64-issue trace. It covers
   every Sim.result field (cycles, instructions, return value, loads,
   cache misses, output, block frequencies and the trace) and the text of
   simulation errors and compile failures, so any change to the
   simulator's observable behaviour moves it. The digests were captured
   before the simulator was staged and must never be regenerated to
   absorb a difference. *)

let contract_config =
  {
    Sim.default_config with
    Sim.cache = Some { Sim.lines = 128; line_bytes = 32; miss_penalty = 8 };
    trace_limit = 64;
  }

let contract_blob config model =
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf buf fmt in
  for id = 1 to 14 do
    List.iter
      (fun strat ->
        let file = Printf.sprintf "lfk%d" id in
        add "== %s %s\n" file (Strategy.to_string strat);
        let src = Livermore.source id in
        match Strategy.compile model strat (Cgen.compile ~file src) with
        | exception e -> add "compile-error:%s\n" (Printexc.to_string e)
        | prog, _ -> (
            match Sim.run ~config prog with
            | exception Sim.Sim_error m -> add "simerr:%s\n" m
            | r ->
                add "cycles=%d insts=%d ret=%d loads=%d misses=%d out=%s\n"
                  r.Sim.cycles r.Sim.instructions r.Sim.return_value
                  r.Sim.loads r.Sim.cache_misses
                  (String.escaped r.Sim.output);
                Hashtbl.fold (fun l n acc -> (l, n) :: acc) r.Sim.block_freq []
                |> List.sort compare
                |> List.iter (fun (l, n) -> add "freq:%s=%d\n" l n);
                List.iter (fun (c, s) -> add "trace:%d %s\n" c s) r.Sim.trace))
      Strategy.all
  done;
  Buffer.contents buf

let contract_goldens =
  [
    ("toyp", "40f473e14e979ddef184b4422c7b0a27");
    ("r2000", "caf3116af118e4f351388a9621bdd98f");
    ("m88000", "004154d31436bfea1fd98f97b0c2df8e");
    ("i860", "fedc8152b3db4b90ee72bfc1f5ec8021");
  ]

(* The same blob under [Sim.default_config]: no cache and no trace, the
   configuration the segment timing memo serves (the contract above only
   reaches the step loop). Loads, misses and the trace are empty here.
   Captured before the memo existed; never regenerate them. *)
let default_goldens =
  [
    ("toyp", "ee580d8f13145314720a4b86ed358862");
    ("r2000", "132678ee7f8f319e41e2e7c8a024429a");
    ("m88000", "dc4d8bb1450e2ad29b01e11ac2cb53fa");
    ("i860", "f5020176ac443b7d67c533060547cf5c");
  ]

let contract_check config goldens () =
  List.iter
    (fun (model : Model.t) ->
      check Alcotest.string
        (model.Model.name ^ " contract digest")
        (List.assoc model.Model.name goldens)
        (Digest.to_hex (Digest.string (contract_blob config model))))
    [ Lazy.force toyp; R2000.load (); M88000.load (); I860.load () ]

let suite =
  [
    Alcotest.test_case "basic execution" `Quick test_basic_execution;
    Alcotest.test_case "output builtins" `Quick test_output_builtins;
    Alcotest.test_case "load latency stalls" `Quick test_load_latency_stalls;
    Alcotest.test_case "scheduling reduces cycles" `Quick
      test_scheduling_reduces_cycles;
    Alcotest.test_case "i860 dual issue visible" `Quick test_i860_dual_issue;
    Alcotest.test_case "cache model" `Quick test_cache_model;
    Alcotest.test_case "cache sees a load's own address" `Quick
      test_cache_load_address;
    Alcotest.test_case "block frequencies" `Quick test_block_frequencies;
    Alcotest.test_case "nested calls" `Quick test_nested_calls;
    Alcotest.test_case "deep recursion" `Quick test_recursion_deep;
    Alcotest.test_case "bad memory traps" `Quick test_sim_error_on_bad_memory;
    Alcotest.test_case "fuel bounds issued instructions" `Quick
      test_fuel_limit;
    Alcotest.test_case "fuel runs out inside a loop body" `Quick
      test_fuel_inside_loop;
    Alcotest.test_case "memo key holds register readiness" `Quick
      test_memo_key_reads_registers;
    Alcotest.test_case "memoized timing == stepped timing, 368 cells" `Slow
      test_memo_vs_step;
    Alcotest.test_case "estimate matches simulation" `Quick
      test_estimated_cycles_close;
    Alcotest.test_case "contract digests vs the unstaged simulator" `Slow
      (contract_check contract_config contract_goldens);
    Alcotest.test_case "default-config contract digests vs the unmemoized simulator"
      `Slow
      (contract_check Sim.default_config default_goldens);
  ]
