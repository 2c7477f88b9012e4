(* Bit-identity snapshots for the unified timing engine.

   The lib/timing refactor (one Scoreboard / Latency / Temporal model
   shared by the scheduler, estimator, simulator and checkers) must not
   change a single observable bit: schedules, simulated cycle counts,
   Mircheck/Schedval diagnostics and cache keys are asserted against
   golden digests captured from the pre-refactor compiler, at -j 1 and
   -j 4.

   The digests come from Golden.cell_digest, shared with the generator
   bench/goldens.ml. Regenerate the table with

     dune exec bench/goldens.exe

   ONLY for an intentional behavior change — never to paper over an
   unintended schedule or cycle-count difference. *)

let check = Alcotest.check

let targets =
  [
    ("toyp", lazy (Toyp.load ()));
    ("r2000", lazy (R2000.load ()));
    ("m88000", lazy (M88000.load ()));
    ("i860", lazy (I860.load ()));
  ]

let goldens =
  [
    (("toyp", "naive"), "43cb48b7c012435c74ffad38fe48e9bc");
    (("toyp", "postpass"), "fe787c65b6a1ec3a390df6ae69358924");
    (("toyp", "ips"), "ec78efe3a9b321373a583df0b50fa604");
    (("toyp", "rase"), "ab6e4b7df627d2445485d88de46641cd");
    (("r2000", "naive"), "5c91be02a338cb06e63a2997e6fd68f4");
    (("r2000", "postpass"), "add5f8acf3c53056be476d27c5c35b0f");
    (("r2000", "ips"), "104baef63b4256b4b67c697d9da11314");
    (("r2000", "rase"), "8c1d198e660917c7e0ba43e5eb9d421a");
    (("m88000", "naive"), "f461e35b33f9bf5d684b2f7c42cb1df9");
    (("m88000", "postpass"), "ed2e8da779b5c0e72ec59ce9fbeb3fcc");
    (("m88000", "ips"), "3e70bca60157b01c63b1219162732a25");
    (("m88000", "rase"), "f45b504307982d23b4970b81d09bdb55");
    (("i860", "naive"), "2e3de99516bd651a7c69507be59ab8fa");
    (("i860", "postpass"), "b40c3a8905f1ef8dbd865d9fe64b2933");
    (("i860", "ips"), "6b29d30eb379e035dc2c14d1b1b13f57");
    (("i860", "rase"), "94f1fc391e83f961a25db41dc5887efb");
  ]

let test_bit_identity ~jobs () =
  List.iter
    (fun (tname, model) ->
      List.iter
        (fun strat ->
          let expected = List.assoc (tname, Strategy.to_string strat) goldens in
          check Alcotest.string
            (Printf.sprintf "%s/%s (-j %d)" tname
               (Strategy.to_string strat) jobs)
            expected
            (Golden.cell_digest ~jobs (Lazy.force model) strat))
        Strategy.all)
    targets

(* ------------------------------------------------------------------ *)
(* Latency oracle: memoized table == direct aux-table scan, for every
   (op, op) pair of every target under several operand predicates, and
   the producer flag == "some %aux names the op first". *)

let test_latency_oracle () =
  List.iter
    (fun (tname, model) ->
      let model = Lazy.force model in
      let oracle = Latency.for_model model in
      let preds =
        [
          ("always", fun _ _ -> true);
          ("never", fun _ _ -> false);
          ("parity", fun a b -> (a + b) mod 2 = 0);
        ]
      in
      Array.iter
        (fun (first : Model.instr) ->
          check Alcotest.bool
            (Printf.sprintf "%s: %s starts some %%aux" tname first.Model.i_name)
            (List.exists
               (fun (x : Model.aux) -> x.Model.x_first = first.Model.i_name)
               model.Model.auxes)
            (Latency.producer oracle first);
          Array.iter
            (fun (second : Model.instr) ->
              List.iter
                (fun (pname, opnd_eq) ->
                  check
                    Alcotest.(option int)
                    (Printf.sprintf "%s: %s -> %s (%s)" tname
                       first.Model.i_name second.Model.i_name pname)
                    (Model.aux_latency model ~first ~second ~opnd_eq)
                    (Latency.find oracle ~first ~second ~opnd_eq))
                preds)
            model.Model.instrs)
        model.Model.instrs)
    targets

(* ------------------------------------------------------------------ *)
(* Scoreboard: ring buffer and open packing classes == an unbounded
   reference busy table and per-cycle class lists on random monotone
   probe/reserve sequences, and memory stays bounded over millions of
   cycles. *)

let instr_exn model name =
  match
    Array.find_opt
      (fun (i : Model.instr) -> i.Model.i_name = name)
      model.Model.instrs
  with
  | Some i -> i
  | None -> Alcotest.failf "%s: no %%instr %s" model.Model.name name

(* No built-in target has more resources than fit one word, so this
   description spreads its resource vectors over two words per cycle. *)
let wide_model =
  lazy
    (Builder.load ~name:"wide" ~file:"<wide>"
       (Printf.sprintf
          {|declare { %%reg r[0:3] (int); %%resource %s; }
cwvm { %%general (int) r; %%allocable r[1:2]; %%SP r[3]; %%fp r[2];
       %%retaddr r[1]; %%hard r[0] 0; }
instr {
  %%instr add r, r, r (int) {$1 = $2 + $3;} [R0; R63; R69;] (1,1,0)
  %%instr sub r, r, r (int) {$1 = $2 - $3;}
         [R1,R64; R62,R63; R2,R68;] (1,1,0)
  %%instr mul r, r, r (int) {$1 = $2 * $3;}
         [R0; R64; R64; R64; R1,R69;] (1,3,0)
  %%instr div r, r, r (int) {$1 = $2 / $3;}
         [R65; R2; ; R66,R67; R69;] (1,4,0)
  %%instr nop {nop;} [] (1,1,0)
}|}
          (String.concat "; " (List.init 70 (Printf.sprintf "R%d")))))

let test_scoreboard_vs_reference () =
  let check_model (model : Model.t) =
    let nres = Array.length model.Model.resources in
    (* reference: one bitset per absolute cycle and the packing classes
       issued on each cycle, never recycled *)
    let ref_busy : (int, Bitset.t) Hashtbl.t = Hashtbl.create 64 in
    let ref_classes : (int, Bitset.t list) Hashtbl.t = Hashtbl.create 64 in
    let ref_at c =
      match Hashtbl.find_opt ref_busy c with
      | Some b -> b
      | None ->
          let b = Bitset.create nres in
          Hashtbl.replace ref_busy c b;
          b
    in
    (* a class is closed on a cycle when no element is in it and in
       every class already issued there *)
    let ref_closed cycle (op : Model.instr) =
      match op.Model.i_class with
      | None -> false
      | Some k ->
          let meet = Bitset.copy k in
          List.iter
            (fun issued -> Bitset.inter_into ~dst:meet issued)
            (Option.value ~default:[] (Hashtbl.find_opt ref_classes cycle));
          Bitset.is_empty meet
    in
    let ref_busy_at cycle (op : Model.instr) =
      let hit = ref false in
      Array.iteri
        (fun c req ->
          if (not !hit) && not (Bitset.inter_empty (ref_at (cycle + c)) req)
          then hit := true)
        op.Model.i_rvec;
      !hit
    in
    let ref_conflict cycle op = ref_closed cycle op || ref_busy_at cycle op in
    let ref_reserve cycle (op : Model.instr) =
      Array.iteri
        (fun c req -> Bitset.union_into ~dst:(ref_at (cycle + c)) req)
        op.Model.i_rvec;
      Option.iter
        (fun k ->
          let issued = Hashtbl.find_opt ref_classes cycle in
          Hashtbl.replace ref_classes cycle
            (k :: Option.value ~default:[] issued))
        op.Model.i_class
    in
    let rec ref_first_free cycle op =
      if ref_conflict cycle op then ref_first_free (cycle + 1) op else cycle
    in
    let sb = Scoreboard.create model in
    (* [replica] holds [sb]'s exported state imported [shift] cycles
       later, then mirrors every reservation *)
    let replica = Scoreboard.create model and shift = ref 0 in
    let buf = Array.make (Scoreboard.state_words sb) 0 in
    let rng = Random.State.make [| 0x5eed; 42 |] in
    let ops = model.Model.instrs in
    let classed =
      List.filter
        (fun (op : Model.instr) -> op.Model.i_class <> None)
        (Array.to_list ops)
      |> Array.of_list
    in
    let cycle = ref 0 in
    (* probes refused only by a closed class: resources free *)
    let closed_probes = ref 0 in
    for _ = 1 to 20_000 do
      (* monotone, often on the same cycle again, sometimes jumping past
         the whole window *)
      if Random.State.int rng 4 > 0 then
        cycle := !cycle + Random.State.int rng 40;
      (* half the draws classed, where the model has packing classes *)
      let op =
        if classed <> [||] && Random.State.bool rng then
          classed.(Random.State.int rng (Array.length classed))
        else ops.(Random.State.int rng (Array.length ops))
      in
      let tag what =
        Printf.sprintf "%s: %s %s at %d" model.Model.name what op.Model.i_name
          !cycle
      in
      if ref_closed !cycle op && not (ref_busy_at !cycle op) then
        incr closed_probes;
      (* before the probe, so the window may still lag [cycle] *)
      check Alcotest.int (tag "first_free")
        (ref_first_free !cycle op)
        (Scoreboard.first_free sb ~cycle:!cycle op);
      check Alcotest.bool (tag "conflict")
        (ref_conflict !cycle op)
        (Scoreboard.conflict sb ~cycle:!cycle op);
      check Alcotest.int (tag "first_free after the probe")
        (ref_first_free (!cycle + 1) op)
        (Scoreboard.first_free sb ~cycle:(!cycle + 1) op);
      (* the export decides every later probe: the replica answers
         alike, shifted, and a round trip in place leaves the reference
         checks holding *)
      if Random.State.int rng 8 = 0 then begin
        ignore (Scoreboard.export sb ~cycle:!cycle buf 0 : int);
        shift := Random.State.int rng 100;
        Scoreboard.import replica ~cycle:(!cycle + !shift) buf 0;
        Scoreboard.import sb ~cycle:!cycle buf 0;
        Array.iter
          (fun (o : Model.instr) ->
            check Alcotest.int (tag ("round trip first_free " ^ o.Model.i_name))
              (ref_first_free !cycle o)
              (Scoreboard.first_free sb ~cycle:!cycle o))
          ops
      end;
      check Alcotest.int (tag "replica first_free")
        (Scoreboard.first_free sb ~cycle:!cycle op + !shift)
        (Scoreboard.first_free replica ~cycle:(!cycle + !shift) op);
      if Random.State.bool rng then begin
        ref_reserve !cycle op;
        Scoreboard.reserve sb ~cycle:!cycle op;
        Scoreboard.reserve replica ~cycle:(!cycle + !shift) op
      end
    done;
    if model.Model.name = "i860" then
      check Alcotest.bool "i860 reaches closed classes with free resources"
        true (!closed_probes > 0);
    (* probing behind the window base is a contract violation, not a
       silent wrong answer *)
    check Alcotest.bool "backward probe raises" true
      (match Scoreboard.conflict sb ~cycle:0 ops.(0) with
      | (_ : bool) -> false
      | exception Invalid_argument _ -> true);
    check Alcotest.bool "backward first_free raises" true
      (match Scoreboard.first_free sb ~cycle:0 ops.(0) with
      | (_ : int) -> false
      | exception Invalid_argument _ -> true);
    (* issue every classed op on one cycle, which closes every class of
       i860; [reset] reopens them and frees the resources *)
    let c = !cycle + 1 in
    Array.iter
      (fun op ->
        ref_reserve c op;
        Scoreboard.reserve sb ~cycle:c op)
      classed;
    Array.iter
      (fun (op : Model.instr) ->
        check Alcotest.bool
          (Printf.sprintf "%s: %s closed" model.Model.name op.Model.i_name)
          true
          (ref_closed c op && Scoreboard.conflict sb ~cycle:c op))
      classed;
    Scoreboard.reset sb;
    Array.iter
      (fun (op : Model.instr) ->
        let tag what =
          Printf.sprintf "%s: %s %s after reset" model.Model.name what
            op.Model.i_name
        in
        check Alcotest.bool (tag "conflict") false
          (Scoreboard.conflict sb ~cycle:c op);
        check Alcotest.int (tag "first_free") c
          (Scoreboard.first_free sb ~cycle:c op))
      ops
  in
  let wide = Lazy.force wide_model in
  check Alcotest.bool "wide model spans two words" true
    (Array.length wide.Model.resources > Sys.int_size);
  List.iter (fun (_, m) -> check_model (Lazy.force m)) targets;
  check_model wide

let test_scoreboard_bounded () =
  let model = Lazy.force (List.assoc "r2000" targets) in
  let sb = Scoreboard.create model in
  check Alcotest.bool "window is the max resource-vector span" true
    (Scoreboard.window sb <= 40);
  let addu = instr_exn model "addu" in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  for c = 0 to 2_000_000 do
    ignore (Scoreboard.conflict sb ~cycle:c addu : bool);
    Scoreboard.reserve sb ~cycle:c addu
  done;
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  (* the sim's old Hashtbl busy table leaked one entry per probed cycle;
     the ring must not retain anything proportional to the cycle count *)
  check Alcotest.bool
    (Printf.sprintf "live-word growth %d bounded" (live1 - live0))
    true
    (live1 - live0 < 10_000)

(* the simulator probes the scoreboard on every cycle it tries to issue
   in, so its hot paths must not allocate *)
let test_scoreboard_no_alloc () =
  let model = Lazy.force (List.assoc "r2000" targets) in
  let sb = Scoreboard.create model in
  let mult = instr_exn model "mult" in
  let a = mult.Model.i_rvec.(0) in
  let b = Bitset.create (Bitset.capacity a) in
  let words name f =
    let w0 = Gc.minor_words () in
    for c = 1 to 10_000 do
      f c
    done;
    check (Alcotest.float 0.) (name ^ " allocates nothing") 0.
      (Gc.minor_words () -. w0)
  in
  words "Bitset.inter_empty" (fun _ -> ignore (Bitset.inter_empty a b : bool));
  words "Scoreboard.conflict" (fun c ->
      ignore (Scoreboard.conflict sb ~cycle:c mult : bool));
  words "Scoreboard.reserve" (fun c ->
      Scoreboard.reserve sb ~cycle:(c + 10_000) mult);
  words "Scoreboard.first_free" (fun c ->
      ignore (Scoreboard.first_free sb ~cycle:(c + 20_000) mult : int));
  (* classed ops narrow and test the open packing classes in place *)
  let i860 = Lazy.force (List.assoc "i860" targets) in
  let sb = Scoreboard.create i860 in
  let ma1 = instr_exn i860 "MA1" and aa1 = instr_exn i860 "AA1" in
  words "classed probes" (fun c ->
      ignore (Scoreboard.conflict sb ~cycle:c ma1 : bool);
      Scoreboard.reserve sb ~cycle:c ma1;
      ignore (Scoreboard.conflict sb ~cycle:c aa1 : bool);
      Scoreboard.reserve sb ~cycle:c aa1;
      ignore (Scoreboard.first_free sb ~cycle:c aa1 : int))

(* the end-to-end shape of the same regression: a long Livermore run
   (hundreds of thousands of simulated cycles) completes with resource
   tracking bounded by the ring window *)
let test_sim_long_run () =
  let model = Lazy.force (List.assoc "r2000" targets) in
  let ir = Cgen.compile ~file:"lfk1-long" (Livermore.source ~iter:200 1) in
  let prog, _report = Strategy.compile model Strategy.Postpass ir in
  let r = Sim.run prog in
  check Alcotest.bool
    (Printf.sprintf "long run simulated (%d cycles)" r.Sim.cycles)
    true
    (r.Sim.cycles > 200_000)

(* ------------------------------------------------------------------ *)
(* Differential property: on hazard-free straight-line blocks the
   scheduler's predicted block length equals the simulator's issue
   span. Destinations are all distinct and sources are the hardwired
   zero register, so there are no data dependences; structural hazards
   (the multiplier's long MD occupancy, single-issue IF) and the branch
   delay slot are exactly what both engines must agree on. *)

let sched_sim_agree =
  let model = Lazy.force (List.assoc "r2000" targets) in
  let rcls =
    match Model.find_class model "r" with
    | Some c -> c.Model.c_id
    | None -> Alcotest.fail "r2000 has no class r"
  in
  let reg idx = { Model.cls = rcls; Model.idx } in
  let zero = reg 0 in
  let alu_ops = [| "addu"; "subu"; "and"; "or"; "xor"; "mult" |] in
  let gen =
    let open QCheck2.Gen in
    list_size (1 -- 20) (0 -- (Array.length alu_ops - 1))
  in
  QCheck2.Test.make ~name:"scheduler length == simulator issue span"
    ~count:60 gen (fun picks ->
      let fn = Mir.new_func model "main" in
      let body =
        List.mapi
          (fun k pick ->
            let op = instr_exn model alu_ops.(pick) in
            Mir.mk_inst fn op
              [| Mir.Ophys (reg (2 + k)); Mir.Ophys zero; Mir.Ophys zero |])
          picks
      in
      let jr =
        Mir.mk_inst fn (instr_exn model "jr") [| Mir.Ophys (reg 31) |]
      in
      let b = Mir.new_block "main" in
      b.Mir.b_insts <- body @ [ jr ];
      fn.Mir.f_blocks <- [ b ];
      let predicted =
        List.fold_left (fun acc (_, len) -> acc + len) 0
          (Listsched.schedule_func fn)
      in
      let prog =
        { Mir.p_model = model; Mir.p_globals = []; Mir.p_funcs = [ fn ] }
      in
      let r = Sim.run prog in
      if r.Sim.cycles <> predicted then
        QCheck2.Test.fail_reportf
          "scheduler predicted %d cycles, simulator issued over %d"
          predicted r.Sim.cycles;
      true)

let suite =
  [
    Alcotest.test_case "bit-identity vs pre-refactor goldens (-j 1)" `Slow
      (test_bit_identity ~jobs:1);
    Alcotest.test_case "bit-identity vs pre-refactor goldens (-j 4)" `Slow
      (test_bit_identity ~jobs:4);
    Alcotest.test_case "latency oracle == aux-table scan" `Quick
      test_latency_oracle;
    Alcotest.test_case "scoreboard == unbounded reference" `Quick
      test_scoreboard_vs_reference;
    Alcotest.test_case "scoreboard memory bounded" `Slow
      test_scoreboard_bounded;
    Alcotest.test_case "scoreboard probes allocate nothing" `Quick
      test_scoreboard_no_alloc;
    Alcotest.test_case "long Livermore sim run" `Slow test_sim_long_run;
    QCheck_alcotest.to_alcotest sched_sim_agree;
  ]
