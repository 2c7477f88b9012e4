(* Property-based tests (QCheck, registered as alcotest cases).

   The heavyweight property is end-to-end: random C programs must produce
   identical output through the reference interpreter and through the full
   compile-and-simulate pipeline, on two targets and two strategies. The
   scheduler and bitset properties check structural invariants. *)

let toyp = lazy (Toyp.load ())

let r2000 = lazy (R2000.load ())

(* ---------------- random C programs ---------------- *)

let vars = [| "a"; "b"; "c"; "d"; "e" |]

let rec gen_iexpr depth st =
  let open QCheck2.Gen in
  let leaf =
    oneof
      [
        map (fun i -> vars.(i)) (int_bound (Array.length vars - 1));
        map string_of_int (int_range (-100) 100);
        map (fun i -> Printf.sprintf "arr[%d]" (i land 7)) (int_bound 7);
      ]
  in
  if depth <= 0 then generate1 ~rand:st leaf |> fun s -> s
  else
    let sub () = gen_iexpr (depth - 1) st in
    match generate1 ~rand:st (int_bound 9) with
    | 0 | 1 -> Printf.sprintf "(%s + %s)" (sub ()) (sub ())
    | 2 -> Printf.sprintf "(%s - %s)" (sub ()) (sub ())
    | 3 -> Printf.sprintf "(%s * %s)" (sub ()) (sub ())
    | 4 -> Printf.sprintf "(%s & %s)" (sub ()) (sub ())
    | 5 -> Printf.sprintf "(%s | %s)" (sub ()) (sub ())
    | 6 -> Printf.sprintf "(%s ^ %s)" (sub ()) (sub ())
    | 7 -> Printf.sprintf "(%s / ((%s & 7) + 1))" (sub ()) (sub ())
    | 8 -> Printf.sprintf "(%s %% ((%s & 7) + 1))" (sub ()) (sub ())
    | _ -> Printf.sprintf "(%s >> %d)" (sub ()) (generate1 ~rand:st (int_bound 4))

let gen_stmt st =
  let open QCheck2.Gen in
  let v = vars.(generate1 ~rand:st (int_bound (Array.length vars - 1))) in
  match generate1 ~rand:st (int_bound 3) with
  | 0 | 1 -> Printf.sprintf "%s = %s;" v (gen_iexpr 3 st)
  | 2 ->
      Printf.sprintf "arr[(%s) & 7] = %s;" (gen_iexpr 2 st) (gen_iexpr 2 st)
  | _ ->
      Printf.sprintf "if (%s > %s) %s = %s; else %s = %s;" (gen_iexpr 2 st)
        (gen_iexpr 2 st) v (gen_iexpr 2 st) v (gen_iexpr 2 st)

let gen_program : string QCheck2.Gen.t =
  QCheck2.Gen.make_primitive
    ~gen:(fun st ->
      let open QCheck2.Gen in
      let n = 3 + generate1 ~rand:st (int_bound 6) in
      let buf = Buffer.create 512 in
      Buffer.add_string buf "int arr[8];\nint main(void) {\n";
      Array.iteri
        (fun i v ->
          Buffer.add_string buf
            (Printf.sprintf "  int %s = %d;\n" v ((i * 17) - 20)))
        vars;
      Buffer.add_string buf "  int k;\n  for (k = 0; k < 8; k++) arr[k] = k * 5 - 9;\n";
      for _ = 1 to n do
        Buffer.add_string buf ("  " ^ gen_stmt st ^ "\n")
      done;
      Array.iter
        (fun v -> Buffer.add_string buf (Printf.sprintf "  print_int(%s);\n" v))
        vars;
      Buffer.add_string buf
        "  for (k = 0; k < 8; k++) print_int(arr[k]);\n  return 0;\n}\n";
      Buffer.contents buf)
    ~shrink:(fun _ -> Seq.empty)

let prop_compiled_matches_interpreter =
  QCheck2.Test.make ~name:"random C: pipeline == interpreter" ~count:25
    ~print:(fun s -> s)
    gen_program
    (fun src ->
      let oracle = Cinterp.run_source ~file:"<rand.c>" src in
      List.for_all
        (fun model ->
          List.for_all
            (fun strat ->
              let r =
                Marion.compile_and_run model strat ~file:"<rand.c>" src
              in
              r.Marion.sim.Sim.output = oracle.Cinterp.output)
            [ Strategy.Postpass; Strategy.Ips ])
        [ Lazy.force toyp; Lazy.force r2000 ])

(* ---------------- scheduler invariants ---------------- *)

let gen_block_model =
  (* a random straight-line TOYP block over small register numbers *)
  QCheck2.Gen.make_primitive
    ~gen:(fun st ->
      let open QCheck2.Gen in
      let m = Lazy.force toyp in
      let fn = Mir.new_func m "p" in
      let instr name = List.hd (Model.instrs_by_name m name) in
      let rreg i =
        let c = Option.get (Model.find_class m "r") in
        Mir.Ophys { Model.cls = c.Model.c_id; idx = 1 + (i mod 5) }
      in
      let dreg i =
        let c = Option.get (Model.find_class m "d") in
        Mir.Ophys { Model.cls = c.Model.c_id; idx = 1 + (i mod 2) }
      in
      let n = 3 + generate1 ~rand:st (int_bound 12) in
      let insts =
        List.init n (fun _ ->
            let r1 = generate1 ~rand:st (int_bound 20) in
            let r2 = generate1 ~rand:st (int_bound 20) in
            let r3 = generate1 ~rand:st (int_bound 20) in
            match generate1 ~rand:st (int_bound 5) with
            | 0 | 1 ->
                Mir.mk_inst fn (instr "add") [| rreg r1; rreg r2; rreg r3 |]
            | 2 ->
                Mir.mk_inst fn (instr "ld")
                  [| rreg r1; rreg r2; Mir.Oimm (4 * (r3 mod 8)) |]
            | 3 ->
                Mir.mk_inst fn (instr "st")
                  [| rreg r1; rreg r2; Mir.Oimm (4 * (r3 mod 8)) |]
            | 4 ->
                Mir.mk_inst fn (instr "fadd.d") [| dreg r1; dreg r2; dreg r3 |]
            | _ ->
                Mir.mk_inst fn (instr "mul") [| rreg r1; rreg r2; rreg r3 |])
      in
      (fn, insts))
    ~shrink:(fun _ -> Seq.empty)

let prop_schedule_permutation =
  QCheck2.Test.make ~name:"schedule is a permutation plus nops" ~count:100
    gen_block_model
    (fun (fn, insts) ->
      let r = Listsched.schedule_block fn insts in
      let orig = List.map (fun (i : Mir.inst) -> i.Mir.n_id) insts in
      let out =
        List.filter_map
          (fun (i : Mir.inst) ->
            if i.Mir.n_op.Model.i_name = "nop" then None else Some i.Mir.n_id)
          r.Listsched.order
      in
      List.sort compare orig = List.sort compare out)

let prop_schedule_topological =
  QCheck2.Test.make ~name:"schedule respects every DAG edge" ~count:100
    gen_block_model
    (fun (fn, insts) ->
      let m = fn.Mir.f_model in
      let dag = Dag.build m insts in
      let r = Listsched.schedule_block fn insts in
      let pos = Hashtbl.create 16 in
      List.iteri (fun k (i : Mir.inst) -> Hashtbl.replace pos i.Mir.n_id k)
        r.Listsched.order;
      List.for_all
        (fun (e : Dag.edge) ->
          let ps = Hashtbl.find pos dag.Dag.insts.(e.Dag.e_src).Mir.n_id in
          let pd = Hashtbl.find pos dag.Dag.insts.(e.Dag.e_dst).Mir.n_id in
          ps < pd)
        dag.Dag.edges)

let prop_schedule_never_longer_than_serial =
  QCheck2.Test.make ~name:"schedule never beats the critical path bound"
    ~count:100 gen_block_model
    (fun (fn, insts) ->
      let dag = Dag.build fn.Mir.f_model insts in
      let dist = Dag.max_dist_to_leaf dag in
      let critical = Array.fold_left max 0 dist in
      let r = Listsched.schedule_block fn insts in
      (* length >= critical path + 1, and >= instruction count on a
         single-issue machine *)
      r.Listsched.length >= critical + 1)

(* ---------------- front end DAG invariant ---------------- *)

let prop_dag_forcing =
  QCheck2.Test.make ~name:"multi-parent IL nodes are forced into temps"
    ~count:50 ~print:(fun s -> s) gen_program
    (fun src ->
      let prog = Cgen.compile ~file:"<rand.c>" src in
      List.for_all
        (fun (fn : Ir.func) ->
          List.for_all
            (fun (b : Ir.block) ->
              let parents = Hashtbl.create 32 in
              let seen = Hashtbl.create 32 in
              let is_leaf (e : Ir.expr) =
                match e.Ir.e_kind with
                | Ir.Const _ | Ir.Sym _ | Ir.Slotaddr _ | Ir.Temp _ -> true
                | _ -> false
              in
              let children (e : Ir.expr) =
                match e.Ir.e_kind with
                | Ir.Const _ | Ir.Sym _ | Ir.Slotaddr _ | Ir.Temp _ -> []
                | Ir.Unop (_, a) | Ir.Load a | Ir.Cvt (_, a) -> [ a ]
                | Ir.Binop (_, a, b) | Ir.Rel (_, a, b) -> [ a; b ]
              in
              let rec walk (e : Ir.expr) =
                Hashtbl.replace parents e.Ir.e_id
                  (1 + Option.value ~default:0 (Hashtbl.find_opt parents e.Ir.e_id));
                if not (Hashtbl.mem seen e.Ir.e_id) then begin
                  Hashtbl.replace seen e.Ir.e_id e;
                  List.iter walk (children e)
                end
              in
              List.iter
                (fun (s : Ir.stmt) ->
                  match s with
                  | Ir.Assign (_, e) | Ir.Ret (Some e) -> walk e
                  | Ir.Store (_, a, v) -> walk a; walk v
                  | Ir.Cjump (_, a, b, _) -> walk a; walk b
                  | Ir.Call { args; _ } -> List.iter walk args
                  | Ir.Jump _ | Ir.Ret None -> ())
                b.Ir.b_stmts;
              Hashtbl.fold
                (fun id n acc ->
                  acc && (n <= 1 || is_leaf (Hashtbl.find seen id)))
                parents true)
            fn.Ir.fn_blocks)
        prog.Ir.funcs)

(* ---------------- Maril expression round trip ---------------- *)

let rec gen_maril_expr depth st =
  let open QCheck2.Gen in
  if depth <= 0 then
    match generate1 ~rand:st (int_bound 2) with
    | 0 -> Ast.Eopnd (1 + generate1 ~rand:st (int_bound 3))
    | 1 -> Ast.Eint (generate1 ~rand:st (int_range 0 1000))
    | _ -> Ast.Ename "m1"
  else
    let sub () = gen_maril_expr (depth - 1) st in
    match generate1 ~rand:st (int_bound 7) with
    | 0 -> Ast.Ebinop (Ast.Add, sub (), sub ())
    | 1 -> Ast.Ebinop (Ast.Mul, sub (), sub ())
    | 2 -> Ast.Ebinop (Ast.Cmp, sub (), sub ())
    | 3 -> Ast.Erel (Ast.Le, sub (), sub ())
    | 4 -> Ast.Eunop (Ast.Neg, sub ())
    | 5 -> Ast.Ecvt (Ast.Double, sub ())
    | 6 -> Ast.Emem ("m", sub ())
    | _ -> Ast.Ebinop (Ast.Shl, sub (), sub ())

let gen_maril =
  QCheck2.Gen.make_primitive
    ~gen:(fun st -> gen_maril_expr 3 st)
    ~shrink:(fun _ -> Seq.empty)

let prop_maril_roundtrip =
  QCheck2.Test.make ~name:"Maril expression print/parse round trip" ~count:200
    gen_maril
    (fun e ->
      let printed = Format.asprintf "%a" Ast.pp_expr e in
      let reparsed = Parser.parse_expr ~file:"<rt>" printed in
      reparsed = e)

(* ---------------- bitset model ---------------- *)

let gen_small_ints = QCheck2.Gen.(list_size (int_bound 20) (int_bound 63))

(* elements span four words, sign bits (62, 125, 188) included *)
let gen_bitset_ints = QCheck2.Gen.(list_size (int_bound 30) (int_bound 199))

let prop_bitset_model =
  QCheck2.Test.make ~name:"bitset agrees with a list model" ~count:200
    QCheck2.Gen.(pair gen_bitset_ints gen_bitset_ints)
    (fun (xs, ys) ->
      let a = Bitset.of_list 200 xs and b = Bitset.of_list 200 ys in
      let inter_empty_model =
        not (List.exists (fun x -> List.mem x ys) xs)
      in
      let u = Bitset.copy a in
      Bitset.union_into ~dst:u b;
      let d = Bitset.copy a in
      Bitset.diff_into ~dst:d b;
      let c = Bitset.create 200 in
      Bitset.blit ~src:u ~dst:c;
      Bitset.inter_empty a b = inter_empty_model
      && Bitset.to_list u
         = List.sort_uniq compare (xs @ ys)
      && Bitset.to_list d
         = List.sort_uniq compare (List.filter (fun x -> not (List.mem x ys)) xs)
      && Bitset.equal c u
      && Bitset.cardinal a = List.length (List.sort_uniq compare xs))

(* word-wise range operations against the one-bit-at-a-time model, with a
   capacity that forces ranges to straddle word boundaries *)
let prop_bitset_ranges =
  QCheck2.Test.make ~name:"bitset range ops agree with per-bit loops"
    ~count:200
    QCheck2.Gen.(
      triple gen_small_ints (int_bound 199) (int_bound 150))
    (fun (xs, pos, len) ->
      let cap = 200 in
      let len = min len (cap - pos) in
      let orig = Bitset.of_list cap xs in
      let a = Bitset.copy orig and b = Bitset.copy orig in
      Bitset.set_range a pos len;
      for i = pos to pos + len - 1 do
        Bitset.set b i
      done;
      let all_orig = ref true in
      for i = pos to pos + len - 1 do
        if not (Bitset.mem orig i) then all_orig := false
      done;
      Bitset.equal a b
      && Bitset.mem_range a pos len
      && Bitset.mem_range orig pos len = !all_orig
      && Bitset.mem_range orig pos 0)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_compiled_matches_interpreter;
      prop_dag_forcing;
      prop_schedule_permutation;
      prop_schedule_topological;
      prop_schedule_never_longer_than_serial;
      prop_maril_roundtrip;
      prop_bitset_model;
      prop_bitset_ranges;
    ]
