(* One digest per (target, strategy) cell: everything the compiler must
   keep bit-identical across refactors. The blob covers the rendered
   assembly, the report's deterministic statistics and diagnostics, the
   simulator's cycle/instruction counts and program output, and the
   compilation-cache key of every function (IR digest + model digest +
   pipeline digest, combined exactly as Strategy.compile does).
   Wall-clock fields are deliberately excluded.

   test/test_timing.ml asserts these digests against a golden table;
   bench/goldens.exe prints that table. *)

let kernel_ids = [ 1; 2; 3; 5; 7 ]

let cell_blob ~jobs model strat : string =
  let buf = Buffer.create (1 lsl 16) in
  let add fmt = Printf.bprintf buf fmt in
  let opts = { Strategy.default with jobs } in
  List.iter
    (fun id ->
      let file = Printf.sprintf "lfk%d" id in
      let src = Livermore.source id in
      add "== %s\n" file;
      match
        let ir = Cgen.compile ~file src in
        let r = Strategy.compile ~opts model strat ir in
        (ir, r)
      with
      | ir, (prog, report) ->
          add "asm:\n%s\n" (Format.asprintf "%a" Mir.pp_prog prog);
          add "spilled:%d passes:%d\n" report.Strategy.spilled
            report.Strategy.schedule_passes;
          Hashtbl.fold
            (fun k v acc -> (k, v) :: acc)
            report.Strategy.block_estimates []
          |> List.sort compare
          |> List.iter (fun (l, n) -> add "est:%s=%d\n" l n);
          List.iter
            (fun d -> add "diag:%s\n" (Diag.to_string d))
            report.Strategy.check_diags;
          List.iter
            (fun d -> add "vdiag:%s\n" (Diag.to_string d))
            report.Strategy.validate_diags;
          (match Sim.run prog with
          | r ->
              add "sim:cycles=%d insts=%d ret=%d loads=%d out=%s\n"
                r.Sim.cycles r.Sim.instructions r.Sim.return_value
                r.Sim.loads
                (String.escaped r.Sim.output)
          | exception Sim.Sim_error m -> add "simerr:%s\n" m);
          (* cache keys exactly as Strategy.compile builds them; the IR
             was glued by the compile above, so of_ir_func sees the same
             trees the cache would digest *)
          let pipe = Strategy.pipeline_key opts strat in
          let md = Ckey.of_model model in
          List.iter
            (fun irfn ->
              add "key:%s\n"
                (Ckey.to_hex
                   (Ckey.combine [ Ckey.of_ir_func irfn; md; pipe ])))
            ir.Ir.funcs
      | exception Select.No_pattern msg -> add "no-pattern:%s\n" msg
      | exception Loc.Error (loc, msg) ->
          add "error:%s\n" (Loc.error_to_string loc msg)
      | exception Diag.Check_error ds ->
          List.iter (fun d -> add "checkerr:%s\n" (Diag.to_string d)) ds)
    kernel_ids;
  Buffer.contents buf

let cell_digest ~jobs model strat =
  Digest.to_hex (Digest.string (cell_blob ~jobs model strat))
