type compiled = { prog : Mir.prog; report : Strategy.report }

type run_result = { compiled : compiled; sim : Sim.result }

let load_target ~name ~file src = Builder.load ~name ~file src

let parse_c ~file src = Cparse.parse ~file src

let compile ?opts ?cache model strategy ~file src =
  let prog, report =
    Strategy.compile ?opts ?cache model strategy (Cgen.compile ~file src)
  in
  { prog; report }

let run ?config { prog; _ } = Sim.run ?config prog

let compile_and_run ?config ?opts ?cache model strategy ~file src =
  let compiled = compile ?opts ?cache model strategy ~file src in
  { compiled; sim = run ?config compiled }

let lint = Marilint.lint

let check_mir = Mircheck.check_prog

let validate = Transval.validate_prog

let interpret ~file src = Cinterp.run_source ~file src

let asm_to_string prog = Format.asprintf "%a" Mir.pp_prog prog

let estimated_cycles { report; _ } (sim : Sim.result) =
  Hashtbl.fold
    (fun label freq acc ->
      match Hashtbl.find_opt report.Strategy.block_estimates label with
      | Some len -> acc +. (float_of_int len *. float_of_int freq)
      | None -> acc)
    sim.Sim.block_freq 0.0
