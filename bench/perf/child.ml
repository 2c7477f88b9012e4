(* One workload, run in its own process: set up (three times, for a
   steady set-up time), time a fixed number of passes over the cells,
   verify every compiled cell against the reference interpreter,
   optionally trace one more pass, re-run the known bugs, and print the
   result as one JSON document on stdout. *)

open Cells

type opts = {
  o_seed : int;
  o_seconds : float;  (* scales the workload's pass count, sized for 10 s *)
  o_trace : bool;
  o_smoke : bool;  (* one set-up, one timed pass, no verification memo *)
  o_work_dir : string;  (* holds _cache/, _trace/ and _verified/ *)
}

let process_start = Mclock.wall ()

let cpu = Mclock.thread_cpu

(* progress on stderr; the smoke test runs silent *)
let quiet = ref false

let log fmt =
  Printf.ksprintf (fun s -> if not !quiet then prerr_endline ("perf: " ^ s)) fmt

let one_line s =
  let s = String.map (fun c -> if c = '\n' then ' ' else c) s in
  if String.length s > 160 then String.sub s 0 160 else s

let reason_of_exn e = one_line (Printexc.to_string e)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let rec du_bytes path =
  if Sys.is_directory path then
    Array.fold_left
      (fun acc f -> acc + du_bytes (Filename.concat path f))
      0 (Sys.readdir path)
  else (Unix.stat path).Unix.st_size

let asm prog = Format.asprintf "%a" Mir.pp_prog prog

let shuffle seed pass l =
  let a = Array.of_list l in
  let rng = Random.State.make [| seed; pass |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* ------------------------------------------------------------------ *)
(* Verification: simulate, compare with the reference interpreter      *)
(* ------------------------------------------------------------------ *)

let matches (r : Sim.result) (e : Cinterp.result) =
  if r.Sim.output = e.Cinterp.output && r.Sim.return_value = e.Cinterp.return_value
  then Ok ()
  else
    Error
      (one_line
         (Printf.sprintf "output %S exit %d, interpreter %S exit %d"
            r.Sim.output r.Sim.return_value e.Cinterp.output
            e.Cinterp.return_value))

(* Simulating every compiled cell dominates a short run, and the verdict
   is a pure function of (this executable, target, source, generated
   code). Passing verdicts are memoised on disk under that key, in a
   directory named after the executable's digest: any change to the
   compiler or the simulator changes the executable, and the verdicts of
   every other executable are dropped. *)
let memo_dir root =
  let dir = Filename.concat root (Digest.to_hex (Digest.file Sys.executable_name)) in
  if Sys.file_exists root then
    Array.iter
      (fun f ->
        let f = Filename.concat root f in
        if f <> dir then rm_rf f)
      (Sys.readdir root);
  mkdir_p dir;
  dir

let simulations = ref 0

let verify ~memo cell prog expected =
  let simulate () =
    (* each run allocates the simulator's whole memory image; collect
       every few runs so a long verification does not grow the heap by
       hundreds of MB *)
    incr simulations;
    if !simulations mod 8 = 0 then Gc.full_major ();
    match Sim.run prog with
    | r ->
        Result.map
          (fun () -> (r.Sim.cycles, r.Sim.instructions))
          (matches r expected)
    | exception e -> Error ("sim: " ^ reason_of_exn e)
  in
  match memo with
  | None -> simulate ()
  | Some dir -> (
      let key =
        Digest.to_hex
          (Digest.string
             (String.concat "\000" [ cell.c_target; cell.c_src; asm prog ]))
      in
      let file = Filename.concat dir key in
      let cached =
        if Sys.file_exists file then
          In_channel.with_open_bin file (fun ic ->
              Scanf.sscanf_opt (In_channel.input_all ic) "%d %d" (fun c i ->
                  (c, i)))
        else None
      in
      match cached with
      | Some ci -> Ok ci
      | None ->
          let r = simulate () in
          (match r with
          | Ok (c, i) ->
              let tmp = file ^ ".tmp" in
              Out_channel.with_open_bin tmp (fun oc ->
                  Printf.fprintf oc "%d %d\n" c i);
              Sys.rename tmp file
          | Error _ -> ());
          r)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* what every later pass is checked against, per cell *)
type reference = {
  r_prog : Mir.prog;
  r_digest : Digest.t;  (* of the generated assembly *)
  r_insts : int;
  mutable r_cycles : int;
  mutable r_instructions : int;
}

type setup = {
  s_models : (string * Model.t) list;
  s_parse : float;  (* CPU seconds over the four targets *)
  s_build : float;
  s_lint : float;
  s_expected : (string, Cinterp.result) Hashtbl.t;  (* per program *)
  s_cinterp : float;
  s_cache_dir : string option;
  mutable s_disk_kb : float;
  s_refs : (string, reference) Hashtbl.t;  (* per cell id *)
  mutable s_failed : (string * string) list;  (* cell id, reason *)
  mutable s_wall : float;
}

type outcome = Compiled of Mir.prog * Strategy.report | Simulated of Sim.result

type tracer = { tr : Trace.t; root : int }

(* the timed work of one cell, with spans around each layer call when
   traced *)
let body w st ?cache ?tracer cell =
  let model = List.assoc cell.c_target st.s_models in
  let span layer name f =
    match tracer with
    | None -> f ()
    | Some t ->
        Trace.span t.tr ~parent:t.root ~layer ~cell:cell.c_id name (fun _ ->
            f ())
  in
  match w.w_kind with
  | Execute ->
      let r = Hashtbl.find st.s_refs cell.c_id in
      Simulated (span "sim" "Sim.run" (fun () -> Sim.run r.r_prog))
  | Compile | Warm -> (
      let ir =
        span "cfront" "Cgen.compile" (fun () ->
            Cgen.compile ~file:cell.c_file cell.c_src)
      in
      let compile () = Strategy.compile ?cache model cell.c_strategy ir in
      match tracer with
      | None ->
          let prog, report = compile () in
          Compiled (prog, report)
      | Some t ->
          Trace.span t.tr ~parent:t.root ~layer:"strategy" ~cell:cell.c_id
            "Strategy.compile" (fun id ->
              let start = Mclock.wall () in
              let prog, report = compile () in
              (* one child span per Profile entry, laid end to end *)
              ignore
                (List.fold_left
                   (fun at (e : Profile.entry) ->
                     Trace.synth t.tr ~parent:id
                       ~layer:(Layers.of_entry e.Profile.e_name)
                       ~cell:cell.c_id ~start:at ~wall:e.Profile.e_wall
                       ~cpu:e.Profile.e_cpu e.Profile.e_name;
                     at +. e.Profile.e_wall)
                   start
                   (Profile.entries report.Strategy.profile));
              Compiled (prog, report)))

type sample = { cell : cell; c_cpu : float; c_wall : float; c_alloc : float }

type pass = { p_samples : sample list; p_minor : int; p_major : int }

(* bytes allocated so far, exactly: in OCaml 5.1 [Gc.allocated_bytes]
   reads a minor-heap count that is only current as of the last minor
   collection, which makes short windows wrong by up to the minor heap's
   size *)
let allocated_bytes () =
  let _, promoted, major = Gc.counters () in
  (Gc.minor_words () +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* each cell's outcome goes to [on_result] as soon as it is timed and is
   not kept: a pass must not hold the previous passes' programs live *)
let run_pass w st ?cache ?trace ~on_result cells =
  let q0 = Gc.quick_stat () in
  let samples = ref [] in
  List.iter
    (fun cell ->
      let run () =
        match trace with
        | None -> body w st ?cache cell
        | Some tr ->
            Trace.span tr ~layer:"harness" ~cell:cell.c_id cell.c_id (fun root ->
                body w st ?cache ~tracer:{ tr; root } cell)
      in
      let a0 = allocated_bytes () in
      let w0 = Mclock.wall () and c0 = cpu () in
      let r = match run () with o -> Ok o | exception e -> Error (reason_of_exn e) in
      let c_cpu = cpu () -. c0 and c_wall = Mclock.wall () -. w0 in
      let c_alloc = allocated_bytes () -. a0 in
      samples := { cell; c_cpu; c_wall; c_alloc } :: !samples;
      on_result cell r)
    cells;
  let q1 = Gc.quick_stat () in
  {
    p_samples = List.rev !samples;
    p_minor = q1.Gc.minor_collections - q0.Gc.minor_collections;
    p_major = q1.Gc.major_collections - q0.Gc.major_collections;
  }

let live_cells st cells =
  List.filter (fun c -> not (List.mem_assoc c.c_id st.s_failed)) cells

let fresh_cache st =
  Option.map (fun dir -> Cache.create ~dir ()) st.s_cache_dir

let record_ref st cell prog (report : Strategy.report) =
  Hashtbl.replace st.s_refs cell.c_id
    {
      r_prog = prog;
      r_digest = Digest.string (asm prog);
      r_insts = report.Strategy.profile.Profile.p_insts;
      r_cycles = 0;
      r_instructions = 0;
    }

(* does a timed pass's result reproduce the reference? *)
let check st cell = function
  | Compiled (prog, _) ->
      let r = Hashtbl.find st.s_refs cell.c_id in
      if Digest.string (asm prog) = r.r_digest then Ok ()
      else Error "generated code differs from the reference compile"
  | Simulated s -> (
      let r = Hashtbl.find st.s_refs cell.c_id in
      match matches s (Hashtbl.find st.s_expected cell.c_file) with
      | Error _ as e -> e
      | Ok () when r.r_cycles <> 0 && s.Sim.cycles <> r.r_cycles ->
          Error
            (Printf.sprintf "%d cycles, reference run %d" s.Sim.cycles
               r.r_cycles)
      | Ok () ->
          r.r_cycles <- s.Sim.cycles;
          r.r_instructions <- s.Sim.instructions;
          Ok ())

let setup w o ~index =
  let t0 = if index = 0 then process_start else Mclock.wall () in
  let parse = ref 0.0 and build = ref 0.0 in
  let models =
    List.map
      (fun t ->
        let c0 = cpu () in
        let ast =
          Parser.parse ~name:t.t_name ~file:("<" ^ t.t_name ^ ".maril>") t.t_desc
        in
        let c1 = cpu () in
        let m = Builder.build ast in
        t.t_funcs m;
        parse := !parse +. (c1 -. c0);
        build := !build +. (cpu () -. c1);
        (t.t_name, m))
      targets
  in
  let c0 = cpu () in
  List.iter
    (fun (name, m) ->
      match Diag.errors (Marion.lint m) with
      | [] -> ()
      | _ -> failwith ("the " ^ name ^ " description does not lint clean"))
    models;
  let lint = cpu () -. c0 in
  let expected = Hashtbl.create 32 in
  let c0 = cpu () in
  List.iter
    (fun c ->
      if not (Hashtbl.mem expected c.c_file) then
        Hashtbl.replace expected c.c_file
          (Cinterp.run_source ~file:c.c_file c.c_src))
    (w.w_cells @ List.map fst w.w_quarantine);
  let cinterp = cpu () -. c0 in
  let cache_dir =
    match w.w_kind with
    | Warm ->
        (* no pid or time in the name: any change in what set-up
           allocates moves the heap's high-water mark *)
        let dir =
          Filename.concat o.o_work_dir
            (Printf.sprintf "_cache/%s-%d" w.w_name index)
        in
        rm_rf dir;
        mkdir_p dir;
        Some dir
    | Compile | Execute -> None
  in
  let st =
    {
      s_models = models; s_parse = !parse; s_build = !build; s_lint = lint;
      s_expected = expected; s_cinterp = cinterp; s_cache_dir = cache_dir;
      s_disk_kb = 0.0; s_refs = Hashtbl.create 64; s_failed = []; s_wall = 0.0;
    }
  in
  let fail cell reason = st.s_failed <- (cell.c_id, reason) :: st.s_failed in
  (* the references: a cold cache fill, or the compiles the simulator
     will run *)
  (match w.w_kind with
  | Compile -> ()
  | Warm | Execute ->
      let cache = fresh_cache st in
      List.iter
        (fun cell ->
          let model = List.assoc cell.c_target models in
          match
            Strategy.compile ?cache model cell.c_strategy
              (Cgen.compile ~file:cell.c_file cell.c_src)
          with
          | prog, report -> record_ref st cell prog report
          | exception e -> fail cell (reason_of_exn e))
        w.w_cells;
      Option.iter
        (fun d -> st.s_disk_kb <- float_of_int (du_bytes d) /. 1024.0)
        cache_dir);
  (* one discarded warm-up pass, in program order so that set-up does the
     same work for every seed; for a plain compile workload it makes the
     references *)
  ignore
    (run_pass w st ?cache:(fresh_cache st) (live_cells st w.w_cells)
       ~on_result:(fun cell r ->
         match (w.w_kind, r) with
         | _, Error reason -> fail cell reason
         | Compile, Ok (Compiled (prog, report)) -> record_ref st cell prog report
         | _, Ok outcome -> (
             match check st cell outcome with
             | Ok () -> ()
             | Error reason -> fail cell reason)));
  st.s_wall <- Mclock.wall () -. t0;
  st

(* ------------------------------------------------------------------ *)
(* Probes run after the traced pass, outside every timed region        *)
(* ------------------------------------------------------------------ *)

(* the largest register budget the RASE sweep explores (Strategy keeps
   its own copy private) *)
let max_budget (model : Model.t) =
  Array.fold_left
    (fun acc (c : Model.rclass) ->
      max acc (List.length (Model.allocable_of_class model c.Model.c_id)))
    1 model.Model.classes

let run_probes w st cells =
  let p =
    {
      Layers.digest_cpu = 0.0;
      select_insts = 0;
      dag_edges = 0;
      sweep_dag_cpu = 0.0;
    }
  in
  List.iter
    (fun cell ->
      let model = List.assoc cell.c_target st.s_models in
      let ir = Cgen.compile ~file:cell.c_file cell.c_src in
      List.iter (Glue.transform_func model) ir.Ir.funcs;
      let c0 = cpu () in
      List.iter (fun f -> ignore (Ckey.of_ir_func f)) ir.Ir.funcs;
      p.digest_cpu <- p.digest_cpu +. (cpu () -. c0);
      let blocks =
        List.concat_map
          (fun f ->
            let fn = Select.select_func model f in
            List.map
              (fun (b : Mir.block) ->
                List.filter (fun i -> not (Listsched.is_nop i)) b.Mir.b_insts)
              fn.Mir.f_blocks)
          ir.Ir.funcs
      in
      List.iter
        (fun insts ->
          p.select_insts <- p.select_insts + List.length insts;
          if insts <> [] then
            p.dag_edges <-
              p.dag_edges + List.length (Dag.build model insts).Dag.edges)
        blocks;
      if w.w_kind = Compile && cell.c_strategy = Strategy.Rase then begin
        let c0 = cpu () in
        for _ = 1 to max_budget model do
          List.iter
            (fun insts ->
              if insts <> [] then
                ignore (Dag.max_dist_to_leaf (Dag.build model insts)))
            blocks
        done;
        p.sweep_dag_cpu <- p.sweep_dag_cpu +. (cpu () -. c0)
      end)
    cells;
  p

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

let pass_sum f p = List.fold_left (fun a s -> a +. f s) 0.0 p.p_samples

(* simulates every compiled reference once; a miscompiled cell is
   marked failed *)
let verify_refs st ~memo cells =
  List.iter
    (fun cell ->
      match Hashtbl.find_opt st.s_refs cell.c_id with
      | Some r -> (
          match
            verify ~memo cell r.r_prog (Hashtbl.find st.s_expected cell.c_file)
          with
          | Ok (c, i) ->
              r.r_cycles <- c;
              r.r_instructions <- i
          | Error reason -> st.s_failed <- (cell.c_id, reason) :: st.s_failed)
      | None -> ())
    cells

(* the known bugs, compiled and run once each: do they still fail? *)
let recheck_known_bugs w st =
  List.map
    (fun (cell, bug) ->
      let model = List.assoc cell.c_target st.s_models in
      let expected = Hashtbl.find st.s_expected cell.c_file in
      let observed =
        match
          Strategy.compile model cell.c_strategy
            (Cgen.compile ~file:cell.c_file cell.c_src)
        with
        | prog, _ -> (
            match verify ~memo:None cell prog expected with
            | Ok _ -> "passes"
            | Error r -> "fails: " ^ r)
        | exception e -> "fails: " ^ reason_of_exn e
      in
      (cell.c_id, bug, observed))
    w.w_quarantine

(* The heap's high-water mark under the default GC settings is chaotic:
   any change in what runs before the peak moves the point where a major
   collection finishes, which moves the mark by up to ~16%. So it is
   measured in a process of its own that sets up once with a tight space
   overhead, where the heap tracks the live data closely and the same
   perturbations move it by under 1%. This is that process's body. *)
let memory w o =
  quiet := true;
  Gc.set { (Gc.get ()) with Gc.space_overhead = 20 };
  let w = if o.o_smoke then Cells.smoke w else w in
  let st = setup w o ~index:0 in
  Option.iter rm_rf st.s_cache_dir;
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* runs this executable with [args], waits for it, returns its stdout *)
let self_exec args =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  let fail how = failwith (String.concat " " ("perf.exe" :: args) ^ ": " ^ how) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> out
  | Unix.WEXITED n -> fail (Printf.sprintf "exited with %d" n)
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> fail (Printf.sprintf "signal %d" n)

let memory_probe w o =
  float_of_string
    (String.trim
       (self_exec
          ([ "memory"; "--workload"; w.w_name; "--work-dir"; o.o_work_dir ]
          @ if o.o_smoke then [ "--smoke" ] else [])))

let run w o =
  quiet := o.o_smoke;
  let w = if o.o_smoke then Cells.smoke w else w in
  let setups = if o.o_smoke then 1 else 3 in
  let st = ref None and setup_walls = ref [] in
  for index = 0 to setups - 1 do
    (* drop the previous set-up's state and cache, and collect its heap,
       so every set-up starts alike *)
    Option.iter (fun s -> Option.iter rm_rf s.s_cache_dir) !st;
    st := None;
    Gc.compact ();
    let s = setup w o ~index in
    log "%s: set-up %d took %.2fs" w.w_name (index + 1) s.s_wall;
    setup_walls := s.s_wall :: !setup_walls;
    st := Some s
  done;
  let st = Option.get !st in
  let live = live_cells st w.w_cells in
  (* a fixed number of timed passes, so two builds do the same work *)
  let reps =
    if o.o_smoke then 1
    else
      max 3
        (int_of_float
           (Float.round (float_of_int w.w_reps *. o.o_seconds /. 10.0)))
  in
  Gc.compact ();
  let attempted = ref 0 and failed = ref 0 in
  let tally cell r =
    incr attempted;
    match Result.bind r (check st cell) with
    | Ok () -> ()
    | Error reason ->
        incr failed;
        if not (List.mem_assoc cell.c_id st.s_failed) then
          st.s_failed <- (cell.c_id, reason) :: st.s_failed
  in
  let passes =
    List.init reps (fun i ->
        run_pass w st ?cache:(fresh_cache st) ~on_result:tally
          (shuffle o.o_seed (i + 1) live))
  in
  log "%s: %d timed passes over %d cells" w.w_name reps (List.length live);
  (* a cell failing in set-up is one failed attempt; a miscompiled cell
     failed every pass it was timed in *)
  let setup_failed = List.length w.w_cells - List.length live in
  attempted := !attempted + setup_failed;
  failed := !failed + setup_failed;
  (match w.w_kind with
  | Execute -> ()
  | Compile | Warm ->
      let before = live_cells st live in
      let memo =
        if o.o_smoke then None
        else Some (memo_dir (Filename.concat o.o_work_dir "_verified"))
      in
      verify_refs st ~memo before;
      failed :=
        !failed + (reps * (List.length before - List.length (live_cells st before))));
  let refs =
    List.filter_map
      (fun c -> Hashtbl.find_opt st.s_refs c.c_id)
      (live_cells st live)
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 refs in
  let cycles = sum (fun r -> r.r_cycles) in
  let instructions = sum (fun r -> r.r_instructions) in
  let layers =
    if not o.o_trace then []
    else begin
      (* start from the heap state the timed passes started from *)
      Gc.compact ();
      let tr = Trace.create () in
      let outcomes = ref [] in
      ignore
        (run_pass w st ?cache:(fresh_cache st) ~trace:tr
           (shuffle o.o_seed (reps + 1) live)
           ~on_result:(fun cell r ->
             tally cell r;
             Result.iter (fun o -> outcomes := o :: !outcomes) r));
      let dir = Filename.concat o.o_work_dir "_trace" in
      mkdir_p dir;
      Json.write_file
        (Filename.concat dir (w.w_name ^ ".json"))
        (Trace.to_chrome tr);
      Layers.values
        {
          Layers.kind = w.w_kind;
          parse_s = st.s_parse;
          build_s = st.s_build;
          lint_s = st.s_lint;
          cinterp_s = st.s_cinterp;
          disk_kb = st.s_disk_kb;
          trace = tr;
          reports =
            List.filter_map
              (function Compiled (_, r) -> Some r | Simulated _ -> None)
              !outcomes;
          src_bytes =
            (match w.w_kind with
            | Execute -> 0
            | Compile | Warm ->
                List.fold_left (fun a c -> a + String.length c.c_src) 0 live);
          sim_insts =
            List.fold_left
              (fun a -> function
                | Simulated s -> a + s.Sim.instructions | Compiled _ -> a)
              0 !outcomes;
          untraced_cpu =
            Metrics.median (List.map (pass_sum (fun s -> s.c_cpu)) passes);
          gc = List.map (fun p -> (p.p_minor, p.p_major)) passes;
          probe =
            (match w.w_kind with
            | Execute -> None
            | Compile | Warm -> Some (run_probes w st live));
          instructions;
          cycles;
        }
    end
  in
  let quarantine = recheck_known_bugs w st in
  Option.iter rm_rf st.s_cache_dir;
  let peak_heap_mb = memory_probe w o in
  let still_failing =
    List.filter (fun (_, _, obs) -> obs <> "passes") quarantine
  in
  let fail_ratio =
    float_of_int (List.length st.s_failed + List.length still_failing)
    /. float_of_int (List.length w.w_cells + List.length w.w_quarantine)
  in
  (* per metric: the run's value and the samples it summarises. A pass
     timing is the fastest of the fixed reps (noise on a shared host only
     adds time); the tail takes each cell at its fastest rep *)
  let cell_min_ms = Hashtbl.create 64 in
  List.iter
    (fun p ->
      List.iter
        (fun s ->
          let ms = s.c_cpu *. 1000.0 in
          match Hashtbl.find_opt cell_min_ms s.cell.c_id with
          | Some best when best <= ms -> ()
          | _ -> Hashtbl.replace cell_min_ms s.cell.c_id ms)
        p.p_samples)
    passes;
  let summarised f samples = (f samples, samples) in
  let fastest = List.fold_left Float.min infinity in
  let exact v = (v, [ v ]) in
  let per_pass f = List.map (pass_sum f) passes in
  let e2e =
    [
      ("pass_cpu_s", summarised fastest (per_pass (fun s -> s.c_cpu)));
      ("pass_wall_s", summarised fastest (per_pass (fun s -> s.c_wall)));
      ( "cell_cpu_ms_p90",
        summarised (Metrics.quantile 0.9)
          (Hashtbl.fold (fun _ ms acc -> ms :: acc) cell_min_ms []) );
      ("setup_s", summarised Metrics.median (List.rev !setup_walls));
      ( "alloc_mb",
        summarised Metrics.median (per_pass (fun s -> s.c_alloc /. 1e6)) );
      ("peak_heap_mb", exact peak_heap_mb);
      ("sim_cycles", exact (float_of_int cycles));
      ("code_insts", exact (float_of_int (sum (fun r -> r.r_insts))));
      ("fail_ratio", exact fail_ratio);
    ]
  in
  let str s = Json.String s in
  Json.Obj
    [
      ("workload", str w.w_name);
      ("why", str w.w_why);
      ("seed", Json.Int o.o_seed);
      ("cells", Json.Int (List.length w.w_cells));
      ("passes", Json.Int reps);
      ("attempted", Json.Int !attempted);
      ("failed", Json.Int !failed);
      ( "failures",
        Json.List
          (List.rev_map
             (fun (c, r) -> Json.Obj [ ("cell", str c); ("reason", str r) ])
             st.s_failed) );
      ( "quarantine",
        Json.List
          (List.map
             (fun (c, bug, obs) ->
               Json.Obj
                 [ ("cell", str c); ("bug", str bug); ("observed", str obs) ])
             quarantine) );
      ( "metrics",
        Json.Obj
          (List.map
             (fun (m : Metrics.e2e) ->
               let value, samples = List.assoc m.Metrics.m_name e2e in
               ( m.Metrics.m_name,
                 Json.Obj
                   [
                     ("unit", str m.Metrics.m_unit);
                     ("value", Json.Float value);
                     ( "samples",
                       Json.List (List.map (fun x -> Json.Float x) samples) );
                   ] ))
             Metrics.e2e) );
      ( "layers",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("unit", str unit); ("value", Json.Float v) ]))
             layers) );
    ]
