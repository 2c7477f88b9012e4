(* The performance harness: compile time, generated-code cycles and
   simulator speed on four fixed workloads, each run in its own child
   process, with a traced per-layer breakdown and a BENCH_*.json
   comparator. See bench/perf/README.md.

     dune exec bench/perf/perf.exe -- run            all four workloads
     dune exec bench/perf/perf.exe -- run --workload rase-livermore --trace 0
     dune exec bench/perf/perf.exe -- compare OLD.json NEW.json *)

let usage =
  "usage: perf.exe run [--workload NAME]... [--seed N] [--seconds S]\n\
  \                    [--trace 0|1] [--label L] [--append] [--smoke]\n\
  \                    [--work-dir DIR]\n\
  \       perf.exe compare OLD NEW   (FILE pools its runs, FILE@N is run N)"

type args = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable label : string option;
  mutable append : bool;
  mutable smoke : bool;
  mutable work_dir : string;
}

let parse_args argv =
  let a =
    {
      workloads = []; seed = 1; seconds = 10.0; trace = true; label = None;
      append = false; smoke = false; work_dir = "bench/perf";
    }
  in
  let specs =
    [
      ( "--workload",
        Arg.String (fun w -> a.workloads <- a.workloads @ [ w ]),
        "NAME run one workload (repeatable; default all four)" );
      ( "--seed",
        Arg.Int (fun n -> a.seed <- n),
        "N shuffles the cell order of every timed pass (default 1)" );
      ( "--seconds",
        Arg.Float (fun s -> a.seconds <- s),
        "S time budget the pass counts are sized for (default 10)" );
      ( "--trace",
        Arg.Int (fun t -> a.trace <- t <> 0),
        "0|1 add the traced pass and per-layer metrics (default 1)" );
      ( "--label",
        Arg.String (fun l -> a.label <- Some l),
        "L write <work-dir>/BENCH_<L>.json" );
      ( "--append",
        Arg.Unit (fun () -> a.append <- true),
        " add this run to an existing BENCH file" );
      ( "--smoke",
        Arg.Unit (fun () -> a.smoke <- true),
        " one set-up, one pass, two cells per workload" );
      ( "--work-dir",
        Arg.String (fun d -> a.work_dir <- d),
        "DIR for BENCH files, _trace/, _cache/ and _verified/" );
    ]
  in
  Arg.parse_argv ~current:(ref 0) argv specs
    (fun x -> raise (Arg.Bad ("unexpected argument " ^ x)))
    usage;
  a

(* ------------------------------------------------------------------ *)
(* Parent: one child process per workload                              *)
(* ------------------------------------------------------------------ *)

let run_child a (w : Cells.workload) =
  Json.of_string
    (Child.self_exec
       ([
          "child"; "--workload"; w.Cells.w_name; "--seed"; string_of_int a.seed;
          "--seconds"; Printf.sprintf "%g" a.seconds; "--trace";
          (if a.trace then "1" else "0"); "--work-dir"; a.work_dir;
        ]
       @ if a.smoke then [ "--smoke" ] else []))

let host () =
  let git_rev =
    try
      let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
      let rev = String.trim (In_channel.input_all ic) in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when rev <> "" -> rev
      | _ -> "unknown"
    with Unix.Unix_error _ -> "unknown"
  in
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ("os", Json.String Sys.os_type);
      ("git_rev", Json.String git_rev);
    ]

let print_workload a doc =
  let int k = Json.to_int (Json.member k doc) in
  let name = Json.to_str (Json.member "workload" doc) in
  Printf.printf "\n== %s: %d cells, %d timed passes, %d attempted, %d failed\n"
    name (int "cells") (int "passes") (int "attempted") (int "failed");
  List.iter
    (fun (m : Metrics.e2e) ->
      let v = List.hd (Compare.values [ doc ] m.Metrics.m_name) in
      let s = Metrics.summarize (Compare.samples doc m.Metrics.m_name) in
      Printf.printf
        "  %-16s %16.6f %-6s  samples: median %.6g p25 %.6g p75 %.6g n=%d\n"
        m.Metrics.m_name v m.Metrics.m_unit s.median s.p25 s.p75 s.n)
    Metrics.e2e;
  List.iter
    (fun (c, r) -> Printf.printf "  failing %s: %s\n" c r)
    (Compare.failing [ doc ]);
  match Json.to_obj (Json.member "layers" doc) with
  | [] -> ()
  | layers ->
      Printf.printf "  per-layer (traced pass, spans in %s/_trace/%s.json):\n"
        a.work_dir name;
      List.iter
        (fun (k, v) ->
          Printf.printf "    %-26s %16.6f %s\n" k
            (Json.to_float (Json.member "value" v))
            (Json.to_str (Json.member "unit" v)))
        layers

(* the last stdout line of a single-workload run: BENCHMARK.json's
   end-to-end metrics, or with --trace 1 its per-layer metrics *)
let summary_line ~trace doc =
  let metric name unit value =
    (name, Json.Obj [ ("value", value); ("unit", Json.String unit) ])
  in
  let metrics =
    if trace then
      List.map
        (fun (k, v) ->
          metric k (Json.to_str (Json.member "unit" v)) (Json.member "value" v))
        (Json.to_obj (Json.member "layers" doc))
    else
      List.filter_map
        (fun (m : Metrics.e2e) ->
          if not (Metrics.in_summary_line m) then None
          else
            Some
              (metric m.Metrics.m_name m.Metrics.m_unit
                 (Json.path doc [ "metrics"; m.Metrics.m_name; "value" ])))
        Metrics.e2e
  in
  let failed = Json.to_int (Json.member "failed" doc) in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (failed = 0));
         ("attempted", Json.member "attempted" doc);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj metrics);
       ])

let write_bench a label docs =
  let path = Filename.concat a.work_dir ("BENCH_" ^ label ^ ".json") in
  let earlier =
    if a.append && Sys.file_exists path then begin
      let doc = Json.read_file path in
      Compare.check_file doc;
      Json.to_list (Json.member "runs" doc)
    end
    else []
  in
  let this_run =
    Json.Obj
      [
        ("seed", Json.Int a.seed);
        ("seconds", Json.Float a.seconds);
        ("smoke", Json.Bool a.smoke);
        ("trace", Json.Bool a.trace);
        ("host", host ());
        ("workloads", Json.List docs);
      ]
  in
  Json.write_file path
    (Json.Obj
       [
         ("schema", Json.String Compare.schema);
         ("label", Json.String label);
         ("runs", Json.List (earlier @ [ this_run ]));
       ]);
  Printf.printf "\nwrote %s (%d run(s))\n" path (List.length earlier + 1)

let run a =
  let selected =
    match a.workloads with
    | [] -> Cells.workloads
    | names ->
        List.map
          (fun n ->
            match Cells.find n with
            | Some w -> w
            | None -> raise (Arg.Bad ("unknown workload " ^ n)))
          names
  in
  let docs = List.map (run_child a) selected in
  List.iter (print_workload a) docs;
  (match (a.label, a.workloads) with
  | Some l, _ -> write_bench a l docs
  | None, [] -> write_bench a (if a.smoke then "smoke" else "local") docs
  | None, _ -> ());
  (match docs with
  | [ doc ] -> print_endline (summary_line ~trace:a.trace doc)
  | _ -> ());
  if List.for_all (fun d -> Json.to_int (Json.member "failed" d) = 0) docs
  then 0
  else 1

(* the two internal subcommands a workload's processes run *)
let internal a f =
  match a.workloads with
  | [ name ] ->
      print_string
        (f
           (Option.get (Cells.find name))
           {
             Child.o_seed = a.seed;
             o_seconds = a.seconds;
             o_trace = a.trace;
             o_smoke = a.smoke;
             o_work_dir = a.work_dir;
           });
      0
  | _ -> raise (Arg.Bad "exactly one --workload expected")

let child a = internal a (fun w o -> Json.to_string (Child.run w o))

let memory a = internal a (fun w o -> Printf.sprintf "%.17g" (Child.memory w o))

let () =
  let rest = Array.sub Sys.argv 1 (max 0 (Array.length Sys.argv - 1)) in
  let code =
    try
      match Array.to_list rest with
      | "run" :: _ -> run (parse_args rest)
      | "child" :: _ -> child (parse_args rest)
      | "memory" :: _ -> memory (parse_args rest)
      | [ "compare"; old_spec; new_spec ] -> Compare.run old_spec new_spec
      | _ ->
          prerr_endline usage;
          2
    with
    | Arg.Bad msg | Arg.Help msg ->
        prerr_endline msg;
        2
    | Json.Parse_error msg | Failure msg | Sys_error msg ->
        prerr_endline ("perf: " ^ msg);
        1
  in
  exit code
