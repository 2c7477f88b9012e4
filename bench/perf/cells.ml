(* The four benchmark workloads. A cell is one (program, target,
   strategy); a workload is a fixed list of cells plus the cells held out
   of it because a known compiler bug makes them fail. *)

type target = {
  t_name : string;
  t_desc : string;  (* the Maril description *)
  t_funcs : Model.t -> unit;  (* registers the target's *func escapes *)
}

let targets =
  [
    { t_name = Toyp.name; t_desc = Toyp.description; t_funcs = Toyp.register_funcs };
    { t_name = R2000.name; t_desc = R2000.description;
      t_funcs = R2000.register_funcs };
    { t_name = M88000.name; t_desc = M88000.description;
      t_funcs = M88000.register_funcs };
    { t_name = I860.name; t_desc = I860.description; t_funcs = I860.register_funcs };
  ]

type cell = {
  c_id : string;  (* "<strategy>/<target>/<program>" *)
  c_target : string;
  c_strategy : Strategy.name;
  c_file : string;
  c_src : string;
}

type kind =
  | Compile  (* timed: front end + Strategy.compile, no cache *)
  | Warm  (* timed: the same against a warm on-disk cache *)
  | Execute  (* timed: Sim.run of code compiled in set-up *)

type workload = {
  w_name : string;
  w_why : string;
  w_kind : kind;
  w_reps : int;  (* timed passes at --seconds 10: 5-18 s on a 2-core host *)
  w_cells : cell list;
  w_quarantine : (cell * string) list;  (* held-out cell, the known bug *)
}

(* Cells that fail at this revision, with the bug that makes them fail.
   They are kept out of the timed passes, so every timed operation is
   expected to succeed, and re-run once per invocation so a fix shows as
   a lower fail_ratio. [None] matches every strategy. *)
let known_bugs =
  [
    ( "m88000", None, "lfk14",
      "no-select: no m88000 branch pattern for an f64 compare" );
    ( "toyp", Some Strategy.Ips, "poly",
      "regalloc: a spill temporary cannot be colored" );
    ( "r2000", Some Strategy.Ips, "lfk9",
      "miscompile: prints 186.769960, the interpreter 186.770000" );
    ( "m88000", Some Strategy.Ips, "lfk9",
      "miscompile: prints 186.769971, the interpreter 186.770000" );
  ]

let known_bug c =
  List.find_map
    (fun (t, s, f, why) ->
      if
        t = c.c_target && f = c.c_file
        && (match s with None -> true | Some s -> s = c.c_strategy)
      then Some why
      else None)
    known_bugs

let livermore = Livermore.sources ()

let suite_non_livermore =
  List.filter
    (fun (f, _) -> not (String.starts_with ~prefix:"lfk" f))
    Suite.programs

(* program-major order; each pass shuffles it *)
let matrix programs strategies =
  List.concat_map
    (fun (file, src) ->
      List.concat_map
        (fun t ->
          List.map
            (fun s ->
              {
                c_id =
                  Printf.sprintf "%s/%s/%s" (Strategy.to_string s) t.t_name
                    file;
                c_target = t.t_name;
                c_strategy = s;
                c_file = file;
                c_src = src;
              })
            strategies)
        targets)
    programs

let make name why kind reps cells =
  let bad, good = List.partition (fun c -> known_bug c <> None) cells in
  {
    w_name = name;
    w_why = why;
    w_kind = kind;
    w_reps = reps;
    w_cells = good;
    w_quarantine = List.map (fun c -> (c, Option.get (known_bug c))) bad;
  }

let workloads =
  [
    make "rase-livermore"
      "RASE, the costliest strategy, on the paper's Table 4 kernels x 4 \
       targets: the scheduler and allocator do almost all the work"
      Compile 5
      (matrix livermore [ Strategy.Rase ]);
    make "suite-postpass-ips"
      "multi-function integer, byte and recursive code under Postpass \
       and IPS: allocation-heavy with no budget sweep, the control for \
       scheduler changes"
      Compile 30
      (matrix Suite.programs [ Strategy.Postpass; Strategy.Ips ]);
    make "warm-rebuild"
      "rebuild against a warm on-disk cache: only the front end, glue, \
       cache digests and cache thaw run, so pipeline changes must not \
       move it"
      Warm 40
      (matrix
         (livermore @ suite_non_livermore)
         [ Strategy.Naive; Strategy.Postpass; Strategy.Ips ]);
    make "execute-livermore"
      "simulate IPS code of the Livermore kernels x 4 targets: the \
       pipeline simulator does all the timed work"
      Execute 5
      (matrix livermore [ Strategy.Ips ]);
  ]

let find name = List.find_opt (fun w -> w.w_name = name) workloads

(* --smoke keeps two cheap cells per workload *)
let smoke w =
  let cheap = [ "lfk1"; "lfk13"; "strings"; "recursion" ] in
  {
    w with
    w_cells =
      List.filteri
        (fun i _ -> i < 2)
        (List.filter (fun c -> List.mem c.c_file cheap) w.w_cells);
    w_quarantine = [];
  }
