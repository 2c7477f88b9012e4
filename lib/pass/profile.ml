type entry = {
  e_name : string;
  mutable e_wall : float;
  mutable e_cpu : float;
  mutable e_runs : int;
}

type t = {
  p_strategy : string;
  p_jobs : int;
  mutable p_funcs : int;
  mutable p_blocks : int;
  mutable p_insts : int;
  mutable p_spilled : int;
  mutable p_schedule_passes : int;
  mutable p_sb_probes : int;
  mutable p_sb_conflicts : int;
  mutable p_sb_reserves : int;
  mutable p_an_time : float;
  mutable p_an_solves : int;
  mutable p_an_iters : int;
  mutable p_an_facts : int;
  mutable p_an_queries : int;
  mutable p_an_pruned : int;
  mutable p_wall : float;
  mutable p_cpu : float;
  mutable p_entries : entry list;
  mutable p_cache_used : bool;
  mutable p_cache_hits : int;
  mutable p_cache_misses : int;
  mutable p_cache_evictions : int;
  mutable p_cache_stale : int;
  mutable p_faults : int;
  mutable p_degraded : int;
  mutable p_skipped : int;
}

let create ?(jobs = 1) ~strategy () =
  {
    p_strategy = strategy;
    p_jobs = jobs;
    p_funcs = 0;
    p_blocks = 0;
    p_insts = 0;
    p_spilled = 0;
    p_schedule_passes = 0;
    p_sb_probes = 0;
    p_sb_conflicts = 0;
    p_sb_reserves = 0;
    p_an_time = 0.0;
    p_an_solves = 0;
    p_an_iters = 0;
    p_an_facts = 0;
    p_an_queries = 0;
    p_an_pruned = 0;
    p_wall = 0.0;
    p_cpu = 0.0;
    p_entries = [];
    p_cache_used = false;
    p_cache_hits = 0;
    p_cache_misses = 0;
    p_cache_evictions = 0;
    p_cache_stale = 0;
    p_faults = 0;
    p_degraded = 0;
    p_skipped = 0;
  }

(* The entry list stays in first-recorded order: a compile records in
   pipeline order and units are merged in program order, so the order is
   deterministic. Profiles hold ~a dozen entries; linear search is fine. *)
let add ?(cpu = 0.0) t name secs =
  match List.find_opt (fun e -> e.e_name = name) t.p_entries with
  | Some e ->
      e.e_wall <- e.e_wall +. secs;
      e.e_cpu <- e.e_cpu +. cpu;
      e.e_runs <- e.e_runs + 1
  | None ->
      t.p_entries <-
        t.p_entries
        @ [ { e_name = name; e_wall = secs; e_cpu = cpu; e_runs = 1 } ]

let entries t = t.p_entries

let passes_wall t =
  List.fold_left (fun acc e -> acc +. e.e_wall) 0.0 t.p_entries

let to_text t =
  let buf = Buffer.create 512 in
  Printf.bprintf buf "# pass profile: strategy=%s jobs=%d\n" t.p_strategy
    t.p_jobs;
  Printf.bprintf buf
    "#   funcs=%d blocks=%d insts=%d spilled=%d schedule-passes=%d\n"
    t.p_funcs t.p_blocks t.p_insts t.p_spilled t.p_schedule_passes;
  if t.p_sb_probes > 0 then
    Printf.bprintf buf
      "#   scoreboard: probes=%d conflicts=%d reserves=%d\n" t.p_sb_probes
      t.p_sb_conflicts t.p_sb_reserves;
  if t.p_an_solves > 0 || t.p_an_queries > 0 then
    Printf.bprintf buf
      "#   analysis: time=%.6fs solves=%d iters=%d facts=%d queries=%d \
       pruned=%d\n"
      t.p_an_time t.p_an_solves t.p_an_iters t.p_an_facts t.p_an_queries
      t.p_an_pruned;
  if t.p_cache_used then
    Printf.bprintf buf
      "#   cache: hits=%d misses=%d evictions=%d stale=%d\n" t.p_cache_hits
      t.p_cache_misses t.p_cache_evictions t.p_cache_stale;
  if t.p_faults > 0 || t.p_degraded > 0 || t.p_skipped > 0 then
    Printf.bprintf buf "#   robust: faults=%d degraded=%d skipped=%d\n"
      t.p_faults t.p_degraded t.p_skipped;
  List.iter
    (fun e ->
      Printf.bprintf buf "#   %-24s %9.6fs  (cpu %9.6fs)  x%d\n" e.e_name
        e.e_wall e.e_cpu e.e_runs)
    t.p_entries;
  Printf.bprintf buf "#   %-24s %9.6fs  (wall %.6fs, cpu %.6fs)\n"
    "total of passes" (passes_wall t) t.p_wall t.p_cpu;
  Buffer.contents buf

let to_json t =
  let field name v = Printf.sprintf "\"%s\":%s" name v in
  let str s = Printf.sprintf "\"%s\"" (Diag.json_escape s) in
  let num f = Printf.sprintf "%.9f" f in
  let pass e =
    "{"
    ^ String.concat ","
        [
          field "name" (str e.e_name);
          field "wall_s" (num e.e_wall);
          field "cpu_s" (num e.e_cpu);
          field "runs" (string_of_int e.e_runs);
        ]
    ^ "}"
  in
  let analysis =
    "{"
    ^ String.concat ","
        [
          field "time_s" (num t.p_an_time);
          field "solves" (string_of_int t.p_an_solves);
          field "iterations" (string_of_int t.p_an_iters);
          field "facts" (string_of_int t.p_an_facts);
          field "queries" (string_of_int t.p_an_queries);
          field "pruned" (string_of_int t.p_an_pruned);
        ]
    ^ "}"
  in
  let cache =
    "{"
    ^ String.concat ","
        [
          field "used" (if t.p_cache_used then "true" else "false");
          field "hits" (string_of_int t.p_cache_hits);
          field "misses" (string_of_int t.p_cache_misses);
          field "evictions" (string_of_int t.p_cache_evictions);
          field "stale" (string_of_int t.p_cache_stale);
        ]
    ^ "}"
  in
  "{"
  ^ String.concat ","
      [
        field "strategy" (str t.p_strategy);
        field "jobs" (string_of_int t.p_jobs);
        field "funcs" (string_of_int t.p_funcs);
        field "blocks" (string_of_int t.p_blocks);
        field "insts" (string_of_int t.p_insts);
        field "spilled" (string_of_int t.p_spilled);
        field "schedule_passes" (string_of_int t.p_schedule_passes);
        field "sb_probes" (string_of_int t.p_sb_probes);
        field "sb_conflicts" (string_of_int t.p_sb_conflicts);
        field "sb_reserves" (string_of_int t.p_sb_reserves);
        field "faults" (string_of_int t.p_faults);
        field "degraded" (string_of_int t.p_degraded);
        field "skipped" (string_of_int t.p_skipped);
        field "wall_s" (num t.p_wall);
        field "cpu_s" (num t.p_cpu);
        field "analysis" analysis;
        field "cache" cache;
        field "passes"
          ("[" ^ String.concat "," (List.map pass t.p_entries) ^ "]");
      ]
  ^ "}"
