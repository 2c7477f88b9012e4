(* Per-layer metrics of the traced pass: self times of the spans grouped
   by layer, the compile reports' deterministic counters, and the
   set-up's own layer timings. Layer names follow the lib/ modules. *)

(* the layer a Strategy.compile Profile entry belongs to; unknown (new)
   pass names fall to the driver's "strategy" layer *)
let of_entry = function
  | "lint" -> "check"
  | "glue" -> "glue"
  | "select" -> "select"
  | "frame-layout" -> "frame"
  | "allocate" | "allocate-local" -> "regalloc"
  | "rase-sweep" -> "sched.sweep"
  | "ips-prepass" | "rase-prepass" | "schedule" | "fill-delay" ->
      "sched.schedule"
  | "estimate" | "estimate-inorder" -> "sched.estimate"
  | "cached" -> "cache.thaw"
  | n when String.starts_with ~prefix:"verify:" n -> "check"
  | n when String.starts_with ~prefix:"validate:" n -> "transval"
  | _ -> "strategy"

(* measured after the traced pass, outside every timed region, over the
   cells a compile workload compiles *)
type probe = {
  mutable digest_cpu : float;  (* Ckey.of_ir_func over post-glue IL *)
  mutable select_insts : int;  (* instructions right after selection *)
  mutable dag_edges : int;  (* conservative DAG over the selected code *)
  mutable sweep_dag_cpu : float;
      (* Dag.build + max_dist_to_leaf once per RASE budget per block: what
         the budget sweep spends rebuilding DAGs of unchanged blocks *)
}

type inputs = {
  kind : Cells.kind;
  parse_s : float;  (* set-up, CPU over the four targets *)
  build_s : float;
  lint_s : float;
  cinterp_s : float;
  disk_kb : float;
  trace : Trace.t;  (* the traced pass *)
  reports : Strategy.report list;  (* its compile reports *)
  src_bytes : int;  (* C source it compiled *)
  sim_insts : int;  (* instructions it simulated *)
  untraced_cpu : float;  (* median untraced pass CPU *)
  gc : (int * int) list;  (* minor, major collections per untraced pass *)
  probe : probe option;
  instructions : int;  (* simulated by the workload's verified programs *)
  cycles : int;
}

let values i =
  let self = Trace.self_by_layer i.trace in
  let traced_cpu = Trace.root_cpu i.trace in
  let ratio a b = if b = 0.0 then 0.0 else a /. b in
  let sum f =
    float_of_int (List.fold_left (fun a (r : Strategy.report) -> a + f r) 0 i.reports)
  in
  let prof f = sum (fun r -> f r.Strategy.profile) in
  let probe f = match i.probe with Some p -> f p | None -> 0.0 in
  let digest = probe (fun p -> p.digest_cpu) in
  (* the driver's own time; on a cached workload it includes the IL
     digests, which the probe prices separately *)
  let other =
    Float.max 0.0
      (self "strategy" -. if i.kind = Cells.Warm then digest else 0.0)
  in
  let hits = prof (fun p -> p.Profile.p_cache_hits) in
  let lookups = hits +. prof (fun p -> p.Profile.p_cache_misses) in
  let median_of f = Metrics.median (List.map (fun g -> float_of_int (f g)) i.gc) in
  let v =
    [
      ("maril.parse_ms", i.parse_s *. 1000.0);
      ("machine.build_ms", i.build_s *. 1000.0);
      ("check.lint_ms", i.lint_s *. 1000.0);
      ("check.verify_cpu_s", self "check");
      ("transval.cpu_s", self "transval");
      ("cfront.cpu_s", self "cfront");
      ("cfront.kb_per_s", ratio (float_of_int i.src_bytes /. 1024.0) (self "cfront"));
      ("glue.cpu_s", self "glue");
      ("select.cpu_s", self "select");
      ("select.insts", probe (fun p -> float_of_int p.select_insts));
      ("frame.cpu_s", self "frame");
      ("regalloc.cpu_s", self "regalloc");
      ("regalloc.spills", sum (fun r -> r.Strategy.spilled));
      ("sched.sweep_cpu_s", self "sched.sweep");
      ("sched.sweep_dag_cpu_s", probe (fun p -> p.sweep_dag_cpu));
      ("sched.schedule_cpu_s", self "sched.schedule");
      ("sched.estimate_cpu_s", self "sched.estimate");
      ("sched.passes", sum (fun r -> r.Strategy.schedule_passes));
      ("sched.dag_edges", probe (fun p -> float_of_int p.dag_edges));
      ("timing.sb_probes", prof (fun p -> p.Profile.p_sb_probes));
      ( "timing.sb_conflict_ratio",
        ratio
          (prof (fun p -> p.Profile.p_sb_conflicts))
          (prof (fun p -> p.Profile.p_sb_probes)) );
      ( "analysis.cpu_s",
        (* a cache hit replays the analysis time of the compile it came
           from; only count time spent in this pass *)
        List.fold_left
          (fun a (r : Strategy.report) ->
            let p = r.Strategy.profile in
            if p.Profile.p_cache_hits > 0 then a else a +. p.Profile.p_an_time)
          0.0 i.reports );
      ("analysis.iters", prof (fun p -> p.Profile.p_an_iters));
      ("analysis.queries", prof (fun p -> p.Profile.p_an_queries));
      ("analysis.pruned", prof (fun p -> p.Profile.p_an_pruned));
      ("strategy.other_cpu_s", other);
      ("cache.digest_cpu_s", digest);
      ("cache.thaw_cpu_s", self "cache.thaw");
      ("cache.hit_ratio", ratio hits lookups);
      ("cache.disk_kb", i.disk_kb);
      ("sim.cpu_s", self "sim");
      ("sim.minsts_per_s", ratio (float_of_int i.sim_insts /. 1e6) (self "sim"));
      ("sim.instructions", float_of_int i.instructions);
      ("sim.ipc", ratio (float_of_int i.instructions) (float_of_int i.cycles));
      ("cinterp.cpu_s", i.cinterp_s);
      ("gc.minor_collections", median_of fst);
      ("gc.major_collections", median_of snd);
      ( "trace.overhead_pct",
        100.0 *. ratio (traced_cpu -. i.untraced_cpu) i.untraced_cpu );
      (* every span's self time lands in a layer except the harness's
         own bookkeeping inside the per-cell root span *)
      ( "trace.coverage_pct",
        100.0 *. ratio (traced_cpu -. self "harness") traced_cpu );
    ]
  in
  List.map
    (fun (l : Metrics.layer) ->
      (l.Metrics.l_name, l.Metrics.l_unit, List.assoc l.Metrics.l_name v))
    Metrics.layers
