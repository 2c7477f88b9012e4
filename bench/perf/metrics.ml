(* Metric definitions shared by the runner, the BENCH file and the
   comparator, plus the order statistics they are summarised with.
   BENCHMARK.json at the repository root mirrors [e2e] (minus
   fail_ratio, which is zero once the known bugs are fixed) and [layers]. *)

type e2e = {
  m_name : string;
  m_unit : string;
  m_bound : float;  (* worsening (share of the old median) allowed *)
  m_exact : bool;  (* deterministic: compared exactly *)
}

let e2e =
  [
    { m_name = "pass_cpu_s"; m_unit = "s"; m_bound = 0.24; m_exact = false };
    { m_name = "pass_wall_s"; m_unit = "s"; m_bound = 0.24; m_exact = false };
    { m_name = "cell_cpu_ms_p90"; m_unit = "ms"; m_bound = 0.24; m_exact = false };
    { m_name = "setup_s"; m_unit = "s"; m_bound = 0.25; m_exact = false };
    { m_name = "alloc_mb"; m_unit = "MB"; m_bound = 0.02; m_exact = false };
    { m_name = "peak_heap_mb"; m_unit = "MB"; m_bound = 0.10; m_exact = false };
    { m_name = "sim_cycles"; m_unit = "cycles"; m_bound = 0.0; m_exact = true };
    { m_name = "code_insts"; m_unit = "insts"; m_bound = 0.01; m_exact = false };
    { m_name = "fail_ratio"; m_unit = "ratio"; m_bound = 0.0; m_exact = true };
  ]

(* every e2e metric is lower-is-better. A single-workload run's summary
   line (and BENCHMARK.json) leaves out fail_ratio, which reads 0 once
   the known bugs are fixed *)
let in_summary_line m = m.m_name <> "fail_ratio"

type layer = {
  l_name : string;
  l_unit : string;
  l_exact : bool;
      (* a deterministic counter; GC counts move with collection timing
         and are compared like timings *)
}

let layer ?(exact = false) l_name l_unit = { l_name; l_unit; l_exact = exact }

let layers =
  [
    layer "maril.parse_ms" "ms";
    layer "machine.build_ms" "ms";
    layer "check.lint_ms" "ms";
    layer "check.verify_cpu_s" "s";
    layer "transval.cpu_s" "s";
    layer "cfront.cpu_s" "s";
    layer "cfront.kb_per_s" "KB/s";
    layer "glue.cpu_s" "s";
    layer "select.cpu_s" "s";
    layer ~exact:true "select.insts" "insts";
    layer "frame.cpu_s" "s";
    layer "regalloc.cpu_s" "s";
    layer ~exact:true "regalloc.spills" "count";
    layer "sched.sweep_cpu_s" "s";
    layer "sched.sweep_dag_cpu_s" "s";
    layer "sched.schedule_cpu_s" "s";
    layer "sched.estimate_cpu_s" "s";
    layer ~exact:true "sched.passes" "count";
    layer ~exact:true "sched.dag_edges" "count";
    layer ~exact:true "timing.sb_probes" "count";
    layer ~exact:true "timing.sb_conflict_ratio" "ratio";
    layer "analysis.cpu_s" "s";
    layer ~exact:true "analysis.iters" "count";
    layer ~exact:true "analysis.queries" "count";
    layer ~exact:true "analysis.pruned" "count";
    layer "strategy.other_cpu_s" "s";
    layer "cache.digest_cpu_s" "s";
    layer "cache.thaw_cpu_s" "s";
    layer ~exact:true "cache.hit_ratio" "ratio";
    layer "cache.disk_kb" "KB";
    layer "sim.cpu_s" "s";
    layer "sim.minsts_per_s" "Minst/s";
    layer ~exact:true "sim.instructions" "insts";
    layer ~exact:true "sim.ipc" "inst/cycle";
    layer "cinterp.cpu_s" "s";
    layer "gc.minor_collections" "count";
    layer "gc.major_collections" "count";
    layer "trace.overhead_pct" "%";
    layer "trace.coverage_pct" "%";
  ]

(* per-layer rows of [compare] flag timings that move by more than this;
   they never gate *)
let layer_threshold = 0.15

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted l = List.sort compare l |> Array.of_list

(* linear interpolation at 1-based position q(n+1), clamped to the data:
   the "exclusive" method of Python's statistics.quantiles *)
let quantile q l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else
    let p = q *. float_of_int (n + 1) in
    let p = Float.min (Float.max p 1.0) (float_of_int n) in
    let i = truncate p in
    let frac = p -. float_of_int i in
    if i >= n then a.(n - 1) else a.(i - 1) +. (frac *. (a.(i) -. a.(i - 1)))

let median l = quantile 0.5 l

type summary = { median : float; p25 : float; p75 : float; n : int }

let summarize samples =
  {
    median = median samples;
    p25 = quantile 0.25 samples;
    p75 = quantile 0.75 samples;
    n = List.length samples;
  }

(* interquartile range as a share of the median *)
let spread s = if s.median = 0.0 then 0.0 else (s.p75 -. s.p25) /. Float.abs s.median
