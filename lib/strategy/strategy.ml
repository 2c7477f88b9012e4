type name = Naive | Postpass | Ips | Rase

let all = [ Naive; Postpass; Ips; Rase ]

let to_string = function
  | Naive -> "naive"
  | Postpass -> "postpass"
  | Ips -> "ips"
  | Rase -> "rase"

let of_string = function
  | "naive" -> Some Naive
  | "postpass" -> Some Postpass
  | "ips" -> Some Ips
  | "rase" -> Some Rase
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Compile options and the fault isolation policy                      *)
(* ------------------------------------------------------------------ *)

type on_error = [ `Abort | `Degrade | `Skip ]

let on_error_name = function
  | `Abort -> "abort"
  | `Degrade -> "degrade"
  | `Skip -> "skip"

type options = {
  check : bool;
  validate : bool;
  disambig : bool;
  jobs : int;
  on_error : on_error;
  pass_timeout : float option;
  finject : Finject.plan;
}

let default =
  {
    check = true;
    validate = true;
    disambig = true;
    jobs = 1;
    on_error = `Abort;
    pass_timeout = None;
    finject = Finject.empty;
  }

(* the ladder lives in Degrade as strategy names; map it back *)
let degrade_next rung = Option.bind (Degrade.next (to_string rung)) of_string

type report = {
  strategy : name;
  spilled : int;
  block_estimates : (string, int) Hashtbl.t;
  schedule_passes : int;
  check_diags : Diag.t list;
  validate_diags : Diag.t list;
  faults : Degrade.event list;
  profile : Profile.t;
}

(* ------------------------------------------------------------------ *)
(* The pass vocabulary: every strategy is a phase ordering of these.   *)
(* ------------------------------------------------------------------ *)

let no_delay =
  { Listsched.default_options with Listsched.fill_delay = false }

let count_blocks (fn : Mir.func) = List.length fn.Mir.f_blocks

(* every scheduler invocation feeds one scoreboard-stats sink, folded
   into the pass stats so --time-passes can report probe/conflict rates *)
let with_sb_stats st f =
  let sb = Scoreboard.make_stats () in
  let r = f sb in
  st.Pass.sb_probes <- st.Pass.sb_probes + sb.Scoreboard.probes;
  st.Pass.sb_conflicts <- st.Pass.sb_conflicts + sb.Scoreboard.conflicts;
  st.Pass.sb_reserves <- st.Pass.sb_reserves + sb.Scoreboard.reserves;
  r

(* every scheduling-flavored pass body runs through here: with [disambig]
   it computes the memory-disambiguation oracle once from the pass's
   input state — the same snapshot Schedval captures, so the validator
   can rebuild an identical DAG — and folds analysis time and counters
   into the pass stats. Without it, [f None] is exactly the old path. *)
(* the analysis most recently computed by [with_oracle] on this domain,
   handed to the Schedval validator of the same pass so it need not solve
   again: the validator's [before] capture preserves instruction ids, so
   an analysis computed from the pass's input state applies verbatim.
   [compile_unit] clears it when capturing and consumes it at most once,
   so a validated pass that never computed an analysis (e.g. allocation)
   can never pick up a stale one. Domain-local because parallel compiles
   run whole functions on separate domains. *)
let analysis_stash : Disambig.t option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let with_oracle ~disambig st fn f =
  if not disambig then f None
  else begin
    let dstats = Dataflow.fresh_stats () in
    let t0 = Mclock.wall () in
    let d = Disambig.compute ~stats:dstats fn in
    Domain.DLS.get analysis_stash := Some d;
    st.Pass.an_time <- st.Pass.an_time +. (Mclock.wall () -. t0);
    st.Pass.an_solves <- st.Pass.an_solves + dstats.Dataflow.solves;
    st.Pass.an_iters <- st.Pass.an_iters + dstats.Dataflow.iterations;
    st.Pass.an_facts <- st.Pass.an_facts + dstats.Dataflow.facts;
    let o = Dag.oracle (Disambig.may_alias d) in
    let r = f (Some o) in
    st.Pass.an_queries <- st.Pass.an_queries + o.Dag.o_queries;
    st.Pass.an_pruned <- st.Pass.an_pruned + o.Dag.o_pruned;
    r
  end

let p_allocate =
  Pass.v ~post:Diag.Post_regalloc "allocate" (fun st fn ->
      let r = Regalloc.allocate fn in
      st.Pass.spilled <- st.Pass.spilled + r.Regalloc.spilled)

(* the naive baseline: local allocation only, every cross-block value
   spilled *)
let p_allocate_local =
  Pass.v ~post:Diag.Post_regalloc "allocate-local" (fun st fn ->
      let r = Regalloc.allocate ~forbid_global_pregs:true fn in
      st.Pass.spilled <- st.Pass.spilled + r.Regalloc.spilled)

let p_fill_delay =
  Pass.v ~post:Diag.Post_sched "fill-delay" (fun _ fn -> Delay.fill_func fn)

(* the final schedule; its block lengths are the Table 4 estimates. Used
   twice, as the code and as the estimate, it counts two schedules per
   block: the rule by which the RASE sweep counts budgets proven equal *)
let p_schedule ~disambig =
  Pass.v ~post:Diag.Post_sched "schedule" (fun st fn ->
      with_oracle ~disambig st fn (fun oracle ->
          List.iter
            (fun (label, len) -> Pass.record_estimate st label len)
            (with_sb_stats st (fun sb ->
                 Listsched.schedule_func ?oracle ~sb_stats:sb fn)));
      st.Pass.sched_passes <- st.Pass.sched_passes + (2 * count_blocks fn))

(* IPS prepass: schedule under a register-use limit so the allocator sees
   the schedule's register appetite; no post-condition — the output is
   rescheduled after allocation.

   Deliberately oracle-free, like every pre-allocation scheduling pass:
   pruning Mem edges here lets the prepass hoist loads across stores,
   stretching live ranges before the allocator runs. Measured on the
   Livermore corpus that freedom made allocation slower and spillier and
   cost cycles on the register-poorest target; the post-allocation
   schedule pass reorders through the oracle instead, where extra
   freedom cannot create spills. *)
let p_ips_prepass =
  Pass.v "ips-prepass" (fun st fn ->
      let options =
        { no_delay with Listsched.reg_limit = Listsched.Auto_minus 1 }
      in
      ignore
        (with_sb_stats st (fun sb ->
             Listsched.schedule_func ~options ~sb_stats:sb fn));
      st.Pass.sched_passes <- st.Pass.sched_passes + count_blocks fn)

(* the "estimate" of unscheduled (naive) code is its in-order issue span.
   NOTE: estimating naive code with the list scheduler slightly flatters
   it; the naive strategy is only a baseline *)
let p_estimate_inorder ~disambig =
  Pass.v "estimate-inorder" (fun st fn ->
      with_oracle ~disambig st fn (fun oracle ->
          List.iter
            (fun (label, len) -> Pass.record_estimate st label len)
            (with_sb_stats st (fun sb ->
                 Listsched.estimate_func ~options:no_delay ?oracle
                   ~sb_stats:sb fn)));
      st.Pass.sched_passes <- st.Pass.sched_passes + count_blocks fn)

(* The largest register budget worth exploring for RASE estimates. *)
let max_budget (model : Model.t) =
  Array.fold_left
    (fun acc (c : Model.rclass) ->
      max acc (List.length (Model.allocable_of_class model c.Model.c_id)))
    1 model.Model.classes

(* RASE's expensive half: gather schedule cost estimates under every
   register budget 1 .. [max_budget] ([Listsched.sweep], one DAG per
   block), keep the smallest budget with the minimum total estimated
   cost, and hand the prepass each block's schedule at that budget *)
(* oracle-free like [p_ips_prepass]: the sweep's schedules are the ones
   the (pre-allocation, hence conservative) rase-prepass writes back *)
let p_rase_sweep =
  Pass.v "rase-sweep" (fun st fn ->
      let budgets = max_budget fn.Mir.f_model in
      let cost_at = Array.make budgets 0 in
      let swept =
        with_sb_stats st (fun sb ->
            List.map
              (fun (b : Mir.block) ->
                let rs =
                  Listsched.sweep ~sb_stats:sb ~budgets fn b.Mir.b_insts
                in
                Array.iteri
                  (fun k (r : Listsched.result) ->
                    cost_at.(k) <- cost_at.(k) + r.Listsched.length)
                  rs;
                rs)
              fn.Mir.f_blocks)
      in
      (* one block estimate per budget, whether scheduled or proven equal *)
      st.Pass.sched_passes <- st.Pass.sched_passes + (budgets * count_blocks fn);
      let best = ref 0 in
      Array.iteri (fun k c -> if c < cost_at.(!best) then best := k) cost_at;
      st.Pass.orders <-
        List.map (fun rs -> rs.(!best).Listsched.order) swept)

(* the prepass under the chosen budget carries the schedule's register
   appetite to the allocator: it writes back the sweep's schedules, the
   ones [Listsched.schedule_func] would compute at that budget. It has no
   fallback: a fault in the sweep aborts the pipeline before it runs *)
let p_rase_prepass =
  Pass.v "rase-prepass" (fun st fn ->
      List.iter2
        (fun (b : Mir.block) order -> b.Mir.b_insts <- order)
        fn.Mir.f_blocks st.Pass.orders;
      st.Pass.orders <- [];
      st.Pass.sched_passes <- st.Pass.sched_passes + count_blocks fn)

let p_frame =
  Pass.v ~post:Diag.Final "frame-layout" (fun _ fn -> Frame.layout fn)

let pipeline ?(disambig = true) = function
  | Naive ->
      [
        p_allocate_local; p_fill_delay; p_estimate_inorder ~disambig;
        p_frame;
      ]
  | Postpass -> [ p_allocate; p_schedule ~disambig; p_frame ]
  | Ips -> [ p_ips_prepass; p_allocate; p_schedule ~disambig; p_frame ]
  | Rase ->
      [
        p_rase_sweep; p_rase_prepass; p_allocate; p_schedule ~disambig;
        p_frame;
      ]

(* The pipeline identity a cache entry is stored under. The record is
   destructured without [; _], so a new field is a build error (warning 9)
   until it is either hashed here or explicitly bound to [_] as not
   affecting any output. Pass names and flag order are part of the
   on-disk keys, so retired ones keep their place and existing keys stay
   valid: ["estimate"] after ["schedule"] (which now records the
   estimates), two [true]s for the verifier switches that now always run
   (definitely-assigned analysis, global-liveness warnings), a [false]
   for the deleted hazard-replay verifier level, and a [false] for the
   deleted DAG-statistics flag. *)
let pipeline_key
    {
      check;
      validate;
      disambig;
      jobs = _;
      on_error = _;
      pass_timeout = _;
      finject = _;
    } strategy =
  Ckey.of_pipeline ~strategy:(to_string strategy)
    ~passes:
      (List.concat_map
         (fun (p : Pass.t) ->
           if p.Pass.name = "schedule" then [ "schedule"; "estimate" ]
           else [ p.Pass.name ])
         (pipeline ~disambig strategy))
    ~flags:[ check; true; true; false; validate; false; disambig ]

(* ------------------------------------------------------------------ *)
(* Per-function compile units and the domain-parallel driver           *)
(* ------------------------------------------------------------------ *)

(* Everything one function's pipeline produced, self-contained so units
   can run on any domain and be merged deterministically in program
   order. [u_out] is exactly what the cache stores and replays. Pass
   times carry (wall seconds, this domain's CPU seconds) — see
   {!Mclock.thread_cpu}. *)
type unit_result = {
  u_out : Cache.payload;
  u_times : (string * float * float) list;  (* oldest-first *)
  u_events : Degrade.event list;  (* [] or one fault/degradation record *)
}

let count_insts (fn : Mir.func) =
  List.fold_left
    (fun acc (b : Mir.block) -> acc + List.length b.Mir.b_insts)
    0 fn.Mir.f_blocks

let compile_unit opts strategy (fn : Mir.func) =
  (* diagnostics and pass times are accumulated reversed (O(1) consing)
     and re-reversed once at the end *)
  let diags = ref [] in
  let vdiags = ref [] in
  let times = ref [] in
  let record pass ~wall ~cpu = times := (pass, wall, cpu) :: !times in
  let timed pass f =
    let t0 = Mclock.wall () and c0 = Mclock.thread_cpu () in
    let r = f () in
    let wall = Mclock.wall () -. t0 in
    record pass ~wall ~cpu:(Mclock.thread_cpu () -. c0);
    r
  in
  (* [verify phase fn] re-checks the invariants the phase just claimed to
     establish; errors abort the compile ({!Diag.Check_error}), warnings
     accumulate into the report. The identity when checking is off. *)
  let verify phase fn =
    if opts.check then begin
      let ds =
        timed
          ("verify:" ^ Diag.phase_name phase)
          (fun () -> Mircheck.check_func phase fn)
      in
      (match Diag.errors ds with
      | [] -> ()
      | errs -> raise (Diag.Check_error errs));
      diags := List.rev_append ds !diags
    end
  in
  (* [snapshot]/[validate] bracket every pass claiming a validated phase:
     capture an independent copy of the function before the pass, then run
     the phase's translation validator (Transval) on the (input, output)
     pair. Errors abort the compile like verifier errors do. *)
  let snapshot phase fn =
    if opts.validate && Transval.validated_phase phase then begin
      Domain.DLS.get analysis_stash := None;
      Some
        (timed
           ("validate:capture:" ^ Diag.phase_name phase)
           (fun () -> Transval.capture fn))
    end
    else None
  in
  let validate phase ~before fn =
    (* anything stashed was computed during this pass's body, i.e. from
       exactly the state [before] captures *)
    let analysis =
      let r = Domain.DLS.get analysis_stash in
      let d = !r in
      r := None;
      d
    in
    let ds =
      timed
        ("validate:" ^ Diag.phase_name phase)
        (fun () ->
          Transval.validate_func ~disambig:opts.disambig ?analysis phase
            ~before fn)
    in
    (match Diag.errors ds with
    | [] -> ()
    | errs -> raise (Diag.Check_error errs));
    vdiags := List.rev_append ds !vdiags
  in
  verify Diag.Post_select fn;
  (* the guard closes over this function's name and the rung being run *)
  let guard (p : Pass.t) body =
    Guard.protect ~fn:fn.Mir.f_name ~strategy:(to_string strategy)
      ~pass:p.Pass.name ?deadline_ms:opts.pass_timeout
      ?inject:(Finject.arm opts.finject ~pass:p.Pass.name ~fn:fn.Mir.f_name)
      body
  in
  let st =
    Pass.run_pipeline ~guard ~verify ~snapshot ~validate ~record
      (pipeline ~disambig:opts.disambig strategy)
      fn
  in
  {
    u_out =
      {
        Cache.c_func = fn;
        c_stats = st;
        c_diags = List.rev !diags;
        c_vdiags = List.rev !vdiags;
        c_insts = count_insts fn;
      };
    u_times = List.rev !times;
    u_events = [];
  }

(* ------------------------------------------------------------------ *)
(* The degradation ladder driver                                       *)
(* ------------------------------------------------------------------ *)

(* a pristine, fully independent copy of a function for ladder retries:
   Transval.capture copies blocks and instruction operand arrays, and the
   slot-offset table is copied on top — frame layout on one attempt must
   not leak offsets into another *)
let snapshot_func (fn : Mir.func) =
  {
    (Transval.capture fn) with
    Mir.f_slot_offsets = Hashtbl.copy fn.Mir.f_slot_offsets;
  }

(* a skipped function contributes its shape to the profile but no pass
   work: it is left at its pristine pre-pipeline state *)
let skipped_unit fn events =
  {
    u_out =
      {
        Cache.c_func = fn;
        c_stats = Pass.fresh_stats ();
        c_diags = [];
        c_vdiags = [];
        c_insts = count_insts fn;
      };
    u_times = [];
    u_events = events;
  }

(* [run_func opts strategy fn] runs the strategy's pipeline on [fn] under
   the robust policy. Returns the unit — whose [c_func] is the function
   that made it into the program, [fn] itself unless a retry won — and
   the rung that produced it.

   Under [`Abort] a fault re-raises the original exception with its
   original backtrace (or the guard's {!Guard.Trip} for a deadline or an
   injection). Otherwise [fn]'s pristine pre-pipeline state is
   snapshotted first, and every retry runs on an independent copy of it,
   so a faulted attempt's half-rewritten state can never leak into the
   next rung. Under [`Degrade] the ladder walks Rase -> Ips -> Postpass
   -> Naive, recompiling only this function; under [`Skip], or when the
   ladder is exhausted, the function is given up at its pristine state
   and marked skipped. *)
let run_func opts strategy fn =
  (* only a retry or a skip reads the pristine copy; under [`Abort]
     neither happens, so [fn] stands in for it *)
  let pristine = if opts.on_error = `Abort then fn else snapshot_func fn in
  let rec attempt rung faults fn =
    match compile_unit opts rung fn with
    | u ->
        let events =
          match faults with
          | [] -> []
          | fs ->
              [
                {
                  Degrade.d_func = fn.Mir.f_name;
                  d_from = to_string strategy;
                  d_faults = List.rev fs;
                  d_resolution = Degrade.Degraded (to_string rung);
                };
              ]
        in
        ({ u with u_events = events }, rung)
    | exception Guard.Trip f -> faulted rung faults f
    | exception Diag.Check_error ds when opts.on_error <> `Abort ->
        (* verifier/validator errors trap like pass faults; under
           [`Abort] they propagate untouched *)
        faulted rung faults
          (Fault.of_check ~func:fn.Mir.f_name ~strategy:(to_string rung)
             ds)
  and faulted rung faults f =
    match opts.on_error with
    | `Abort -> (
        match f.Fault.f_exn with
        | Some (e, bt) -> Printexc.raise_with_backtrace e bt
        | None -> raise (Guard.Trip f))
    | `Skip -> skip (f :: faults)
    | `Degrade -> (
        match degrade_next rung with
        | Some r -> attempt r (f :: faults) (snapshot_func pristine)
        | None -> skip (f :: faults))
  and skip faults =
    let event =
      {
        Degrade.d_func = fn.Mir.f_name;
        d_from = to_string strategy;
        d_faults = List.rev faults;
        d_resolution = Degrade.Skipped;
      }
    in
    (skipped_unit (snapshot_func pristine) [ event ], strategy)
  in
  attempt strategy [] fn

(* deterministic merge: fold the units in program order. Estimates are
   [Hashtbl.replace]d in recording order so a label reused by a later
   function wins, exactly as in a sequential compile; diagnostics are
   accumulated reversed and re-reversed once at the end. *)
let merge_units prof strategy units : report =
  let spilled = ref 0 and passes = ref 0 in
  let estimates = Hashtbl.create 64 in
  let diags = ref [] in
  let vdiags = ref [] in
  let events = ref [] in
  List.iter
    (fun { u_out = out; u_times; u_events } ->
      let st = out.Cache.c_stats in
      spilled := !spilled + st.Pass.spilled;
      passes := !passes + st.Pass.sched_passes;
      prof.Profile.p_sb_probes <- prof.Profile.p_sb_probes + st.Pass.sb_probes;
      prof.Profile.p_sb_conflicts <-
        prof.Profile.p_sb_conflicts + st.Pass.sb_conflicts;
      prof.Profile.p_sb_reserves <-
        prof.Profile.p_sb_reserves + st.Pass.sb_reserves;
      prof.Profile.p_an_time <- prof.Profile.p_an_time +. st.Pass.an_time;
      prof.Profile.p_an_solves <- prof.Profile.p_an_solves + st.Pass.an_solves;
      prof.Profile.p_an_iters <- prof.Profile.p_an_iters + st.Pass.an_iters;
      prof.Profile.p_an_facts <- prof.Profile.p_an_facts + st.Pass.an_facts;
      prof.Profile.p_an_queries <-
        prof.Profile.p_an_queries + st.Pass.an_queries;
      prof.Profile.p_an_pruned <- prof.Profile.p_an_pruned + st.Pass.an_pruned;
      List.iter
        (fun (label, len) -> Hashtbl.replace estimates label len)
        st.Pass.estimates;
      diags := List.rev_append out.Cache.c_diags !diags;
      vdiags := List.rev_append out.Cache.c_vdiags !vdiags;
      List.iter
        (fun (pass, wall, cpu) -> Profile.add ~cpu prof pass wall)
        u_times;
      prof.Profile.p_funcs <- prof.Profile.p_funcs + 1;
      prof.Profile.p_blocks <-
        prof.Profile.p_blocks + count_blocks out.Cache.c_func;
      prof.Profile.p_insts <- prof.Profile.p_insts + out.Cache.c_insts;
      List.iter
        (fun (e : Degrade.event) ->
          prof.Profile.p_faults <-
            prof.Profile.p_faults + List.length e.Degrade.d_faults;
          match e.Degrade.d_resolution with
          | Degrade.Degraded _ ->
              prof.Profile.p_degraded <- prof.Profile.p_degraded + 1
          | Degrade.Skipped ->
              prof.Profile.p_skipped <- prof.Profile.p_skipped + 1)
        u_events;
      events := List.rev_append u_events !events)
    units;
  prof.Profile.p_spilled <- prof.Profile.p_spilled + !spilled;
  prof.Profile.p_schedule_passes <-
    prof.Profile.p_schedule_passes + !passes;
  {
    strategy;
    spilled = !spilled;
    block_estimates = estimates;
    schedule_passes = !passes;
    check_diags = List.rev !diags;
    validate_diags = List.rev !vdiags;
    faults = List.rev !events;
    profile = prof;
  }

(* ------------------------------------------------------------------ *)
(* Whole-program compilation                                           *)
(* ------------------------------------------------------------------ *)

(* Linting is a pure function of the machine model: memoize by the
   model's content digest ({!Ckey.of_model}) so a driver (or benchmark)
   compiling many programs against one description lints it once, not
   per compile — including when the "one" description is re-parsed into
   a structurally equal model each time, which a physical-identity key
   would miss forever. The cache is a tiny move-to-front LRU (hits
   re-front their entry, so the hottest models survive the keep-7
   truncation) and mutex-guarded so parallel compiles against one model
   still lint it exactly once. *)
let lint_mutex = Mutex.create ()

let lint_cache : (Ckey.t * Diag.t list) list ref = ref []

let lint_model model =
  let key = Ckey.of_model model in
  Mutex.lock lint_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock lint_mutex)
    (fun () ->
      match List.assoc_opt key !lint_cache with
      | Some ds ->
          lint_cache :=
            (key, ds) :: List.filter (fun (k, _) -> k <> key) !lint_cache;
          ds
      | None ->
          let ds = Marilint.lint model in
          let keep = List.filteri (fun i _ -> i < 7) !lint_cache in
          lint_cache := (key, ds) :: keep;
          ds)

let compile ?(opts = default) ?cache model strategy (ir : Ir.prog) =
  let w0 = Mclock.wall () and c0 = Mclock.cpu () in
  let prof = Profile.create ~jobs:opts.jobs ~strategy:(to_string strategy) () in
  let lint_warnings =
    if opts.check then begin
      let t0 = Mclock.wall () and tc0 = Mclock.thread_cpu () in
      let ds = Diag.raise_if_errors (lint_model model) in
      let wall = Mclock.wall () -. t0 in
      Profile.add ~cpu:(Mclock.thread_cpu () -. tc0) prof "lint" wall;
      ds
    end
    else []
  in
  (* glue rewrites the IL in place for this model, sequentially, before
     anything is digested or fanned out: the cache key must name the
     trees the selector will actually see *)
  let t_glue = Mclock.wall () and c_glue = Mclock.thread_cpu () in
  List.iter (Glue.transform_func model) ir.Ir.funcs;
  Profile.add
    ~cpu:(Mclock.thread_cpu () -. c_glue)
    prof "glue"
    (Mclock.wall () -. t_glue);
  (* the cache key components shared by every function of this compile:
     model digest and pipeline identity. A fallback rung's result is
     cached under the rung that actually produced the code: a degraded
     result must never be stored under — or answer for — the original
     strategy's key *)
  let pipeline_digest = pipeline_key opts strategy in
  let rung_digest rung =
    if rung = strategy then pipeline_digest else pipeline_key opts rung
  in
  let model_digest =
    match cache with Some _ -> Ckey.of_model model | None -> ""
  in
  let cache_before = Option.map Cache.counters cache in
  (* one unit per function: selection plus the strategy pipeline (with
     ladder retries when a robust policy is active), or a cache replay.
     Units share no mutable state, so they fan out over the domain pool;
     results merge in program order. *)
  let compile_one (irfn : Ir.func) =
    let select_and_run () =
      let t0 = Mclock.wall () and tc0 = Mclock.thread_cpu () in
      let fn = Select.select_func model irfn in
      let w = Mclock.wall () -. t0 and c = Mclock.thread_cpu () -. tc0 in
      let u, rung = run_func opts strategy fn in
      ({ u with u_times = ("select", w, c) :: u.u_times }, rung)
    in
    match cache with
    | None -> (fst (select_and_run ()), `Off)
    | Some c -> (
        let il_digest = Ckey.of_ir_func irfn in
        (* a stored entry is always a clean single-rung compile: a
           degraded result goes under the rung that produced it, and a
           skipped function is never stored at all *)
        let store_result (u, rung) =
          let gave_up =
            List.exists
              (fun (e : Degrade.event) ->
                e.Degrade.d_resolution = Degrade.Skipped)
              u.u_events
          in
          if not gave_up then
            Cache.store c
              ~key:
                (Ckey.combine [ il_digest; model_digest; rung_digest rung ])
              u.u_out;
          u
        in
        if Finject.may_target opts.finject ~fn:irfn.Ir.fn_name then
          (* a warm hit would replay a result without crossing the pass
             boundaries the plan plants faults at, silently neutralising
             the injection — bypass lookup for any function the plan may
             target (counted as neither hit nor miss) *)
          (store_result (select_and_run ()), `Off)
        else
          let key =
            Ckey.combine [ il_digest; model_digest; pipeline_digest ]
          in
          let t0 = Mclock.wall () and tc0 = Mclock.thread_cpu () in
          match Cache.find c model ~key with
          | Some p ->
              (* warm replay: the cached function and the deterministic
                 report parts, plus one synthetic profile entry marking
                 the function as served from the cache *)
              ( {
                  u_out = p;
                  u_times =
                    [
                      ( "cached",
                        Mclock.wall () -. t0,
                        Mclock.thread_cpu () -. tc0 );
                    ];
                  u_events = [];
                },
                `Hit )
          | None -> (store_result (select_and_run ()), `Miss))
  in
  let results = Dpool.map ~jobs:opts.jobs compile_one ir.Ir.funcs in
  let prog =
    {
      Mir.p_model = model;
      p_globals =
        List.map
          (fun (g : Ir.global) ->
            {
              Mir.g_name = g.Ir.gl_name;
              g_align = g.Ir.gl_align;
              g_bytes = g.Ir.gl_bytes;
            })
          ir.Ir.globals;
      p_funcs = List.map (fun (u, _) -> u.u_out.Cache.c_func) results;
    }
  in
  let report = merge_units prof strategy (List.map fst results) in
  (match (cache, cache_before) with
  | Some c, Some before ->
      prof.Profile.p_cache_used <- true;
      List.iter
        (fun (_, outcome) ->
          match outcome with
          | `Hit -> prof.Profile.p_cache_hits <- prof.Profile.p_cache_hits + 1
          | `Miss ->
              prof.Profile.p_cache_misses <- prof.Profile.p_cache_misses + 1
          | `Off -> ())
        results;
      (* evictions and staleness happen inside the cache; attribute the
         delta over this compile (approximate if other compiles share
         the cache concurrently) *)
      let after = Cache.counters c in
      prof.Profile.p_cache_evictions <-
        prof.Profile.p_cache_evictions
        + (after.Cache.evictions - before.Cache.evictions);
      prof.Profile.p_cache_stale <-
        prof.Profile.p_cache_stale + (after.Cache.stale - before.Cache.stale)
  | _ -> ());
  prof.Profile.p_wall <- Mclock.wall () -. w0;
  prof.Profile.p_cpu <- Mclock.cpu () -. c0;
  (prog, { report with check_diags = lint_warnings @ report.check_diags })
