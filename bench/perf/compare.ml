(* BENCH_*.json files: loading (with a schema check) and the comparator.

   A file holds one or more runs; a run holds one result document per
   workload, each metric with its value and the samples it summarises.
   [FILE] pools every run of the file, [FILE@N] selects its N-th run
   (1-based). *)

let schema = "marion-perf/1"

let check_workload doc =
  List.iter
    (fun k -> ignore (Json.member k doc))
    [ "workload"; "cells"; "passes"; "attempted"; "failed"; "failures";
      "quarantine" ];
  List.iter
    (fun (m : Metrics.e2e) ->
      let v = Json.path doc [ "metrics"; m.Metrics.m_name ] in
      ignore (Json.to_str (Json.member "unit" v));
      ignore (Json.to_float (Json.member "value" v));
      List.iter
        (fun x -> ignore (Json.to_float x))
        (Json.to_list (Json.member "samples" v)))
    Metrics.e2e;
  match Json.to_obj (Json.member "layers" doc) with
  | [] -> ()
  | layers ->
      List.iter
        (fun (l : Metrics.layer) ->
          match List.assoc_opt l.Metrics.l_name layers with
          | Some v -> ignore (Json.to_float (Json.member "value" v))
          | None ->
              raise (Json.Parse_error ("missing layer " ^ l.Metrics.l_name)))
        Metrics.layers

let check_file doc =
  if Json.to_str (Json.member "schema" doc) <> schema then
    raise (Json.Parse_error ("not a " ^ schema ^ " file"));
  List.iter
    (fun run ->
      ignore (Json.to_int (Json.member "seed" run));
      ignore (Json.member "host" run);
      List.iter check_workload (Json.to_list (Json.member "workloads" run)))
    (Json.to_list (Json.member "runs" doc))

(* workload name -> its result documents, one per pooled run *)
let load spec =
  let file, pick =
    match String.rindex_opt spec '@' with
    | Some i -> (
        let n = String.sub spec (i + 1) (String.length spec - i - 1) in
        match int_of_string_opt n with
        | Some n -> (String.sub spec 0 i, Some n)
        | None -> (spec, None))
    | None -> (spec, None)
  in
  let doc = Json.read_file file in
  check_file doc;
  let runs = Json.to_list (Json.member "runs" doc) in
  let runs =
    match pick with
    | None -> runs
    | Some n when n >= 1 && n <= List.length runs -> [ List.nth runs (n - 1) ]
    | Some n ->
        raise (Json.Parse_error (Printf.sprintf "%s has no run %d" file n))
  in
  let docs =
    List.concat_map (fun r -> Json.to_list (Json.member "workloads" r)) runs
  in
  let name d = Json.to_str (Json.member "workload" d) in
  List.map
    (fun n -> (n, List.filter (fun d -> name d = n) docs))
    (List.sort_uniq compare (List.map name docs))

(* one value per pooled run *)
let values docs metric =
  List.map (fun d -> Json.to_float (Json.path d [ "metrics"; metric; "value" ])) docs

(* the samples one run's value summarises *)
let samples doc metric =
  List.map Json.to_float
    (Json.to_list (Json.path doc [ "metrics"; metric; "samples" ]))

(* (cell id, reason) over the timed failures and the known bugs that
   still fail *)
let failing docs =
  List.concat_map
    (fun d ->
      List.map
        (fun f ->
          (Json.to_str (Json.member "cell" f), Json.to_str (Json.member "reason" f)))
        (Json.to_list (Json.member "failures" d))
      @ List.filter_map
          (fun q ->
            match Json.to_str (Json.member "observed" q) with
            | "passes" -> None
            | obs -> Some (Json.to_str (Json.member "cell" q), obs))
          (Json.to_list (Json.member "quarantine" d)))
    docs
  |> List.sort_uniq compare

let layer_value docs name =
  let vs =
    List.filter_map
      (fun d ->
        Option.map
          (fun v -> Json.to_float (Json.member "value" v))
          (List.assoc_opt name (Json.to_obj (Json.member "layers" d))))
      docs
  in
  if vs = [] then None else Some (Metrics.median vs)

let relative ~old v =
  if old = 0.0 then if v = 0.0 then 0.0 else infinity else (v -. old) /. old

type verdict = Regressed | Improved | Same | Unresolved

let verdict_name = function
  | Regressed -> "regressed"
  | Improved -> "improved"
  | Same -> "same"
  | Unresolved -> "unresolved"

(* every e2e metric is lower-is-better *)
let judge (m : Metrics.e2e) old_v new_v =
  let o = Metrics.summarize old_v and n = Metrics.summarize new_v in
  let delta = relative ~old:o.median n.median in
  let bound = m.Metrics.m_bound in
  let v =
    if m.Metrics.m_exact then
      if n.median > o.median then Regressed
      else if n.median < o.median then Improved
      else Same
    else
      let wide = Metrics.spread o > bound || Metrics.spread n > bound in
      (* a wide spread still resolves when every new run beats every old *)
      let better_everywhere =
        List.fold_left Float.max neg_infinity new_v
        < List.fold_left Float.min infinity old_v
      in
      if wide && not better_everywhere then Unresolved
      else if delta > bound then Regressed
      else if delta < -.bound then Improved
      else Same
  in
  (o, n, delta, v)

let pct d =
  if Float.is_finite d then Printf.sprintf "%+.2f%%" (100.0 *. d) else "n/a"

(* prints one workload's rows; returns its regression count *)
let compare_workload name od nd =
  let regressions = ref 0 in
  Printf.printf "\n%s\n%-16s %13s %27s %13s %27s %9s %6s  %s\n" name "metric"
    "old" "old p25..p75" "new" "new p25..p75" "delta" "bound" "verdict";
  List.iter
    (fun (m : Metrics.e2e) ->
      let name = m.Metrics.m_name in
      let o, n, delta, v = judge m (values od name) (values nd name) in
      if v = Regressed then incr regressions;
      Printf.printf
        "%-16s %13.6g %13.6g..%-12.6g %13.6g %13.6g..%-12.6g %9s %5.1f%%  %s\n"
        name o.median o.p25 o.p75 n.median n.p25 n.p75 (pct delta)
        (100.0 *. m.Metrics.m_bound) (verdict_name v))
    Metrics.e2e;
  let old_fail = failing od and new_fail = failing nd in
  List.iter
    (fun (c, r) ->
      if not (List.mem_assoc c old_fail) then begin
        incr regressions;
        Printf.printf "  newly failing: %s (%s)\n" c r
      end)
    new_fail;
  List.iter
    (fun (c, _) ->
      if not (List.mem_assoc c new_fail) then
        Printf.printf "  now passing: %s\n" c)
    old_fail;
  let rows =
    List.filter_map
      (fun (l : Metrics.layer) ->
        match (layer_value od l.Metrics.l_name, layer_value nd l.Metrics.l_name)
        with
        | Some a, Some b -> Some (l, a, b)
        | _ -> None)
      Metrics.layers
  in
  if rows <> [] then
    Printf.printf
      "  per-layer (never gates: timings flagged beyond %.0f%%, counters on \
       any change)\n"
      (100.0 *. Metrics.layer_threshold);
  List.iter
    (fun ((l : Metrics.layer), a, b) ->
      let d = relative ~old:a b in
      let note =
        if l.Metrics.l_exact then if a = b then "" else "changed"
        else if Float.abs d > Metrics.layer_threshold then "moved"
        else ""
      in
      Printf.printf "  %-26s %14.6g %14.6g %9s %-10s %s\n" l.Metrics.l_name a b
        (pct d) l.Metrics.l_unit note)
    rows;
  !regressions

let run old_spec new_spec =
  let old_side = load old_spec and new_side = load new_spec in
  Printf.printf "compare %s -> %s\n" old_spec new_spec;
  let regressions =
    List.fold_left
      (fun acc name ->
        match (List.assoc_opt name old_side, List.assoc_opt name new_side) with
        | Some od, Some nd -> acc + compare_workload name od nd
        | None, _ ->
            Printf.printf "\n%s: only in %s\n" name new_spec;
            acc
        | _, None ->
            Printf.printf "\n%s: only in %s\n" name old_spec;
            acc)
      0
      (List.sort_uniq compare (List.map fst old_side @ List.map fst new_side))
  in
  if regressions = 0 then begin
    print_endline "\nno e2e regression";
    0
  end
  else begin
    Printf.printf "\n%d e2e regression(s)\n" regressions;
    1
  end
