(* Compilation-cache tests: a cache hit replays every observable output
   bit-identically at any job count; any edit to the source, the machine
   description, the strategy or the report-changing flags invalidates;
   and the persistent layer survives process boundaries (modeled as fresh
   cache objects over one directory) while rejecting corrupted or
   wrong-version entries as misses, never errors. *)

let check = Alcotest.check

let targets =
  [
    ("toyp", lazy (Toyp.load ()));
    ("r2000", lazy (R2000.load ()));
    ("m88000", lazy (M88000.load ()));
    ("i860", lazy (I860.load ()));
  ]

let r2000 = List.assoc "r2000" targets

(* same shape as test_pass: several functions so -j 4 has units to fan
   out, integer-only so every target selects it *)
let multi_fn_src =
  {|int acc[32];
    int scale(int n) { return n * 3 - 7; }
    int mix(int a, int b) { return a * 2 + b; }
    int sum_to(int n) {
      int i; int s = 0;
      for (i = 0; i < n; i++) s = s + scale(i);
      return s;
    }
    int main(void) {
      int i; int s = 0;
      for (i = 0; i < 32; i++) acc[i] = mix(i, i * i);
      for (i = 0; i < 32; i++) s = s + acc[i];
      print_int(s);
      print_int(sum_to(10));
      return 0;
    }|}

let multi_fn_funcs = 4 (* scale, mix, sum_to, main *)

let workload () =
  [
    ("multi", multi_fn_src);
    ("lfk1", Livermore.source ~iter:1 1);
    ("lfk7", Livermore.source ~iter:1 7);
  ]

(* every observable output of a compile, in comparable form *)
let snapshot (prog, (report : Strategy.report)) =
  let estimates =
    Hashtbl.fold
      (fun k v acc -> (k, v) :: acc)
      report.Strategy.block_estimates []
    |> List.sort compare
  in
  ( Format.asprintf "%a" Mir.pp_prog prog,
    report.Strategy.spilled,
    report.Strategy.schedule_passes,
    estimates,
    List.map Diag.to_string report.Strategy.check_diags,
    List.map Diag.to_string report.Strategy.validate_diags )

let compile ?cache ~jobs model strat (file, src) =
  match
    Strategy.compile
      ~opts:{ Strategy.default with jobs }
      ?cache model strat (Cgen.compile ~file src)
  with
  | r -> Ok (snapshot r)
  | exception Select.No_pattern msg -> Error ("no-pattern: " ^ msg)
  | exception Loc.Error (loc, msg) -> Error (Loc.error_to_string loc msg)

(* replace the first occurrence of [pat] in [s] (plain substring) *)
let replace_first ~pat ~by s =
  let n = String.length s and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)

(* [f dir] over a fresh directory, which is removed with every entry the
   cache wrote into it however [f] ends *)
let with_temp_dir f =
  let dir = Filename.temp_file "marion-cache-test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let counters c = Cache.counters c

(* ------------------------------------------------------------------ *)
(* Hits are bit-identical to uncached compiles, at -j 1 and -j 4        *)
(* ------------------------------------------------------------------ *)

let test_cached_identical () =
  List.iter
    (fun (tname, model) ->
      let m = Lazy.force model in
      List.iter
        (fun strat ->
          List.iter
            (fun unit ->
              let name =
                Printf.sprintf "%s/%s/%s" tname (Strategy.to_string strat)
                  (fst unit)
              in
              let base = compile ~jobs:1 m strat unit in
              let cache = Cache.create () in
              let cold = compile ~cache ~jobs:1 m strat unit in
              let warm = compile ~cache ~jobs:1 m strat unit in
              let warm4 = compile ~cache ~jobs:4 m strat unit in
              if base <> cold then
                Alcotest.failf "%s: cold cached differs from uncached" name;
              if base <> warm then
                Alcotest.failf "%s: warm cached differs from uncached" name;
              if base <> warm4 then
                Alcotest.failf "%s: warm -j 4 differs from uncached" name;
              let cache4 = Cache.create () in
              let cold4 = compile ~cache:cache4 ~jobs:4 m strat unit in
              if base <> cold4 then
                Alcotest.failf "%s: cold -j 4 cached differs from uncached"
                  name)
            (workload ()))
        Strategy.all)
    targets

let test_hit_profile () =
  (* the profile of a warm compile reports the hits and a synthetic
     "cached" entry in place of the pass times *)
  let m = Lazy.force r2000 in
  let cache = Cache.create () in
  let compile1 () =
    Strategy.compile ~cache m Strategy.Rase
      (Cgen.compile ~file:"multi" multi_fn_src)
  in
  let _, cold = compile1 () in
  let pc = cold.Strategy.profile in
  check Alcotest.bool "cold used" true pc.Profile.p_cache_used;
  check Alcotest.int "cold misses" multi_fn_funcs pc.Profile.p_cache_misses;
  check Alcotest.int "cold hits" 0 pc.Profile.p_cache_hits;
  let _, warm = compile1 () in
  let pw = warm.Strategy.profile in
  check Alcotest.int "warm hits" multi_fn_funcs pw.Profile.p_cache_hits;
  check Alcotest.int "warm misses" 0 pw.Profile.p_cache_misses;
  let names = List.map (fun e -> e.Profile.e_name) (Profile.entries pw) in
  check Alcotest.bool "synthetic cached entry" true (List.mem "cached" names);
  check Alcotest.bool "no schedule pass ran" false (List.mem "schedule" names)

(* ------------------------------------------------------------------ *)
(* Invalidation: model edit, strategy change, flag change               *)
(* ------------------------------------------------------------------ *)

let test_rebuilt_model_hits () =
  (* two structurally equal models built from one description digest
     equal: a rebuild does not invalidate *)
  let m1 = R2000.load () and m2 = R2000.load () in
  check Alcotest.bool "same digest" true (Ckey.of_model m1 = Ckey.of_model m2);
  let cache = Cache.create () in
  ignore
    (Strategy.compile ~cache m1 Strategy.Postpass
       (Cgen.compile ~file:"multi" multi_fn_src));
  ignore
    (Strategy.compile ~cache m2 Strategy.Postpass
       (Cgen.compile ~file:"multi" multi_fn_src));
  check Alcotest.int "rebuilt model hits" multi_fn_funcs (counters cache).Cache.hits

let test_model_edit_invalidates () =
  (* edit one latency in the description: every function misses *)
  let m1 = R2000.load () in
  let edited =
    replace_first ~pat:"(1,1,0)" ~by:"(1,2,0)" R2000.description
  in
  check Alcotest.bool "description actually edited" true
    (edited <> R2000.description);
  let m2 =
    Builder.load ~name:R2000.name ~file:"<edited.maril>" edited
  in
  R2000.register_funcs m2;
  check Alcotest.bool "digest differs" true
    (Ckey.of_model m1 <> Ckey.of_model m2);
  let cache = Cache.create () in
  ignore
    (Strategy.compile ~cache m1 Strategy.Postpass
       (Cgen.compile ~file:"multi" multi_fn_src));
  ignore
    (Strategy.compile ~cache m2 Strategy.Postpass
       (Cgen.compile ~file:"multi" multi_fn_src));
  let c = counters cache in
  check Alcotest.int "no hits" 0 c.Cache.hits;
  check Alcotest.int "all misses" (2 * multi_fn_funcs) c.Cache.misses

let test_strategy_change_invalidates () =
  let m = Lazy.force r2000 in
  let cache = Cache.create () in
  let go strat =
    ignore
      (Strategy.compile ~cache m strat
         (Cgen.compile ~file:"multi" multi_fn_src))
  in
  go Strategy.Postpass;
  go Strategy.Ips;
  let c = counters cache in
  check Alcotest.int "no hits across strategies" 0 c.Cache.hits;
  go Strategy.Postpass;
  check Alcotest.int "same strategy hits" multi_fn_funcs
    (counters cache).Cache.hits

(* every option, flipped from the default: the output-changing ones must
   miss, the rest must hit. Strategy.pipeline_key cannot forget a field
   (it destructures the record exhaustively); this pins down that each
   field is classified the right way round. *)
let test_flag_change_invalidates () =
  let m = Lazy.force r2000 in
  let d = Strategy.default in
  let cases =
    [
      ("check off", { d with check = false }, `Miss);
      ("validate", { d with validate = false }, `Miss);
      ("disambig", { d with disambig = false }, `Miss);
      ("jobs", { d with jobs = 4 }, `Hit);
      (* fault-free, so nothing degrades and the clean entry answers *)
      ("on_error", { d with on_error = `Degrade }, `Hit);
    ]
  in
  List.iter
    (fun (field, opts, expect) ->
      let cache = Cache.create () in
      let go opts =
        ignore
          (Strategy.compile ~opts ~cache m Strategy.Postpass
             (Cgen.compile ~file:"multi" multi_fn_src))
      in
      go d;
      go opts;
      check Alcotest.int (field ^ ": hits")
        (if expect = `Hit then multi_fn_funcs else 0)
        (counters cache).Cache.hits)
    cases

(* the exact bytes of every pipeline key: a cache entry written by an
   earlier build must stay reachable when passes or options are retired.
   Captured before the estimate pass, the DAG-statistics flag and the
   hazard-replay verifier level were folded away; never regenerate
   them. *)
let test_pipeline_key_pins () =
  let d = Strategy.default in
  let options =
    [
      ("default", d);
      ("disambig off", { d with disambig = false });
      ("check off", { d with check = false });
      ("validate off", { d with validate = false });
    ]
  in
  let pins =
    [
      ( Strategy.Naive,
        [
          "06b9bd27703525dd5ab8db2fbc4e40d6";
          "972431aa66a48b9a67d0666f81e61ad7";
          "ec0719c62eec922e192ec09cb5878c89";
          "b57a2c7e0dbbe8b05b9ea1d4df025f22";
        ] );
      ( Strategy.Postpass,
        [
          "dd0d252bc56a4ed0ed4e239f8facff80";
          "8d29dab9258db03a2fbfd84f814ca9eb";
          "e2ee647c759bc88692674013e5d47d11";
          "c6ea4b573b83eed7b3ab86c9f04cb069";
        ] );
      ( Strategy.Ips,
        [
          "08b2813e675e8c77677cd965af2bd2bc";
          "578e381438d93884c086a1c13c321c74";
          "ef4985a74e3a0b54e9ebcd2fd209bab6";
          "1583dd2960be2d59f4a7330874356e0c";
        ] );
      ( Strategy.Rase,
        [
          "a5d381fc863a40830487120ed5cd23e1";
          "a44d7e127cb56a4351721c7a7f885335";
          "d97a3500f869791650fb8a386587c26e";
          "9e945835572cb90cf335a45860deea57";
        ] );
    ]
  in
  List.iter
    (fun (strategy, hexes) ->
      List.iter2
        (fun (label, opts) hex ->
          check Alcotest.string
            (Strategy.to_string strategy ^ ", " ^ label)
            hex
            (Ckey.to_hex (Strategy.pipeline_key opts strategy)))
        options hexes)
    pins

let test_source_edit_invalidates () =
  let m = Lazy.force r2000 in
  let cache = Cache.create () in
  let go src =
    ignore (Strategy.compile ~cache m Strategy.Postpass (Cgen.compile ~file:"one" src))
  in
  go "int main(void) { return 1; }";
  go "int main(void) { return 2; }";
  check Alcotest.int "no hits across sources" 0 (counters cache).Cache.hits

(* ------------------------------------------------------------------ *)
(* The persistent layer                                                 *)
(* ------------------------------------------------------------------ *)

let entries dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare

let test_disk_persistence () =
  with_temp_dir @@ fun dir ->
  let m = Lazy.force r2000 in
  let unit = ("multi", multi_fn_src) in
  let base = compile ~jobs:1 m Strategy.Rase unit in
  let c1 = Cache.create ~dir () in
  let cold = compile ~cache:c1 ~jobs:1 m Strategy.Rase unit in
  check Alcotest.int "entries written" multi_fn_funcs
    (List.length (entries dir));
  (* a fresh cache over the same directory: a new process *)
  let c2 = Cache.create ~dir () in
  let warm = compile ~cache:c2 ~jobs:1 m Strategy.Rase unit in
  let k = counters c2 in
  check Alcotest.int "disk hits" multi_fn_funcs k.Cache.disk_hits;
  check Alcotest.int "misses" 0 k.Cache.misses;
  if base <> cold || base <> warm then
    Alcotest.fail "disk-cached compile differs from uncached"

(* Two cold fills of fresh directories with the same cells write the
   same entries, byte for byte: nothing measured is frozen. *)
let test_disk_fills_reproducible () =
  let read path =
    In_channel.with_open_bin path In_channel.input_all
  in
  let fill () =
    with_temp_dir @@ fun dir ->
    let cache = Cache.create ~dir () in
    List.iter
      (fun (_, model) ->
        List.iter
          (fun strat ->
            List.iter
              (fun unit ->
                ignore (compile ~cache ~jobs:1 (Lazy.force model) strat unit))
              (workload ()))
          Strategy.all)
      targets;
    List.map (fun e -> (e, read (Filename.concat dir e))) (entries dir)
  in
  let a = fill () and b = fill () in
  check Alcotest.bool "entries written" true (a <> []);
  check
    Alcotest.(list string)
    "same entry names" (List.map fst a) (List.map fst b);
  List.iter2
    (fun (e, x) (_, y) ->
      if x <> y then Alcotest.failf "entry %s differs between two fills" e)
    a b

let corrupt_last_byte path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = Bytes.of_string (really_input_string ic n) in
  close_in ic;
  Bytes.set s (n - 1) (Char.chr (Char.code (Bytes.get s (n - 1)) lxor 0xFF));
  let oc = open_out_bin path in
  output_bytes oc s;
  close_out oc

let test_disk_corruption_is_a_miss () =
  with_temp_dir @@ fun dir ->
  let m = Lazy.force r2000 in
  let unit = ("multi", multi_fn_src) in
  let base = compile ~jobs:1 m Strategy.Postpass unit in
  ignore (compile ~cache:(Cache.create ~dir ()) ~jobs:1 m Strategy.Postpass unit);
  (match entries dir with
  | e :: _ -> corrupt_last_byte (Filename.concat dir e)
  | [] -> Alcotest.fail "no cache entries written");
  let c = Cache.create ~dir () in
  let redo = compile ~cache:c ~jobs:1 m Strategy.Postpass unit in
  if base <> redo then
    Alcotest.fail "compile against a corrupted cache differs from uncached";
  let k = counters c in
  check Alcotest.int "stale" 1 k.Cache.stale;
  check Alcotest.int "hits" (multi_fn_funcs - 1) k.Cache.hits;
  check Alcotest.int "misses" 1 k.Cache.misses;
  (* the corrupted entry was recompiled and rewritten: fully warm again *)
  let c2 = Cache.create ~dir () in
  ignore (compile ~cache:c2 ~jobs:1 m Strategy.Postpass unit);
  check Alcotest.int "repaired" multi_fn_funcs (counters c2).Cache.hits

let test_disk_wrong_version_is_a_miss () =
  with_temp_dir @@ fun dir ->
  let m = Lazy.force r2000 in
  let unit = ("multi", multi_fn_src) in
  let base = compile ~jobs:1 m Strategy.Postpass unit in
  ignore (compile ~cache:(Cache.create ~dir ()) ~jobs:1 m Strategy.Postpass unit);
  (* rewrite one entry's header to a future format version *)
  (match entries dir with
  | e :: _ ->
      let path = Filename.concat dir e in
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      let s =
        replace_first
          ~pat:(Printf.sprintf "format %d." Ckey.format_version)
          ~by:"format 9999." s
      in
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc
  | [] -> Alcotest.fail "no cache entries written");
  let c = Cache.create ~dir () in
  let redo = compile ~cache:c ~jobs:1 m Strategy.Postpass unit in
  if base <> redo then
    Alcotest.fail "compile against a wrong-version cache differs from uncached";
  let k = counters c in
  check Alcotest.int "stale" 1 k.Cache.stale;
  check Alcotest.int "misses" 1 k.Cache.misses

let test_eviction () =
  (* a capacity-2 cache over a 4-function program evicts; correctness is
     unaffected (evicted entries simply miss) *)
  let m = Lazy.force r2000 in
  let unit = ("multi", multi_fn_src) in
  let base = compile ~jobs:1 m Strategy.Postpass unit in
  let cache = Cache.create ~capacity:2 () in
  let cold = compile ~cache ~jobs:1 m Strategy.Postpass unit in
  let warm = compile ~cache ~jobs:1 m Strategy.Postpass unit in
  let k = counters cache in
  check Alcotest.bool "evictions happened" true (k.Cache.evictions > 0);
  if base <> cold || base <> warm then
    Alcotest.fail "capacity-2 cached compile differs from uncached"

let suite =
  [
    Alcotest.test_case "cached == uncached, all targets x strategies, -j 1/4"
      `Slow test_cached_identical;
    Alcotest.test_case "hit profile: counters and synthetic entry" `Quick
      test_hit_profile;
    Alcotest.test_case "rebuilt (structurally equal) model hits" `Quick
      test_rebuilt_model_hits;
    Alcotest.test_case "model edit invalidates" `Quick
      test_model_edit_invalidates;
    Alcotest.test_case "strategy change invalidates" `Quick
      test_strategy_change_invalidates;
    Alcotest.test_case "flag change invalidates" `Quick
      test_flag_change_invalidates;
    Alcotest.test_case "pipeline keys keep their bytes" `Quick
      test_pipeline_key_pins;
    Alcotest.test_case "source edit invalidates" `Quick
      test_source_edit_invalidates;
    Alcotest.test_case "disk persistence across cache objects" `Quick
      test_disk_persistence;
    Alcotest.test_case "two cold fills write identical entries" `Slow
      test_disk_fills_reproducible;
    Alcotest.test_case "corrupted disk entry is a miss, not an error" `Quick
      test_disk_corruption_is_a_miss;
    Alcotest.test_case "wrong-version disk entry is a miss" `Quick
      test_disk_wrong_version_is_a_miss;
    Alcotest.test_case "eviction under a tiny capacity" `Quick test_eviction;
  ]
