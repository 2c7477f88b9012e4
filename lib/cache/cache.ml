type payload = {
  c_func : Mir.func;
  c_stats : Pass.stats;
  c_diags : Diag.t list;
  c_vdiags : Diag.t list;
  c_insts : int;
}

type counters = {
  hits : int;
  misses : int;
  evictions : int;
  stale : int;
  disk_hits : int;
  writes : int;
  store_errors : int;
}

(* ------------------------------------------------------------------ *)
(* Freezing and thawing payloads                                       *)
(* ------------------------------------------------------------------ *)

exception Stale

(* The model dominates a function's marshal image (full instruction
   table, semantics, glue rules), and every cached function was compiled
   against a model whose digest is part of its key — so the blob carries
   this empty stand-in instead, and [thaw] re-attaches the caller's live
   model. Instruction operations are re-pointed at the live model's
   table by index ([i_id] is the description-order index), restoring the
   physical sharing a non-cached compile would have. *)
let dummy_reg = { Model.cls = 0; idx = 0 }

let dummy_model =
  {
    Model.name = "";
    resources = [||];
    banks = [||];
    classes = [||];
    defs = [||];
    labels = [||];
    memories = [||];
    clocks = [||];
    elements = [||];
    named_classes = [||];
    instrs = [||];
    auxes = [];
    glues = [];
    cwvm =
      {
        Model.v_general = [];
        v_allocable = [];
        v_calleesave = [];
        v_sp = dummy_reg;
        v_fp = dummy_reg;
        v_gp = None;
        v_retaddr = dummy_reg;
        v_sp_down = true;
        v_hard = [];
        v_args = [];
        v_results = [];
      };
  }

(* The stats' analysis time is a wall-clock measurement: frozen as 0,
   so two fills of one cell write the same bytes and a hit, which runs
   no analysis, reports none. *)
let freeze (p : payload) : string =
  let stripped = { p.c_func with Mir.f_model = dummy_model } in
  let stats = { p.c_stats with Pass.an_time = 0.0 } in
  Marshal.to_string { p with c_func = stripped; c_stats = stats } []

let thaw (model : Model.t) (blob : string) : payload =
  let p : payload =
    try Marshal.from_string blob 0 with _ -> raise Stale
  in
  let instrs = model.Model.instrs in
  let remap (i : Mir.inst) =
    let op = i.Mir.n_op in
    if op.Model.i_id < 0 || op.Model.i_id >= Array.length instrs then
      raise Stale;
    let live = instrs.(op.Model.i_id) in
    if live.Model.i_name <> op.Model.i_name then raise Stale;
    { i with Mir.n_op = live }
  in
  let fn = { p.c_func with Mir.f_model = model } in
  List.iter
    (fun (b : Mir.block) -> b.Mir.b_insts <- List.map remap b.Mir.b_insts)
    fn.Mir.f_blocks;
  { p with c_func = fn }

(* ------------------------------------------------------------------ *)
(* The cache                                                           *)
(* ------------------------------------------------------------------ *)

type slot = { s_blob : string; mutable s_tick : int }

type t = {
  capacity : int;
  cache_dir : string option;
  mutex : Mutex.t;
  table : (Ckey.t, slot) Hashtbl.t;
  mutable tick : int;
  mutable n_hits : int;
  mutable n_misses : int;
  mutable n_evictions : int;
  mutable n_stale : int;
  mutable n_disk_hits : int;
  mutable n_writes : int;
  mutable n_store_errors : int;
}

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Sys.mkdir path 0o755 with Sys_error _ -> ()
  end

let create ?(capacity = 1024) ?dir () =
  Option.iter mkdir_p dir;
  {
    capacity = max 1 capacity;
    cache_dir = dir;
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    tick = 0;
    n_hits = 0;
    n_misses = 0;
    n_evictions = 0;
    n_stale = 0;
    n_disk_hits = 0;
    n_writes = 0;
    n_store_errors = 0;
  }

let dir t = t.cache_dir

let locked t f = Mutex.protect t.mutex f

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

(* insert under the caller's lock; evict the least recently used entry
   past capacity *)
let insert_locked t key blob =
  Hashtbl.replace t.table key { s_blob = blob; s_tick = next_tick t };
  while Hashtbl.length t.table > t.capacity do
    let victim =
      Hashtbl.fold
        (fun k s acc ->
          match acc with
          | Some (_, best) when best.s_tick <= s.s_tick -> acc
          | _ -> Some (k, s))
        t.table None
    in
    match victim with
    | Some (k, _) ->
        Hashtbl.remove t.table k;
        t.n_evictions <- t.n_evictions + 1
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Persistent layer                                                    *)
(* ------------------------------------------------------------------ *)

let magic = "MARION-CACHE"

(* Disk-entry layout revision: bumped whenever the Marshal shape of a
   persisted entry changes without affecting key derivation (kept out of
   Ckey.format_version, which is hashed into the keys themselves).
   rev 2: Pass.stats grew scoreboard probe/conflict/reserve counters.
   rev 3: Pass.stats grew dataflow-analysis counters.
   rev 4: the payload lost its DAG node/edge counts.
   rev 5: Mir.block lost its process-wide id. *)
let entry_rev = 5

let version_line =
  Printf.sprintf "format %d.%d marshal %s" Ckey.format_version entry_rev
    Sys.ocaml_version

let entry_path dir key = Filename.concat dir (Ckey.to_hex key ^ ".mc")

let tmp_counter = Atomic.make 0

(* a header the reader can validate before trusting the blob: magic,
   format + compiler version, the key the blob answers to, and the
   blob's own digest (catches truncation and bit rot). A write-side
   failure — ENOSPC, permissions, a path component that is not a
   directory — is [`Failed], a counted non-fatal event: the cache simply
   stays cold for that entry, it never throws out of a compile. *)
let write_disk t key blob =
  match t.cache_dir with
  | None -> `Off
  | Some dir -> (
      let final = entry_path dir key in
      let tmp =
        Filename.concat dir
          (Printf.sprintf ".tmp-%s-%d-%Ld" (Ckey.to_hex key)
             (Atomic.fetch_and_add tmp_counter 1)
             (Mclock.now_ns ()))
      in
      try
        let oc = open_out_bin tmp in
        (try
           output_string oc (magic ^ "\n");
           output_string oc (version_line ^ "\n");
           output_string oc (Ckey.to_hex key ^ "\n");
           output_string oc (Digest.to_hex (Digest.string blob) ^ "\n");
           output_string oc blob;
           close_out oc
         with e ->
           close_out_noerr oc;
           raise e);
        Sys.rename tmp final;
        `Written
      with Sys_error _ ->
        (try Sys.remove tmp with Sys_error _ -> ());
        `Failed)

(* [Ok blob] on a valid entry, [Error `Absent] when there is none,
   [Error `Stale] when one exists but fails any header or digest check *)
let read_disk t key =
  match t.cache_dir with
  | None -> Error `Absent
  | Some dir -> (
      let path = entry_path dir key in
      if not (Sys.file_exists path) then Error `Absent
      else
        try
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              let m = input_line ic in
              let v = input_line ic in
              let k = input_line ic in
              let d = input_line ic in
              if m <> magic || v <> version_line || k <> Ckey.to_hex key
              then Error `Stale
              else begin
                let len = in_channel_length ic - pos_in ic in
                if len < 0 then Error `Stale
                else begin
                  let blob = really_input_string ic len in
                  if Digest.to_hex (Digest.string blob) <> d then
                    Error `Stale
                  else Ok blob
                end
              end)
        with Sys_error _ | End_of_file -> Error `Stale)

(* ------------------------------------------------------------------ *)
(* Lookup and store                                                    *)
(* ------------------------------------------------------------------ *)

let find t model ~key =
  let mem_blob =
    locked t (fun () ->
        match Hashtbl.find_opt t.table key with
        | Some s ->
            s.s_tick <- next_tick t;
            t.n_hits <- t.n_hits + 1;
            Some s.s_blob
        | None -> None)
  in
  match mem_blob with
  | Some blob -> (
      try Some (thaw model blob)
      with Stale ->
        (* can only happen if the caller paired the key with a different
           model; drop the entry and miss *)
        locked t (fun () ->
            Hashtbl.remove t.table key;
            t.n_hits <- t.n_hits - 1;
            t.n_stale <- t.n_stale + 1;
            t.n_misses <- t.n_misses + 1);
        None)
  | None -> (
      match read_disk t key with
      | Ok blob -> (
          try
            let p = thaw model blob in
            locked t (fun () ->
                insert_locked t key blob;
                t.n_hits <- t.n_hits + 1;
                t.n_disk_hits <- t.n_disk_hits + 1);
            Some p
          with Stale ->
            locked t (fun () ->
                t.n_stale <- t.n_stale + 1;
                t.n_misses <- t.n_misses + 1);
            None)
      | Error `Stale ->
          locked t (fun () ->
              t.n_stale <- t.n_stale + 1;
              t.n_misses <- t.n_misses + 1);
          None
      | Error `Absent ->
          locked t (fun () -> t.n_misses <- t.n_misses + 1);
          None)

let store t ~key payload =
  let blob = freeze payload in
  locked t (fun () -> insert_locked t key blob);
  match write_disk t key blob with
  | `Written -> locked t (fun () -> t.n_writes <- t.n_writes + 1)
  | `Failed -> locked t (fun () -> t.n_store_errors <- t.n_store_errors + 1)
  | `Off -> ()

let counters t =
  locked t (fun () ->
      {
        hits = t.n_hits;
        misses = t.n_misses;
        evictions = t.n_evictions;
        stale = t.n_stale;
        disk_hits = t.n_disk_hits;
        writes = t.n_writes;
        store_errors = t.n_store_errors;
      })

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let stats_text t =
  let c = counters t in
  let entries = locked t (fun () -> Hashtbl.length t.table) in
  Printf.sprintf
    "# compilation cache: %s\n\
     #   hits=%d (disk %d) misses=%d evictions=%d stale=%d writes=%d \
     store-errors=%d entries=%d/%d\n"
    (match t.cache_dir with
    | Some d -> "memory + " ^ d
    | None -> "memory only")
    c.hits c.disk_hits c.misses c.evictions c.stale c.writes c.store_errors
    entries t.capacity

let stats_json t =
  let c = counters t in
  let entries = locked t (fun () -> Hashtbl.length t.table) in
  let field name v = Printf.sprintf "\"%s\":%s" name v in
  "{"
  ^ String.concat ","
      [
        field "enabled" "true";
        field "dir"
          (match t.cache_dir with
          | Some d -> "\"" ^ Diag.json_escape d ^ "\""
          | None -> "null");
        field "capacity" (string_of_int t.capacity);
        field "entries" (string_of_int entries);
        field "hits" (string_of_int c.hits);
        field "misses" (string_of_int c.misses);
        field "evictions" (string_of_int c.evictions);
        field "stale" (string_of_int c.stale);
        field "disk_hits" (string_of_int c.disk_hits);
        field "writes" (string_of_int c.writes);
        field "store_errors" (string_of_int c.store_errors);
      ]
  ^ "}"
