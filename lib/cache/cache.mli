(** Content-addressed compilation cache.

    Maps a {!Ckey} — (IL function, machine model, pipeline identity) —
    to everything one function's trip through selection and the strategy
    pipeline produced: the final MIR and the deterministic parts of the
    per-function report (pass statistics, verifier and validator
    diagnostics, code-shape counters). A warm lookup replays them
    bit-identically; only timings differ.

    Two layers share one representation (a marshaled payload blob with
    the machine model stripped):

    - an in-memory LRU, mutex-guarded so compile units running on
      {!Dpool} domains can share it safely. Hits hand back a {e fresh}
      unmarshaled copy, so callers may mutate the result (simulation,
      [--ghfill]) without corrupting the cache;
    - an optional on-disk store ([~dir]), one file per key, written via
      temp file + atomic rename. Files carry a magic + format-version +
      digest header; anything unreadable — wrong magic, other format or
      compiler version, truncated or corrupted blob, key mismatch — is
      rejected as a {e miss} (counted under [stale]), never an error.

    The cache is semantically invisible: keys cover every input that can
    change an output, so a model edit, strategy change or flag change
    simply misses and recompiles. *)

type payload = {
  c_func : Mir.func;  (** the function after the full pipeline *)
  c_stats : Pass.stats;  (** spills, schedule passes, estimates, budget *)
  c_diags : Diag.t list;  (** verifier diagnostics, oldest-first *)
  c_vdiags : Diag.t list;  (** validator diagnostics, oldest-first *)
  c_insts : int;  (** final instruction count (profile shape) *)
}

type counters = {
  hits : int;  (** lookups served, memory and disk together *)
  misses : int;  (** lookups that found nothing usable *)
  evictions : int;  (** in-memory entries dropped by the LRU cap *)
  stale : int;  (** rejected entries: bad header, version, digest *)
  disk_hits : int;  (** subset of [hits] served from the disk layer *)
  writes : int;  (** payloads persisted to disk *)
  store_errors : int;
      (** write-side failures (ENOSPC, permissions, bad path) during the
          temp-file + rename store: counted, never raised — the entry
          simply stays cold on disk ([--cache-stats] surfaces these) *)
}

type t

val create : ?capacity:int -> ?dir:string -> unit -> t
(** [capacity] bounds the in-memory layer in entries (default 1024);
    least-recently-used entries are evicted past it. [dir] enables the
    persistent layer, creating the directory if needed. *)

val dir : t -> string option

val find : t -> Model.t -> key:Ckey.t -> payload option
(** Look [key] up in memory, then on disk. The model must be the one the
    key was derived from (its digest is part of the key); it is
    re-attached to the returned function, with instruction operations
    re-pointed at the live model's tables. *)

val store : t -> key:Ckey.t -> payload -> unit
(** Insert into memory (evicting past capacity) and, when persistent,
    write through to disk atomically. Never raises on I/O failure — a
    cache that cannot write simply stays cold, and each failed write is
    counted under [store_errors]. *)

val counters : t -> counters
(** A consistent snapshot of the lifetime counters. *)

val stats_text : t -> string

val stats_json : t -> string
(** One JSON object:
    [{"enabled":true,"dir":…,"capacity":…,"entries":…,"hits":…,
      "misses":…,"evictions":…,"stale":…,"disk_hits":…,"writes":…,
      "store_errors":…}]. *)
