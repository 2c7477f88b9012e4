(** Deterministic fault injection at pass boundaries.

    A plan names (pass, function) sites where the pass guard
    ({!Guard.protect}) must raise a synthetic fault instead of (or after)
    running the pass, so every recovery path of the degradation driver —
    exception trap, timeout, ladder walk, ladder exhaustion, skip — is
    exercisable in tests and CI without flaky timing tricks. Plans come
    from [marionc --finject] or [$MARION_FINJECT].

    The concrete syntax is a comma-separated rule list:

    - [PASS:FN:KIND] — inject at the named site. [PASS] and [FN] are
      exact names or the wildcard [*]; [KIND] is [exn], [timeout] or
      [diag].
    - [seed=N:RATE:KIND] — seeded pseudo-random coverage: inject at every
      (pass, function) site whose hash with seed [N] is divisible by
      [RATE]. The hash depends only on the seed and the two names, so a
      given plan injects at exactly the same sites in every run, process,
      and job count.

    The first matching rule arms the site. Matching is purely a function
    of the plan and the two names — never of time, memory layout or
    scheduling — which is what keeps fault-injection runs bit-identical
    at any [-j]. *)

type kind = [ `Exn | `Timeout | `Diag ]

type rule =
  | Site of { pass : string; fn : string; kind : kind }
      (** exact names or ["*"] wildcards *)
  | Seeded of { seed : int; rate : int; kind : kind }
      (** arm sites where [hash (seed, pass, fn) mod rate = 0] *)

type plan = rule list

val empty : plan

val parse : string -> (plan, string) result
(** Parse the concrete syntax above. [Error msg] names the offending
    rule; the empty string parses to {!empty}. *)

val to_string : plan -> string
(** Round-trips through {!parse}. *)

val arm : plan -> pass:string -> fn:string -> kind option
(** The kind the first matching rule injects at this site, if any. *)

val may_target : plan -> fn:string -> bool
(** Whether any rule could match some pass of this function. Drivers use
    this to bypass cache {e lookups} for targeted functions, so a warm
    cache can never mask an injection (a hit would skip the pipeline and
    with it the pass boundary the fault is planted at). Seeded rules may
    target any function. *)
