(** Bit-identity digests of the compiler's observable output over a fixed
    Livermore subset, one per (target, strategy) cell — shared by the
    golden-table generator ([bench/goldens.exe]) and the test asserting
    the table ([test/test_timing.ml]). *)

val cell_digest : jobs:int -> Model.t -> Strategy.name -> string
(** Hex MD5 of the cell's assembly, deterministic report fields,
    simulator results and per-function cache keys, compiled under
    {!Strategy.default} with [jobs] domains. *)
