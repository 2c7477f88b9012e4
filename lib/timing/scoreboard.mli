(** Ring-buffer resource scoreboard (paper 4.3).

    Tracks which machine resources are occupied on each cycle of a sliding
    window. The window length is the model's longest resource vector — an
    instruction issued on cycle [c] can occupy resources no later than
    [c + span - 1], so once every consumer probes at monotonically
    non-decreasing cycles (the scheduler clock and the simulator clock),
    [span] slots suffice and memory stays bounded for arbitrarily long
    runs.

    Occupancy is packed into machine words: each cycle is a row of
    [⌈resources / Sys.int_size⌉] ints, and each instruction's resource
    vector is packed once per model (memoized by physical identity) into
    (cycle offset, word, mask) triples, so a probe tests one ring word
    per non-empty word of the vector.

    The scoreboard also keeps the packing classes (paper 4.5) still open
    on the cycle of its last classed {!reserve}: an instruction with a
    packing class joins that cycle only if its class meets every class
    already issued there. Every other cycle has all classes open, so the
    state needs no closing when a clock moves on.

    One scoreboard serves the list scheduler and the simulator. *)

type stats = {
  mutable probes : int;  (** [conflict] queries *)
  mutable conflicts : int;  (** queries that found a resource busy *)
  mutable reserves : int;  (** successful reservations *)
}

val make_stats : unit -> stats

type t

val create : ?stats:stats -> Model.t -> t
(** An empty scoreboard over the model's resources; when [stats] is given,
    every {!conflict} and {!reserve} is counted into it. *)

val window : t -> int
(** The window length: the model's maximum resource-vector span (at
    least 1). *)

val reset : t -> unit
(** Clear all occupancy, open every packing class and rewind the window
    base to cycle 0. *)

val conflict : t -> cycle:int -> Model.instr -> bool
(** [conflict t ~cycle i]: can [i] (an instruction of the scoreboard's
    model) not issue on [cycle]? True when its packing class meets none
    still open there, or when it would collide with a prior reservation.
    A closed class is refused first, without a counted probe: [stats]
    counts only the resource probes. Advances the window to [cycle].
    Raises [Invalid_argument] if [cycle] is behind the window base —
    probes must be monotone. *)

val reserve : t -> cycle:int -> Model.instr -> unit
(** Occupy [i]'s resource vector starting at [cycle] and, if [i] has a
    packing class, narrow what is open on [cycle] to that class.
    Advances the window; the same monotonicity contract as {!conflict}
    applies. *)

val first_free : t -> cycle:int -> Model.instr -> int
(** The earliest cycle [>= cycle] at which [i] would not {!conflict}:
    one where its class is open and its resources are free. Does not
    move the window and is not counted in [stats]; [cycle] must not be
    behind the window base. *)

(** {2 Saving and restoring the window}

    Every probe and reservation at a cycle [c] or later depends only on
    the rows [c .. c+span-1] and, when [c] is the cycle of the last
    classed reservation, on the classes still open there. The simulator
    memoizes the timing of straight-line code on that state. *)

val state_words : t -> int
(** The most ints {!export} writes. *)

val export : t -> cycle:int -> int array -> int -> int
(** [export t ~cycle buf pos] writes the state that decides every probe
    and reservation at [cycle] or later into [buf] from index [pos], in
    a canonical form relative to [cycle], and returns the index after
    the last int written: two scoreboards whose exports at their own
    cycles are equal answer every later probe alike, shifted by the
    difference of the cycles. Trailing free rows are not written, so the
    length varies. [cycle] must not be behind the window base. *)

val import : t -> cycle:int -> int array -> int -> unit
(** [import t ~cycle buf pos] makes the window start at [cycle] and hold
    the state an {!export} wrote at [buf.(pos)], shifted to [cycle]. *)
