(** EAP temporal-latch discipline (paper 4.6).

    A write into a temporal register ("launch") opens a window on that
    latch; the next read of overlapping storage ("catch") closes it.
    While a window on clock [k] is open, Rule 1 forbids any other
    instruction affecting [k] from issuing. One tracker serves both
    enforcement sites: the scheduler's legality check ({!rule1_ok}, over
    the DAG's pending temporal edges) and Mircheck's M043/M044 walk over
    a block in issue order ({!launch}/{!catch}/{!blocking}).

    The simulator needs no tracker of its own: it realizes the same
    discipline operationally through per-byte latch ready-times (a catch
    cannot issue before its launch's latency expires), which is why it
    gates on {!Latency} rather than on windows. *)

type window = {
  w_clock : int;
  w_latch : Model.reg;
  w_launcher : string;  (** launching instruction name, for diagnostics *)
}

type t

val create : Model.t -> t

val has_temporal : Model.t -> bool
(** Does any register class of this model live on a clock at all? *)

val latches :
  Regtab.t ->
  (Regtab.t -> (int -> int -> unit) -> Mir.inst -> unit) ->
  Mir.inst ->
  (int * Model.reg) list
(** [latches tab walk i]: the temporal latches among the locations that
    [walk] ({!Locs.iter_reads} or {!Locs.iter_writes}) gives for [i],
    with their clocks, in walk order. *)

val catch : t -> Model.reg -> window list
(** Close every window whose latch overlaps the read register; returns
    the closed windows, newest first — [[]] means the read caught
    nothing (a latch never launched: Mircheck's M044). *)

val blocking : t -> clock:int -> window option
(** The newest open window on [clock], which Rule 1 says blocks any
    other instruction advancing that clock (Mircheck's M043). *)

val launch : t -> clock:int -> Model.reg -> launcher:string -> unit
(** Open a fresh window, superseding open windows on overlapping
    storage. *)

val rule1_ok :
  affects:int option -> pending:(int * int) list -> self:int -> bool
(** Rule 1 as a pure legality predicate over the scheduler's pending
    temporal edges [(clock, destination node)]: a candidate [self]
    affecting a clock may issue only if it is the destination of every
    pending edge on that clock. *)
