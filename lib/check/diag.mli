(** Structured diagnostics shared by {!Mircheck} (the MIR verifier) and
    {!Marilint} (the description linter).

    Every diagnostic carries a stable machine-readable code ([M0xx] for MIR
    invariants, [M4x] hazard re-checks, [L0xx] for description lints), a
    severity, the pipeline phase it was detected at (verifier only), a
    source location when one is known (description declaration sites), and
    the function/block it points into (verifier only). *)

type severity = Error | Warning

type phase = Post_select | Post_regalloc | Post_sched | Final

val phase_name : phase -> string

type t = {
  code : string;  (** stable diagnostic code, e.g. ["M004"] *)
  severity : severity;
  phase : phase option;  (** [None] for description lints *)
  loc : Loc.t;  (** [Loc.dummy] when no source location applies *)
  func : string option;  (** MIR function *)
  block : string option;  (** MIR block label *)
  message : string;
}

val make :
  ?severity:severity -> ?phase:phase -> ?loc:Loc.t -> ?func:string ->
  ?block:string -> code:string -> string -> t
(** [make ~code msg] builds a diagnostic; [severity] defaults to
    [Error]. *)

val errors : t list -> t list
(** Only the [Error]-severity diagnostics. *)

val has_errors : t list -> bool

exception Check_error of t list
(** Raised by the [_exn] entry points when a check finds errors. The list
    always contains at least one [Error]. *)

val raise_if_errors : t list -> t list
(** Raise {!Check_error} with the error subset if any; otherwise return
    the full list (warnings included) unchanged. *)

val compare_render : t -> t -> int
(** Render-order comparison: (function, phase, code, location), then
    block and message as tie-breakers. [None] sorts before [Some] in
    each optional component; phases follow pipeline order. *)

val sort : t list -> t list
(** Stable sort by {!compare_render}. Drivers sort diagnostics with this
    before text/JSON rendering so the printed order is a pure function
    of the diagnostics themselves — byte-identical however the compile
    was scheduled ([-j N] included). *)

(** {1 Rendering} *)

val pp : Format.formatter -> t -> unit
(** One-line human-readable rendering:
    [file:line:col: error M004 \[post-sched f/L3\]: message]. *)

val to_string : t -> string

val json_escape : string -> string
(** JSON string-body escaping (no surrounding quotes). Shared by the
    diagnostic renderer and other dependency-free JSON emitters in the
    system (e.g. {!Profile.to_json}). *)

val to_json : t -> string
(** One diagnostic as a JSON object. *)

val list_to_json : t list -> string
(** A JSON array of diagnostics (machine-readable [-check-format=json]
    output). *)
