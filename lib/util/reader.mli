(** A character cursor over an in-memory source string with position
    tracking. Both hand-written lexers (Maril and mini-C) are built on it.
    Only {!make}, {!loc} and {!take_while} allocate. *)

type t

val make : file:string -> string -> t

val loc : t -> Loc.t

val eof : t -> bool

val peek : t -> char
(** The current character, or ['\000'] at end of input: a source may
    hold NUL itself, so test {!eof} where the two must differ. *)

val peek2 : t -> char
(** The character after {!peek}, or ['\000'] past the end. *)

val advance : t -> unit
(** Consume one character, updating line/column. No-op at end of input. *)

val skip_while : t -> (char -> bool) -> unit

val take_while : t -> (char -> bool) -> string
(** The characters {!skip_while} consumes, as one substring. *)
