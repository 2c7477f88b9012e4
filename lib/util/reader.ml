type t = {
  file : string;
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the first character of [line] *)
}

let make ~file src = { file; src; pos = 0; line = 1; bol = 0 }

let loc t = Loc.make ~file:t.file ~line:t.line ~col:(t.pos - t.bol + 1)

let eof t = t.pos >= String.length t.src

let char_at t i =
  if i < String.length t.src then String.unsafe_get t.src i else '\000'

let peek t = char_at t t.pos

let peek2 t = char_at t (t.pos + 1)

(* [t.pos] is in bounds *)
let step t =
  if String.unsafe_get t.src t.pos = '\n' then begin
    t.line <- t.line + 1;
    t.bol <- t.pos + 1
  end;
  t.pos <- t.pos + 1

let advance t = if not (eof t) then step t

let skip_while t p =
  let n = String.length t.src in
  while t.pos < n && p (String.unsafe_get t.src t.pos) do
    step t
  done

let take_while t p =
  let start = t.pos in
  skip_while t p;
  String.sub t.src start (t.pos - start)
