(* Lexer for the mini-C front end. It dispatches on characters: each
   token costs a [match] on at most three characters, or on the scanned
   identifier for the reserved words. *)

type kind =
  | ID of string
  | KW of string  (* reserved word *)
  | INT of int
  | FLOAT of float
  | CHAR of char
  | STRING of string
  | PUNCT of string  (* operators and punctuation, longest match *)
  | EOF

type token = { kind : kind; loc : Loc.t }

let is_digit c = c >= '0' && c <= '9'

let is_id_char c =
  is_digit c || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let rec skip_ws r =
  Reader.skip_while r is_space;
  match (Reader.peek r, Reader.peek2 r) with
  | '/', '*' ->
      let loc = Reader.loc r in
      Reader.advance r;
      Reader.advance r;
      let rec close () =
        Reader.skip_while r (fun c -> c <> '*');
        if Reader.eof r then Loc.fail loc "unterminated comment";
        Reader.advance r;
        if Reader.peek r = '/' then Reader.advance r else close ()
      in
      close ();
      skip_ws r
  | '/', '/' | '#', _ ->
      (* a line comment, or a directive line: there is no preprocessor *)
      Reader.skip_while r (fun c -> c <> '\n');
      skip_ws r
  | _ -> ()

let escape loc = function
  | 'n' -> '\n'
  | 't' -> '\t'
  | 'r' -> '\r'
  | '0' -> '\000'
  | '\\' -> '\\'
  | '\'' -> '\''
  | '"' -> '"'
  | c -> Loc.fail loc "unknown escape '\\%c'" c

let int_lit loc s =
  match int_of_string_opt s with
  | Some n -> INT n
  | None -> Loc.fail loc "integer literal out of range"

let lex_number r loc =
  match (Reader.peek r, Reader.peek2 r) with
  | '0', ('x' | 'X') ->
      Reader.advance r;
      Reader.advance r;
      let d = Reader.take_while r is_hex in
      if d = "" then Loc.fail loc "malformed hex literal";
      int_lit loc ("0x" ^ d)
  | _ -> (
      let d = Reader.take_while r is_digit in
      let frac =
        (* a fraction, but not '..' *)
        if Reader.peek r = '.' && Reader.peek2 r <> '.' then begin
          Reader.advance r;
          Some (Reader.take_while r is_digit)
        end
        else None
      in
      let exp =
        match Reader.peek r with
        | 'e' | 'E' ->
            Reader.advance r;
            let sign =
              match Reader.peek r with
              | ('+' | '-') as c ->
                  Reader.advance r;
                  String.make 1 c
              | _ -> ""
            in
            let ds = Reader.take_while r is_digit in
            if ds = "" then Loc.fail loc "malformed exponent";
            Some (sign ^ ds)
        | _ -> None
      in
      (* trailing suffixes f/F/l/L/u/U are accepted and ignored *)
      Reader.skip_while r (function
        | 'f' | 'F' | 'l' | 'L' | 'u' | 'U' -> true
        | _ -> false);
      match (frac, exp) with
      | None, None -> int_lit loc d
      | _ ->
          let s =
            d
            ^ (match frac with Some f -> "." ^ f | None -> "")
            ^ match exp with Some e -> "e" ^ e | None -> ""
          in
          FLOAT (float_of_string s))

let word s =
  match s with
  | "void" | "char" | "short" | "int" | "long" | "float" | "double" | "if"
  | "else" | "while" | "do" | "for" | "return" | "break" | "continue"
  | "static" | "unsigned" | "signed" | "register" | "const" ->
      KW s
  | _ -> ID s

(* the character or string literal's next character; [what] names it *)
let lit_char r loc what =
  if Reader.eof r then Loc.fail loc "unterminated %s literal" what;
  let c = Reader.peek r in
  Reader.advance r;
  c

(* the one-character strings, shared by every token that spells one *)
let one_char = Array.init 256 (fun i -> String.make 1 (Char.chr i))

(* consume the [n] (1 or 2) characters that spell [p] *)
let take r n p =
  if n = 2 then Reader.advance r;
  Reader.advance r;
  p

let shift r p p_eq =
  take r 2 ();
  if Reader.peek r = '=' then take r 1 p_eq else p

(* Longest-match punctuation on two characters of lookahead, and a third
   for <<= and >>=. *)
let punct r loc c =
  match (c, Reader.peek2 r) with
  | '<', '<' -> shift r "<<" "<<="
  | '>', '>' -> shift r ">>" ">>="
  | '=', '=' -> take r 2 "=="
  | '!', '=' -> take r 2 "!="
  | '<', '=' -> take r 2 "<="
  | '>', '=' -> take r 2 ">="
  | '&', '&' -> take r 2 "&&"
  | '|', '|' -> take r 2 "||"
  | '+', '=' -> take r 2 "+="
  | '-', '=' -> take r 2 "-="
  | '*', '=' -> take r 2 "*="
  | '/', '=' -> take r 2 "/="
  | '%', '=' -> take r 2 "%="
  | '&', '=' -> take r 2 "&="
  | '|', '=' -> take r 2 "|="
  | '^', '=' -> take r 2 "^="
  | '+', '+' -> take r 2 "++"
  | '-', '-' -> take r 2 "--"
  | '-', '>' -> take r 2 "->"
  | ( '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^' | '~' | '!' | '<' | '>'
    | '=' | '(' | ')' | '[' | ']' | '{' | '}' | ';' | ',' | '?' | ':' | '.' ),
      _ ->
      take r 1 one_char.(Char.code c)
  | _ -> Loc.fail loc "unexpected character %C" c

(* one token starting at [loc], after [skip_ws] *)
let token r loc : kind =
  if Reader.eof r then EOF
  else
    match Reader.peek r with
    | '0' .. '9' -> lex_number r loc
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> word (Reader.take_while r is_id_char)
    | '\'' ->
        Reader.advance r;
        let c =
          match lit_char r loc "character" with
          | '\\' -> escape loc (lit_char r loc "character")
          | c -> c
        in
        if lit_char r loc "character" <> '\'' then
          Loc.fail loc "unterminated character literal";
        CHAR c
    | '"' ->
        Reader.advance r;
        let buf = Buffer.create 16 in
        let rec go () =
          match lit_char r loc "string" with
          | '"' -> ()
          | '\\' ->
              Buffer.add_char buf (escape loc (lit_char r loc "string"));
              go ()
          | c ->
              Buffer.add_char buf c;
              go ()
        in
        go ();
        STRING (Buffer.contents buf)
    | c -> PUNCT (punct r loc c)

let tokenize ~file src =
  let r = Reader.make ~file src in
  let rec go acc =
    skip_ws r;
    let loc = Reader.loc r in
    match token r loc with
    | EOF -> Array.of_list (List.rev ({ kind = EOF; loc } :: acc))
    | kind -> go ({ kind; loc } :: acc)
  in
  go []
