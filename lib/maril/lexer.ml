let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c || c = '.'
(* '.' appears inside mnemonics such as fadd.d and tags such as s.movs. *)

let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let int_lit loc s =
  match int_of_string_opt s with
  | Some n -> n
  | None -> Loc.fail loc "integer literal out of range"

let lex_number r loc =
  match (Reader.peek r, Reader.peek2 r) with
  | '0', ('x' | 'X') ->
      Reader.advance r;
      Reader.advance r;
      let digits = Reader.take_while r is_hex in
      if digits = "" then Loc.fail loc "malformed hex literal";
      Token.INT (int_lit loc ("0x" ^ digits))
  | _ ->
      let digits = Reader.take_while r is_digit in
      if Reader.peek r = '.' && is_digit (Reader.peek2 r) then begin
        Reader.advance r;
        let frac = Reader.take_while r is_digit in
        Token.FLOAT (float_of_string (digits ^ "." ^ frac))
      end
      else Token.INT (int_lit loc digits)

let rec skip_ws_and_comments r =
  Reader.skip_while r (fun c -> c = ' ' || c = '\t' || c = '\n' || c = '\r');
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
      skip_ws_and_comments r
  | '/', '/' ->
      Reader.skip_while r (fun c -> c <> '\n');
      skip_ws_and_comments r
  | _ -> ()

let token r : Token.kind option =
  skip_ws_and_comments r;
  let loc = Reader.loc r in
  if Reader.eof r then None
  else
    let adv n k =
      for _ = 1 to n do
        Reader.advance r
      done;
      k
    in
    Some
      (match Reader.peek r with
      | '0' .. '9' -> lex_number r loc
      | c when is_ident_start c ->
          Token.IDENT (Reader.take_while r is_ident_char)
      | '%' ->
          Reader.advance r;
          if is_ident_start (Reader.peek r) then
            Token.DIRECTIVE (Reader.take_while r is_ident_char)
          else Token.PERCENT
      | '$' ->
          Reader.advance r;
          let digits = Reader.take_while r is_digit in
          if digits = "" then Loc.fail loc "expected digits after '$'";
          Token.DOLLAR (int_lit loc digits)
      | '+' ->
          Reader.advance r;
          if is_ident_start (Reader.peek r) then
            Token.PLUSFLAG (Reader.take_while r is_ident_char)
          else Token.PLUS
      | '{' -> adv 1 Token.LBRACE
      | '}' -> adv 1 Token.RBRACE
      | '[' -> adv 1 Token.LBRACK
      | ']' -> adv 1 Token.RBRACK
      | '(' -> adv 1 Token.LPAREN
      | ')' -> adv 1 Token.RPAREN
      | ';' -> adv 1 Token.SEMI
      | ',' -> adv 1 Token.COMMA
      | '.' -> adv 1 Token.DOT
      | '#' -> adv 1 Token.HASH
      | '*' -> adv 1 Token.STAR
      | '-' -> adv 1 Token.MINUS
      | '/' -> adv 1 Token.SLASH
      | '&' -> adv 1 Token.AMP
      | '|' -> adv 1 Token.BAR
      | '^' -> adv 1 Token.CARET
      | '~' -> adv 1 Token.TILDE
      | ':' ->
          if Reader.peek2 r = ':' then adv 2 Token.COLONCOLON
          else adv 1 Token.COLON
      | '=' -> (
          match Reader.peek2 r with
          | '=' -> (
              Reader.advance r;
              Reader.advance r;
              match Reader.peek r with
              | '>' -> adv 1 Token.ARROW
              | '=' ->
                  (* the paper prints '===' for '=='; accept it *)
                  adv 1 Token.EQEQ
              | _ -> Token.EQEQ)
          | _ -> adv 1 Token.ASSIGN)
      | '!' ->
          if Reader.peek2 r = '=' then adv 2 Token.NE else adv 1 Token.BANG
      | '<' -> (
          match Reader.peek2 r with
          | '=' -> adv 2 Token.LE
          | '<' -> adv 2 Token.SHL
          | _ -> adv 1 Token.LT)
      | '>' -> (
          match Reader.peek2 r with
          | '=' -> adv 2 Token.GE
          | '>' ->
              Reader.advance r;
              Reader.advance r;
              if Reader.peek r = '>' then adv 1 Token.SHRU else Token.SHR
          | _ -> adv 1 Token.GT)
      | c -> Loc.fail loc "unexpected character %C" c)

let tokenize ~file src =
  let r = Reader.make ~file src in
  let toks = ref [] in
  let rec go () =
    skip_ws_and_comments r;
    let loc = Reader.loc r in
    match token r with
    | None -> toks := { Token.kind = Token.EOF; loc } :: !toks
    | Some kind ->
        toks := { Token.kind; loc } :: !toks;
        go ()
  in
  go ();
  Array.of_list (List.rev !toks)
