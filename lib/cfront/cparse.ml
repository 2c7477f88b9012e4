(* Recursive-descent parser for the mini-C subset. *)

open Cast

type state = { toks : Clex.token array; mutable pos : int }

let cur st = st.toks.(st.pos)

let kind st = (cur st).Clex.kind

let loc st = (cur st).Clex.loc

let advance st = if st.pos < Array.length st.toks - 1 then st.pos <- st.pos + 1

let err st fmt = Loc.fail (loc st) fmt

let kind_to_string = function
  | Clex.ID s -> Printf.sprintf "identifier %S" s
  | Clex.KW s -> Printf.sprintf "keyword %S" s
  | Clex.INT n -> string_of_int n
  | Clex.FLOAT f -> string_of_float f
  | Clex.CHAR c -> Printf.sprintf "%C" c
  | Clex.STRING s -> Printf.sprintf "%S" s
  | Clex.PUNCT p -> Printf.sprintf "%S" p
  | Clex.EOF -> "end of input"

let eat_punct st p =
  match kind st with
  | Clex.PUNCT q when q = p -> advance st
  | k -> err st "expected %S but found %s" p (kind_to_string k)

let is_punct st p = match kind st with Clex.PUNCT q -> q = p | _ -> false

let eat_kw st w =
  match kind st with
  | Clex.KW q when q = w -> advance st
  | k -> err st "expected %S but found %s" w (kind_to_string k)

let expect_id st =
  match kind st with
  | Clex.ID s ->
      advance st;
      s
  | k -> err st "expected identifier but found %s" (kind_to_string k)

(* ---------------- types ---------------- *)

(* a declaration may open with a storage class; a cast may not *)
let type_word ~decl = function
  | Clex.KW
      ( "void" | "char" | "short" | "int" | "long" | "float" | "double"
      | "unsigned" | "signed" | "const" ) ->
      true
  | Clex.KW ("static" | "register") -> decl
  | _ -> false

let starts_type st = type_word ~decl:true (kind st)

(* Base type: qualifiers are accepted and ignored; 'unsigned' is accepted
   and treated as its signed counterpart (Maril models the signed C native
   types, paper 3.1). *)
let parse_base_type st =
  let rec quals () =
    match kind st with
    | Clex.KW ("static" | "unsigned" | "signed" | "register" | "const") ->
        advance st;
        quals ()
    | _ -> ()
  in
  quals ();
  let t =
    match kind st with
    | Clex.KW "void" -> Tvoid
    | Clex.KW "char" -> Tchar
    | Clex.KW "short" -> Tshort
    | Clex.KW "int" -> Tint
    | Clex.KW "long" -> Tint
    | Clex.KW "float" -> Tfloat
    | Clex.KW "double" -> Tdouble
    | k -> err st "expected a type but found %s" (kind_to_string k)
  in
  advance st;
  (* 'long int', 'short int' *)
  (match (t, kind st) with
  | (Tint | Tshort), Clex.KW "int" -> advance st
  | _ -> ());
  quals ();
  t

(* pointer stars, then name, then array suffixes *)
let parse_declarator st base =
  let rec stars t =
    if is_punct st "*" then begin
      advance st;
      stars (Tptr t)
    end
    else t
  in
  let t = stars base in
  let name = expect_id st in
  (* a[2][3] is array 2 of array 3 of base *)
  let rec build t =
    if is_punct st "[" then begin
      advance st;
      let n =
        match kind st with
        | Clex.INT n ->
            advance st;
            n
        | Clex.PUNCT "]" -> 0
        | k -> err st "expected array size but found %s" (kind_to_string k)
      in
      eat_punct st "]";
      Tarray (build t, n)
    end
    else t
  in
  (name, build t)

(* ---------------- expressions ---------------- *)

(* binary operators by binding strength, loosest first *)
let binop = function
  | "||" -> Some (1, Blor)
  | "&&" -> Some (2, Bland)
  | "|" -> Some (3, Bor)
  | "^" -> Some (4, Bxor)
  | "&" -> Some (5, Band)
  | "==" -> Some (6, Beq)
  | "!=" -> Some (6, Bne)
  | "<" -> Some (7, Blt)
  | "<=" -> Some (7, Ble)
  | ">" -> Some (7, Bgt)
  | ">=" -> Some (7, Bge)
  | "<<" -> Some (8, Bshl)
  | ">>" -> Some (8, Bshr)
  | "+" -> Some (9, Badd)
  | "-" -> Some (9, Bsub)
  | "*" -> Some (10, Bmul)
  | "/" -> Some (10, Bdiv)
  | "%" -> Some (10, Brem)
  | _ -> None

let rec parse_expr st = parse_assign st

and parse_assign st =
  let l = loc st in
  let lhs = parse_cond st in
  let mk_assign op =
    advance st;
    let rhs = parse_assign st in
    { ek = Eassign (op, lhs, rhs); eloc = l }
  in
  match kind st with
  | Clex.PUNCT "=" -> mk_assign None
  | Clex.PUNCT "+=" -> mk_assign (Some Badd)
  | Clex.PUNCT "-=" -> mk_assign (Some Bsub)
  | Clex.PUNCT "*=" -> mk_assign (Some Bmul)
  | Clex.PUNCT "/=" -> mk_assign (Some Bdiv)
  | Clex.PUNCT "%=" -> mk_assign (Some Brem)
  | Clex.PUNCT "&=" -> mk_assign (Some Band)
  | Clex.PUNCT "|=" -> mk_assign (Some Bor)
  | Clex.PUNCT "^=" -> mk_assign (Some Bxor)
  | Clex.PUNCT "<<=" -> mk_assign (Some Bshl)
  | Clex.PUNCT ">>=" -> mk_assign (Some Bshr)
  | _ -> lhs

and parse_cond st =
  let l = loc st in
  let c = parse_binary st 1 in
  if is_punct st "?" then begin
    advance st;
    let t = parse_expr st in
    eat_punct st ":";
    let e = parse_cond st in
    { ek = Econd (c, t, e); eloc = l }
  end
  else c

(* precedence climbing over the left-associative binary levels *)
and parse_binary st min =
  let l = loc st in
  let rec go lhs =
    match kind st with
    | Clex.PUNCT p -> (
        match binop p with
        | Some (prec, op) when prec >= min ->
            advance st;
            let rhs = parse_binary st (prec + 1) in
            go { ek = Ebin (op, lhs, rhs); eloc = l }
        | _ -> lhs)
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  let l = loc st in
  match kind st with
  | Clex.PUNCT "-" ->
      advance st;
      { ek = Eun (Uneg, parse_unary st); eloc = l }
  | Clex.PUNCT "~" ->
      advance st;
      { ek = Eun (Ubnot, parse_unary st); eloc = l }
  | Clex.PUNCT "!" ->
      advance st;
      { ek = Eun (Ulnot, parse_unary st); eloc = l }
  | Clex.PUNCT "*" ->
      advance st;
      { ek = Eun (Uderef, parse_unary st); eloc = l }
  | Clex.PUNCT "&" ->
      advance st;
      { ek = Eun (Uaddr, parse_unary st); eloc = l }
  | Clex.PUNCT "++" ->
      advance st;
      { ek = Eincdec { pre = true; inc = true; lhs = parse_unary st }; eloc = l }
  | Clex.PUNCT "--" ->
      advance st;
      { ek = Eincdec { pre = true; inc = false; lhs = parse_unary st }; eloc = l }
  | Clex.PUNCT "(" when starts_type_at st 1 ->
      advance st;
      let base = parse_base_type st in
      let rec stars t =
        if is_punct st "*" then begin
          advance st;
          stars (Tptr t)
        end
        else t
      in
      let t = stars base in
      eat_punct st ")";
      { ek = Ecast (t, parse_unary st); eloc = l }
  | _ -> parse_postfix st

and starts_type_at st off =
  type_word ~decl:false st.toks.(st.pos + off).Clex.kind

and parse_postfix st =
  let l = loc st in
  let rec go e =
    match kind st with
    | Clex.PUNCT "[" ->
        advance st;
        let i = parse_expr st in
        eat_punct st "]";
        go { ek = Eindex (e, i); eloc = l }
    | Clex.PUNCT "++" ->
        advance st;
        go { ek = Eincdec { pre = false; inc = true; lhs = e }; eloc = l }
    | Clex.PUNCT "--" ->
        advance st;
        go { ek = Eincdec { pre = false; inc = false; lhs = e }; eloc = l }
    | _ -> e
  in
  go (parse_primary st)

and parse_primary st =
  let l = loc st in
  match kind st with
  | Clex.INT n ->
      advance st;
      { ek = Eint n; eloc = l }
  | Clex.FLOAT f ->
      advance st;
      { ek = Efloat f; eloc = l }
  | Clex.CHAR c ->
      advance st;
      { ek = Echar c; eloc = l }
  | Clex.STRING s ->
      advance st;
      { ek = Estr s; eloc = l }
  | Clex.ID name -> (
      advance st;
      match kind st with
      | Clex.PUNCT "(" ->
          advance st;
          let args =
            if is_punct st ")" then []
            else
              let rec go acc =
                let a = parse_assign st in
                if is_punct st "," then begin
                  advance st;
                  go (a :: acc)
                end
                else List.rev (a :: acc)
              in
              go []
          in
          eat_punct st ")";
          { ek = Ecall (name, args); eloc = l }
      | _ -> { ek = Eid name; eloc = l })
  | Clex.PUNCT "(" ->
      advance st;
      let e = parse_expr st in
      eat_punct st ")";
      e
  | k -> err st "expected expression but found %s" (kind_to_string k)

(* ---------------- initializers ---------------- *)

let rec parse_init st =
  if is_punct st "{" then begin
    advance st;
    let items =
      if is_punct st "}" then []
      else
        let rec go acc =
          let i = parse_init st in
          if is_punct st "," then begin
            advance st;
            if is_punct st "}" then List.rev (i :: acc) else go (i :: acc)
          end
          else List.rev (i :: acc)
        in
        go []
    in
    eat_punct st "}";
    Ilist items
  end
  else Iexpr (parse_expr st)

(* ---------------- statements ---------------- *)

let rec parse_stmt st : stmt =
  let l = loc st in
  match kind st with
  | Clex.PUNCT "{" -> parse_block st
  | Clex.PUNCT ";" ->
      advance st;
      { sk = Sempty; sloc = l }
  | Clex.KW "if" ->
      advance st;
      eat_punct st "(";
      let c = parse_expr st in
      eat_punct st ")";
      let then_ = parse_stmt st in
      let else_ =
        match kind st with
        | Clex.KW "else" ->
            advance st;
            Some (parse_stmt st)
        | _ -> None
      in
      { sk = Sif (c, then_, else_); sloc = l }
  | Clex.KW "while" ->
      advance st;
      eat_punct st "(";
      let c = parse_expr st in
      eat_punct st ")";
      { sk = Swhile (c, parse_stmt st); sloc = l }
  | Clex.KW "do" ->
      advance st;
      let body = parse_stmt st in
      eat_kw st "while";
      eat_punct st "(";
      let c = parse_expr st in
      eat_punct st ")";
      eat_punct st ";";
      { sk = Sdo (body, c); sloc = l }
  | Clex.KW "for" ->
      advance st;
      eat_punct st "(";
      let init =
        if is_punct st ";" then begin
          advance st;
          None
        end
        else if starts_type st then begin
          let s = parse_decl_stmt st in
          Some s
        end
        else begin
          let e = parse_expr st in
          eat_punct st ";";
          Some { sk = Sexpr e; sloc = l }
        end
      in
      let cond =
        if is_punct st ";" then None else Some (parse_expr st)
      in
      eat_punct st ";";
      let step = if is_punct st ")" then None else Some (parse_expr st) in
      eat_punct st ")";
      { sk = Sfor (init, cond, step, parse_stmt st); sloc = l }
  | Clex.KW "return" ->
      advance st;
      let e = if is_punct st ";" then None else Some (parse_expr st) in
      eat_punct st ";";
      { sk = Sreturn e; sloc = l }
  | Clex.KW "break" ->
      advance st;
      eat_punct st ";";
      { sk = Sbreak; sloc = l }
  | Clex.KW "continue" ->
      advance st;
      eat_punct st ";";
      { sk = Scontinue; sloc = l }
  | Clex.KW _ when starts_type st -> parse_decl_stmt st
  | _ ->
      let e = parse_expr st in
      eat_punct st ";";
      { sk = Sexpr e; sloc = l }

and parse_decl_stmt st =
  let l = loc st in
  let base = parse_base_type st in
  let rec go acc =
    let name, ty = parse_declarator st base in
    let init =
      if is_punct st "=" then begin
        advance st;
        Some (parse_init st)
      end
      else None
    in
    let acc = (ty, name, init) :: acc in
    if is_punct st "," then begin
      advance st;
      go acc
    end
    else begin
      eat_punct st ";";
      List.rev acc
    end
  in
  { sk = Sdecl (go []); sloc = l }

and parse_block st =
  let l = loc st in
  eat_punct st "{";
  let rec go acc =
    if is_punct st "}" then begin
      advance st;
      List.rev acc
    end
    else go (parse_stmt st :: acc)
  in
  { sk = Sblock (go []); sloc = l }

(* ---------------- top level ---------------- *)

let parse_params st =
  eat_punct st "(";
  if is_punct st ")" then begin
    advance st;
    []
  end
  else if kind st = Clex.KW "void" && st.toks.(st.pos + 1).Clex.kind = Clex.PUNCT ")"
  then begin
    advance st;
    advance st;
    []
  end
  else begin
    let rec go acc =
      let base = parse_base_type st in
      let name, ty = parse_declarator st base in
      (* array parameters decay to pointers *)
      let ty = match ty with Tarray (t, _) -> Tptr t | t -> t in
      let acc = (ty, name) :: acc in
      if is_punct st "," then begin
        advance st;
        go acc
      end
      else begin
        eat_punct st ")";
        List.rev acc
      end
    in
    go []
  end

let parse_top st : top list =
  let l = loc st in
  let base = parse_base_type st in
  (* peek: declarator then '(' means function *)
  let name, ty = parse_declarator st base in
  if is_punct st "(" then begin
    let params = parse_params st in
    if is_punct st ";" then begin
      (* prototype: recorded implicitly, nothing to generate *)
      advance st;
      []
    end
    else
      let body = parse_block st in
      [ Tfunc { cf_name = name; cf_ret = ty; cf_params = params; cf_body = body; cf_loc = l } ]
  end
  else begin
    let rec go acc name ty =
      let init =
        if is_punct st "=" then begin
          advance st;
          Some (parse_init st)
        end
        else None
      in
      let acc = Tglobal (ty, name, init, l) :: acc in
      if is_punct st "," then begin
        advance st;
        let name, ty = parse_declarator st base in
        go acc name ty
      end
      else begin
        eat_punct st ";";
        List.rev acc
      end
    in
    go [] name ty
  end

let parse ~file src : tunit =
  let st = { toks = Clex.tokenize ~file src; pos = 0 } in
  let rec go acc =
    match kind st with
    | Clex.EOF -> List.concat (List.rev acc)
    | _ -> go (parse_top st :: acc)
  in
  go []
