(* A minimal JSON value with a printer and a parser: enough for the
   harness's own result documents, BENCH_*.json files and Chrome
   trace-event output. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

(* every digit the float carries; non-finite values have no JSON form *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "null"

(* [indent] > 0 puts each member of an object or list on its own line *)
let to_string ?(indent = 0) v =
  let b = Buffer.create 4096 in
  let nl depth =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (indent * depth) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (string_of_bool x)
    | Int i -> Buffer.add_string b (string_of_int i)
    | Float f -> Buffer.add_string b (float_repr f)
    | String s -> escape b s
    | List [] -> Buffer.add_string b "[]"
    | Obj [] -> Buffer.add_string b "{}"
    | List l ->
        (* lists of scalars stay on one line *)
        let flat = List.for_all (function List _ | Obj _ -> false | _ -> true) l in
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_string b (if flat then ", " else ",");
            if not flat then nl (depth + 1);
            go (depth + 1) x)
          l;
        if not flat then nl depth;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_string b (if indent > 0 then "," else ", ");
            nl (depth + 1);
            escape b k;
            Buffer.add_string b ": ";
            go (depth + 1) x)
          kvs;
        nl depth;
        Buffer.add_char b '}'
  in
  go 0 v;
  Buffer.contents b

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\n' | '\r' | '\t' ->
        incr pos;
        ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let word w v =
    if !pos + String.length w <= n && String.sub s !pos (String.length w) = w
    then begin
      pos := !pos + String.length w;
      v
    end
    else fail "bad literal"
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec loop () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          let e = peek () in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              (* the harness only writes ASCII escapes *)
              Buffer.add_char b (Char.chr (code land 0xff))
          | c -> Buffer.add_char b c);
          loop ()
      | c ->
          Buffer.add_char b c;
          loop ()
    in
    loop ()
  in
  let number () =
    let start = !pos in
    while
      match peek () with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            let k = str () in
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                ws ();
                members ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then begin
          incr pos;
          List []
        end
        else
          let rec elems acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                elems (v :: acc)
            | ']' ->
                incr pos;
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elems []
    | '"' -> String (str ())
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> number ()
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let write_file path v =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (to_string ~indent:1 v);
  output_char oc '\n';
  close_out oc;
  Sys.rename tmp path

(* accessors raising [Parse_error] with the missing key's name, so a
   malformed BENCH file names what it lacks *)
let member k = function
  | Obj kvs -> (
      match List.assoc_opt k kvs with
      | Some v -> v
      | None -> raise (Parse_error ("missing key " ^ k)))
  | _ -> raise (Parse_error ("not an object looking up " ^ k))

let path doc keys = List.fold_left (fun d k -> member k d) doc keys

let to_float = function
  | Int i -> float_of_int i
  | Float f -> f
  | _ -> raise (Parse_error "expected a number")

let to_int = function
  | Int i -> i
  | Float f when Float.is_integer f -> int_of_float f
  | _ -> raise (Parse_error "expected an integer")

let to_str = function
  | String s -> s
  | _ -> raise (Parse_error "expected a string")

let to_list = function
  | List l -> l
  | _ -> raise (Parse_error "expected a list")

let to_obj = function
  | Obj kvs -> kvs
  | _ -> raise (Parse_error "expected an object")
