type severity = Error | Warning

type phase = Post_select | Post_regalloc | Post_sched | Final

let phase_name = function
  | Post_select -> "post-select"
  | Post_regalloc -> "post-regalloc"
  | Post_sched -> "post-sched"
  | Final -> "final"

type t = {
  code : string;
  severity : severity;
  phase : phase option;
  loc : Loc.t;
  func : string option;
  block : string option;
  message : string;
}

let make ?(severity = Error) ?phase ?(loc = Loc.dummy) ?func ?block ~code
    message =
  { code; severity; phase; loc; func; block; message }

let errors l = List.filter (fun d -> d.severity = Error) l

let has_errors l = List.exists (fun d -> d.severity = Error) l

exception Check_error of t list

let severity_name = function Error -> "error" | Warning -> "warning"

let pp ppf d =
  if d.loc <> Loc.dummy then Format.fprintf ppf "%a: " Loc.pp d.loc;
  Format.fprintf ppf "%s %s" (severity_name d.severity) d.code;
  (match (d.phase, d.func, d.block) with
  | None, None, None -> ()
  | _ ->
      let parts =
        List.filter_map Fun.id
          [
            Option.map phase_name d.phase;
            d.func;
            Option.map (fun b -> "block " ^ b) d.block;
          ]
      in
      Format.fprintf ppf " [%s]" (String.concat " " parts));
  Format.fprintf ppf ": %s" d.message

let to_string d = Format.asprintf "%a" pp d

let raise_if_errors l =
  match errors l with [] -> l | errs -> raise (Check_error errs)

(* Render-order comparison: (function, phase, code, location), then the
   remaining fields so equal keys still order deterministically. [None]
   sorts first in each optional component; phases follow pipeline order. *)
let phase_rank = function
  | Post_select -> 0
  | Post_regalloc -> 1
  | Post_sched -> 2
  | Final -> 3

let compare_render a b =
  let opt cmp x y =
    match (x, y) with
    | None, None -> 0
    | None, Some _ -> -1
    | Some _, None -> 1
    | Some x, Some y -> cmp x y
  in
  let c = opt String.compare a.func b.func in
  if c <> 0 then c
  else
    let c = opt (fun x y -> compare (phase_rank x) (phase_rank y)) a.phase b.phase in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c
      else
        let c =
          compare
            (a.loc.Loc.file, a.loc.Loc.line, a.loc.Loc.col)
            (b.loc.Loc.file, b.loc.Loc.line, b.loc.Loc.col)
        in
        if c <> 0 then c
        else
          let c = opt String.compare a.block b.block in
          if c <> 0 then c else String.compare a.message b.message

let sort l = List.stable_sort compare_render l

(* ---------------- JSON rendering (no external dependency) ----------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json d =
  let field name v = Printf.sprintf "\"%s\":%s" name v in
  let str s = Printf.sprintf "\"%s\"" (json_escape s) in
  let opt name = function None -> [] | Some v -> [ field name (str v) ] in
  let loc_fields =
    if d.loc = Loc.dummy then []
    else
      [
        field "file" (str d.loc.Loc.file);
        field "line" (string_of_int d.loc.Loc.line);
        field "col" (string_of_int d.loc.Loc.col);
      ]
  in
  "{"
  ^ String.concat ","
      ([
         field "code" (str d.code);
         field "severity" (str (severity_name d.severity));
       ]
      @ (match d.phase with
        | Some p -> [ field "phase" (str (phase_name p)) ]
        | None -> [])
      @ loc_fields @ opt "func" d.func @ opt "block" d.block
      @ [ field "message" (str d.message) ])
  ^ "}"

let list_to_json l = "[" ^ String.concat "," (List.map to_json l) ^ "]"

let () =
  Printexc.register_printer (function
    | Check_error diags ->
        Some
          (String.concat "\n" (List.map to_string diags))
    | _ -> None)
