type kind = [ `Exn | `Timeout | `Diag ]

type rule =
  | Site of { pass : string; fn : string; kind : kind }
  | Seeded of { seed : int; rate : int; kind : kind }

type plan = rule list

let empty : plan = []

let kind_of_string = function
  | "exn" -> Some `Exn
  | "timeout" -> Some `Timeout
  | "diag" -> Some `Diag
  | _ -> None

let kind_to_string = function
  | `Exn -> "exn"
  | `Timeout -> "timeout"
  | `Diag -> "diag"

let parse_rule s =
  match String.split_on_char ':' s with
  | [ seed; rate; kind ]
    when String.length seed > 5 && String.sub seed 0 5 = "seed=" -> (
      let seed_n = String.sub seed 5 (String.length seed - 5) in
      match
        (int_of_string_opt seed_n, int_of_string_opt rate,
         kind_of_string kind)
      with
      | Some seed, Some rate, Some kind when rate > 0 ->
          Ok (Seeded { seed; rate; kind })
      | _ ->
          Error
            (Printf.sprintf
               "bad seeded rule %S (want seed=N:RATE:exn|timeout|diag \
                with RATE > 0)"
               s))
  | [ pass; fn; kind ] -> (
      match kind_of_string kind with
      | Some kind when pass <> "" && fn <> "" -> Ok (Site { pass; fn; kind })
      | _ ->
          Error
            (Printf.sprintf "bad rule %S (want PASS:FN:exn|timeout|diag)" s))
  | _ ->
      Error
        (Printf.sprintf
           "bad rule %S (want PASS:FN:KIND or seed=N:RATE:KIND)" s)

let parse s =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest -> (
        match parse_rule r with
        | Ok rule -> go (rule :: acc) rest
        | Error _ as e -> e)
  in
  match String.trim s with
  | "" -> Ok empty
  | s -> go [] (List.map String.trim (String.split_on_char ',' s))

let to_string p =
  String.concat ","
    (List.map
       (function
         | Site { pass; fn; kind } ->
             Printf.sprintf "%s:%s:%s" pass fn (kind_to_string kind)
         | Seeded { seed; rate; kind } ->
             Printf.sprintf "seed=%d:%d:%s" seed rate (kind_to_string kind))
       p)

(* [Hashtbl.hash] over a (seed, pass, fn) triple: deterministic for a
   given OCaml version and independent of scheduling, which is all the
   seeded mode needs — the same plan arms the same sites in every run *)
let seeded_hit ~seed ~rate ~pass ~fn =
  Hashtbl.hash (seed, pass, fn) mod rate = 0

let matches ~pass ~fn = function
  | Site r -> (r.pass = "*" || r.pass = pass) && (r.fn = "*" || r.fn = fn)
  | Seeded { seed; rate; _ } -> seeded_hit ~seed ~rate ~pass ~fn

let arm p ~pass ~fn =
  List.find_map
    (fun r ->
      if matches ~pass ~fn r then
        Some (match r with Site { kind; _ } | Seeded { kind; _ } -> kind)
      else None)
    p

(* a recursive walk, not a [List.exists] closure over [fn]: the driver
   asks this for every function it compiles, so it allocates nothing *)
let rec may_target p ~fn =
  match p with
  | [] -> false
  | Site r :: rest -> r.fn = "*" || r.fn = fn || may_target rest ~fn
  | Seeded _ :: _ -> true
