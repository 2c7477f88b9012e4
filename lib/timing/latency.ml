(* A rule is one %aux directive filtered to a concrete (producer id,
   consumer id) pair; the operand condition is stored 0-based. *)
type rule = { r_cond : (int * int) option; r_lat : int }

type t = {
  ninstr : int;
  pairs : (int, rule list) Hashtbl.t;
      (** (first.i_id * ninstr + second.i_id) -> rules in %aux order *)
  producers : bool array;  (** by i_id: named first by some %aux *)
}

let pair_key t (first : Model.instr) (second : Model.instr) =
  (first.Model.i_id * t.ninstr) + second.Model.i_id

let create (model : Model.t) =
  let ninstr = Array.length model.Model.instrs in
  (* %aux matches instructions by name; several %instr entries may share
     one name, so expand each directive to every matching id pair *)
  let by_name : (string, int list) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (i : Model.instr) ->
      Hashtbl.replace by_name i.Model.i_name
        (i.Model.i_id
        :: Option.value ~default:[] (Hashtbl.find_opt by_name i.Model.i_name)))
    model.Model.instrs;
  let ids n = Option.value ~default:[] (Hashtbl.find_opt by_name n) in
  let pairs = Hashtbl.create 64 in
  List.iter
    (fun (x : Model.aux) ->
      let rule =
        {
          r_cond =
            Option.map
              (fun { Ast.left = _, a; right = _, b } -> (a - 1, b - 1))
              x.Model.x_cond;
          r_lat = x.Model.x_latency;
        }
      in
      List.iter
        (fun f ->
          List.iter
            (fun s ->
              let k = (f * ninstr) + s in
              Hashtbl.replace pairs k
                (rule :: Option.value ~default:[] (Hashtbl.find_opt pairs k)))
            (ids x.Model.x_second))
        (ids x.Model.x_first))
    model.Model.auxes;
  (* the lists were built newest-first; a conditional rule that fails must
     fall through to later directives, so restore declaration order *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) pairs [] in
  List.iter (fun k -> Hashtbl.replace pairs k (List.rev (Hashtbl.find pairs k))) keys;
  let producers = Array.make ninstr false in
  List.iter
    (fun (x : Model.aux) ->
      List.iter (fun f -> producers.(f) <- true) (ids x.Model.x_first))
    model.Model.auxes;
  { ninstr; pairs; producers }

let producer t (i : Model.instr) = t.producers.(i.Model.i_id)

let first_match rules ~opnd_eq =
  List.find_map
    (fun r ->
      match r.r_cond with
      | None -> Some r.r_lat
      | Some (a, b) -> if opnd_eq a b then Some r.r_lat else None)
    rules

let find t ~(first : Model.instr) ~(second : Model.instr) ~opnd_eq =
  match Hashtbl.find_opt t.pairs (pair_key t first second) with
  | None -> None
  | Some rules -> first_match rules ~opnd_eq

(* MIR producer/consumer pair: the %aux operand condition compares bound
   operand values, and without an override the base latency applies *)
let dep t (src : Mir.inst) (dst : Mir.inst) =
  match Hashtbl.find_opt t.pairs (pair_key t src.Mir.n_op dst.Mir.n_op) with
  | None -> src.Mir.n_op.Model.i_latency
  | Some rules -> (
      let opnd_eq a b =
        a >= 0
        && a < Array.length src.Mir.n_ops
        && b >= 0
        && b < Array.length dst.Mir.n_ops
        && src.Mir.n_ops.(a) = dst.Mir.n_ops.(b)
      in
      match first_match rules ~opnd_eq with
      | Some l -> l
      | None -> src.Mir.n_op.Model.i_latency)

let for_model = Model.memo create
