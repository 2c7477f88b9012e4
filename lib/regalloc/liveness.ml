(* Backward liveness for the register allocator, over pseudo and
   physical registers. It stays outside {!Dataflow.Solve} on purpose:
   that solver leaves a loop with no path to an exit without any fact,
   and the allocator would miss the interference of values live around
   it. Here every block contributes its uses, exits or not. *)

type key = Kp of int | Kh of int * int

module KeySet = Set.Make (struct
  type t = key

  let compare = compare
end)

let key_of_reg = function
  | `Preg (p : Mir.preg) -> Kp p.Mir.p_id
  | `Phys (r : Model.reg) -> Kh (r.Model.cls, r.Model.idx)

let inst_uses (i : Mir.inst) =
  List.map key_of_reg (Mir.inst_uses i)
  @ List.map (fun r -> key_of_reg (`Phys r)) i.Mir.n_xuse

let inst_defs (i : Mir.inst) =
  List.map key_of_reg (Mir.inst_defs i)
  @ List.map (fun r -> key_of_reg (`Phys r)) i.Mir.n_xdef

type t = {
  live_out : (string, KeySet.t) Hashtbl.t;
  live_in : (string, KeySet.t) Hashtbl.t;
}

let block_use_def (b : Mir.block) =
  (* use: read before any write in the block; def: written *)
  let use = ref KeySet.empty and def = ref KeySet.empty in
  List.iter
    (fun i ->
      List.iter
        (fun k -> if not (KeySet.mem k !def) then use := KeySet.add k !use)
        (inst_uses i);
      List.iter (fun k -> def := KeySet.add k !def) (inst_defs i))
    b.Mir.b_insts;
  (!use, !def)

let compute (fn : Mir.func) : t =
  let blocks = fn.Mir.f_blocks in
  let by_label = Hashtbl.create 16 in
  List.iter (fun (b : Mir.block) -> Hashtbl.replace by_label b.Mir.b_label b) blocks;
  let ud = Hashtbl.create 16 in
  List.iter
    (fun (b : Mir.block) -> Hashtbl.replace ud b.Mir.b_label (block_use_def b))
    blocks;
  let live_in = Hashtbl.create 16 and live_out = Hashtbl.create 16 in
  List.iter
    (fun (b : Mir.block) ->
      Hashtbl.replace live_in b.Mir.b_label KeySet.empty;
      Hashtbl.replace live_out b.Mir.b_label KeySet.empty)
    blocks;
  (* The prologue/epilogue do not exist yet at allocation time, so their
     register demands are seeded here: in a call-free function the return
     address register stays live until the exit block's return jump (in a
     calling function the prologue saves and the epilogue restores it). *)
  let exit_label =
    match List.rev blocks with
    | (b : Mir.block) :: _ -> Some b.Mir.b_label
    | [] -> None
  in
  let seeded =
    if fn.Mir.f_has_calls then KeySet.empty
    else
      KeySet.singleton
        (key_of_reg (`Phys fn.Mir.f_model.Model.cwvm.Model.v_retaddr))
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : Mir.block) ->
        let out =
          List.fold_left
            (fun acc l ->
              match Hashtbl.find_opt live_in l with
              | Some s -> KeySet.union acc s
              | None -> acc)
            (if Some b.Mir.b_label = exit_label then seeded else KeySet.empty)
            b.Mir.b_succs
        in
        let use, def = Hashtbl.find ud b.Mir.b_label in
        let inn = KeySet.union use (KeySet.diff out def) in
        if not (KeySet.equal out (Hashtbl.find live_out b.Mir.b_label)) then begin
          Hashtbl.replace live_out b.Mir.b_label out;
          changed := true
        end;
        if not (KeySet.equal inn (Hashtbl.find live_in b.Mir.b_label)) then begin
          Hashtbl.replace live_in b.Mir.b_label inn;
          changed := true
        end)
      (List.rev blocks)
  done;
  { live_out; live_in }

(* back edges in layout order delimit loops; nesting = number of enclosing
   [header; latch] ranges *)
let loop_depth (fn : Mir.func) =
  let labels = List.map (fun (b : Mir.block) -> b.Mir.b_label) fn.Mir.f_blocks in
  let index = Hashtbl.create 16 in
  List.iteri (fun i l -> Hashtbl.replace index l i) labels;
  let ranges = ref [] in
  List.iteri
    (fun bi (b : Mir.block) ->
      List.iter
        (fun succ ->
          match Hashtbl.find_opt index succ with
          | Some hi when hi <= bi -> ranges := (hi, bi) :: !ranges
          | Some _ | None -> ())
        b.Mir.b_succs)
    fn.Mir.f_blocks;
  let depth = Hashtbl.create 16 in
  List.iteri
    (fun i l ->
      let d =
        List.fold_left
          (fun acc (lo, hi) -> if i >= lo && i <= hi then acc + 1 else acc)
          0 !ranges
      in
      Hashtbl.replace depth l d)
    labels;
  depth
