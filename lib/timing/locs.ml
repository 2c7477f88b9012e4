let class_valid (model : Model.t) cid =
  cid >= 0 && cid < Array.length model.Model.classes

let reg_valid model (r : Model.reg) =
  class_valid model r.Model.cls
  &&
  let c = Model.class_exn model r.Model.cls in
  r.Model.idx >= c.Model.c_lo && r.Model.idx <= c.Model.c_hi

(* the single register of a named (usually temporal) single-register class *)
let named_reg model cid =
  let c = Model.class_exn model cid in
  { Model.cls = cid; idx = c.Model.c_lo }

let pseudo (tab : Regtab.t) (p : Mir.preg) = tab.Regtab.n_hard + p.Mir.p_id

let rec key tab (o : Mir.operand) =
  match o with
  | Mir.Opreg p -> pseudo tab p
  | Mir.Ophys r -> Regtab.find tab r
  | Mir.Opart (inner, _) -> key tab inner
  | Mir.Oimm _ | Mir.Oslot _ | Mir.Osym _ | Mir.Olab _ -> -1

let whole = 0

let half0 = 1

let half1 = 2

let implicit = 3

let by_name = 4

(* Recursion over the lists instead of [List.iter] with a closure: the
   walk runs on every instruction of every pass and allocates nothing. *)
let rec positions tab f (ops : Mir.operand array) = function
  | [] -> ()
  | pos :: rest ->
      (if pos >= 0 && pos < Array.length ops then
         match ops.(pos) with
         | Mir.Opart (inner, k) ->
             let l = key tab inner in
             if l >= 0 then
               f l (match k with 0 -> half0 | 1 -> half1 | _ -> whole)
         | o ->
             let l = key tab o in
             if l >= 0 then f l whole);
      positions tab f ops rest

let rec implicits tab f = function
  | [] -> ()
  | r :: rest ->
      let l = Regtab.find tab r in
      if l >= 0 then f l implicit;
      implicits tab f rest

let rec names (tab : Regtab.t) f = function
  | [] -> ()
  | c :: rest ->
      let l = tab.Regtab.first.(c) in
      if l >= 0 then f l by_name;
      names tab f rest

let iter_reads tab f (i : Mir.inst) =
  let op = i.Mir.n_op in
  positions tab f i.Mir.n_ops op.Model.i_reads;
  implicits tab f i.Mir.n_xuse;
  names tab f op.Model.i_rnames

let iter_writes tab f (i : Mir.inst) =
  let op = i.Mir.n_op in
  positions tab f i.Mir.n_ops op.Model.i_writes;
  implicits tab f i.Mir.n_xdef;
  names tab f op.Model.i_wnames

let preg_of tab (i : Mir.inst) l =
  let rec root (o : Mir.operand) =
    match o with
    | Mir.Opreg p when pseudo tab p = l -> Some p
    | Mir.Opart (inner, _) -> root inner
    | _ -> None
  in
  Array.find_map root i.Mir.n_ops
