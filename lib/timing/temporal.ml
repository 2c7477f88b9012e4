type window = { w_clock : int; w_latch : Model.reg; w_launcher : string }

type t = { model : Model.t; mutable open_ : window list }

let create model = { model; open_ = [] }

let has_temporal (model : Model.t) =
  Array.exists
    (fun (c : Model.rclass) -> c.Model.c_temporal)
    model.Model.classes

(* the temporal latches among the locations [walk] gives, with their
   clocks, in walk order *)
let latches (tab : Regtab.t) walk i =
  let found = ref [] in
  walk tab
    (fun l _ ->
      if l < tab.Regtab.n_hard then
        match tab.Regtab.clock.(l) with
        | Some k -> found := (k, tab.Regtab.regs.(l)) :: !found
        | None -> ())
    i;
  List.rev !found

let catch t r =
  let caught, rest =
    List.partition
      (fun w -> Model.regs_overlap t.model w.w_latch r)
      t.open_
  in
  if caught <> [] then t.open_ <- rest;
  caught

let blocking t ~clock =
  List.find_opt (fun w -> w.w_clock = clock) t.open_

let launch t ~clock r ~launcher =
  t.open_ <-
    { w_clock = clock; w_latch = r; w_launcher = launcher }
    :: List.filter
         (fun w -> not (Model.regs_overlap t.model w.w_latch r))
         t.open_

(* Rule 1 as the list scheduler asks it: candidate [self] affecting clock
   [affects] may issue only if every pending launch-to-catch edge on that
   clock has [self] as its destination *)
let rule1_ok ~affects ~pending ~self =
  match affects with
  | None -> true
  | Some k -> List.for_all (fun (pk, dst) -> pk <> k || dst = self) pending
