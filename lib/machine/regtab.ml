(* Per-model register tables for liveness and the allocator: dense
   hard-register ids and, over them, what the select phase asks of each
   register. *)

type t = {
  n_hard : int;
  regs : Model.reg array;
  offset : int array;
  bank : int array;
  size : int array;
  callee_save : bool array;
  overlaps : int array array;
  overlap : Bitset.t;
  orders : int array array array;
}

let build (model : Model.t) =
  let classes = model.Model.classes in
  let offset = Array.make (Array.length classes) 0 in
  let n_hard =
    Array.fold_left
      (fun n (c : Model.rclass) ->
        offset.(c.Model.c_id) <- n - c.Model.c_lo;
        n + c.Model.c_hi - c.Model.c_lo + 1)
      0 classes
  in
  let regs = Array.make n_hard { Model.cls = 0; idx = 0 } in
  Array.iter
    (fun (c : Model.rclass) ->
      for idx = c.Model.c_lo to c.Model.c_hi do
        regs.(offset.(c.Model.c_id) + idx) <- { Model.cls = c.Model.c_id; idx }
      done)
    classes;
  let id (r : Model.reg) = offset.(r.Model.cls) + r.Model.idx in
  (* a color is the model's own [%allocable] record (the first, if one is
     listed twice): allocated code shares it with the model, which keeps
     the marshalled cache image of that code as it is *)
  List.iter
    (fun r -> regs.(id r) <- r)
    (List.rev model.Model.cwvm.Model.v_allocable);
  let callee_save = Array.map (Model.is_callee_save model) regs in
  let allocable = List.map id model.Model.cwvm.Model.v_allocable in
  let is_allocable = Array.make n_hard false in
  List.iter (fun a -> is_allocable.(a) <- true) allocable;
  let overlap = Bitset.create (n_hard * n_hard) in
  Array.iteri
    (fun a ra ->
      Array.iteri
        (fun b rb ->
          if Model.regs_overlap model ra rb then
            Bitset.set overlap ((a * n_hard) + b))
        regs)
    regs;
  let overlaps =
    Array.init n_hard (fun h ->
        Array.of_list
          (List.filter
             (fun a -> is_allocable.(a) && Bitset.mem overlap ((h * n_hard) + a))
             (List.init n_hard Fun.id)))
  in
  (* prefer caller-save registers so we do not pay save/restore *)
  let orders =
    Array.map
      (fun (c : Model.rclass) ->
        let all =
          Array.of_list
            (List.filter (fun a -> regs.(a).Model.cls = c.Model.c_id) allocable)
        in
        Array.init
          (Array.length all + 1)
          (fun k ->
            let first = Array.to_list (Array.sub all 0 k) in
            let callee, caller =
              List.partition (fun a -> callee_save.(a)) first
            in
            Array.of_list (caller @ callee)))
      classes
  in
  {
    n_hard;
    regs;
    offset;
    bank = Array.map (fun (c : Model.rclass) -> c.Model.c_bank) classes;
    size = Array.map (fun (c : Model.rclass) -> c.Model.c_size) classes;
    callee_save;
    overlaps;
    overlap;
    orders;
  }

let get = Model.memo build

(* an index outside the class's range would alias another class's id *)
let id t (r : Model.reg) =
  let h = t.offset.(r.Model.cls) + r.Model.idx in
  if h < 0 || h >= t.n_hard || t.regs.(h).Model.cls <> r.Model.cls then
    invalid_arg "Regtab.id: register index outside its class";
  h

let colors t max_local cls =
  let o = t.orders.(cls) in
  let all = Array.length o - 1 in
  match max_local with
  | None -> o.(all)
  | Some k -> o.(max 0 (min k all))
