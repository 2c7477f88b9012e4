(* Per-model register tables: dense hard-register ids and, over them,
   what the location walk, the DAG builder and the allocator ask of each
   register. *)

type t = {
  n_hard : int;
  regs : Model.reg array;
  offset : int array;
  first : int array;
  bank : int array;
  size : int array;
  callee_save : bool array;
  overlaps : int array array;
  covers : int array array;
  clock : int option array;
  orders : int array array array;
}

let build (model : Model.t) =
  let classes = model.Model.classes in
  let offset = Array.make (Array.length classes) 0 in
  let first = Array.make (Array.length classes) (-1) in
  let n_hard =
    Array.fold_left
      (fun n (c : Model.rclass) ->
        offset.(c.Model.c_id) <- n - c.Model.c_lo;
        if c.Model.c_lo <= c.Model.c_hi then first.(c.Model.c_id) <- n;
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
  (* Overlap and cover need the two registers' bytes to meet in one
     bank, so each register is tested only against its neighbours in
     (bank, offset) order: those in its bank at an offset within reach,
     found by walking that order both ways from its position. *)
  let bytes = Array.map (Model.reg_bytes model) regs in
  let widest = Array.fold_left (fun m (_, _, sz) -> max m sz) 0 bytes in
  let order = Array.init n_hard Fun.id in
  Array.stable_sort
    (fun f g ->
      let bf, of_, _ = bytes.(f) and bg, og, _ = bytes.(g) in
      if bf <> bg then compare bf bg else compare of_ og)
    order;
  let related rel =
    let sets = Array.make n_hard [||] in
    Array.iteri
      (fun k f ->
        let bank, off, size = bytes.(f) in
        let near j lo hi =
          j >= 0 && j < n_hard
          &&
          let b, o, _ = bytes.(order.(j)) in
          b = bank && o >= lo && o <= hi
        in
        let found = ref [] in
        let test j =
          let g = order.(j) in
          if rel bytes.(f) bytes.(g) then found := g :: !found
        in
        let j = ref (k - 1) in
        while near !j (off - widest) max_int do
          test !j;
          decr j
        done;
        let j = ref k in
        while near !j min_int (off + size) do
          test !j;
          incr j
        done;
        sets.(f) <- Array.of_list !found)
      order;
    sets
  in
  (* byte-interval overlap in one bank, as {!Model.regs_overlap}; only a
     write that covers a register supersedes it: with %equiv pairs,
     writing r2 does not supersede a use of the d1 pair *)
  let overlap (bx, ox, sx) (by, oy, sy) =
    bx = by && ox < oy + sy && oy < ox + sx
  in
  let cover (bx, ox, sx) (by, oy, sy) =
    bx = by && ox <= oy && oy + sy <= ox + sx
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
    first;
    bank = Array.map (fun (c : Model.rclass) -> c.Model.c_bank) classes;
    size = Array.map (fun (c : Model.rclass) -> c.Model.c_size) classes;
    callee_save;
    overlaps = related overlap;
    covers = related cover;
    clock =
      Array.map
        (fun (r : Model.reg) ->
          let c = classes.(r.Model.cls) in
          if c.Model.c_temporal then c.Model.c_clock else None)
        regs;
    orders;
  }

let get = Model.memo build

(* an index outside the class's range would alias another class's id *)
let find t (r : Model.reg) =
  let c = r.Model.cls in
  if c < 0 || c >= Array.length t.offset then -1
  else
    let h = t.offset.(c) + r.Model.idx in
    if h < 0 || h >= t.n_hard || t.regs.(h).Model.cls <> c then -1 else h

let id t r =
  let h = find t r in
  if h < 0 then invalid_arg "Regtab.id: register index outside its class";
  h

let colors t max_local cls =
  let o = t.orders.(cls) in
  let all = Array.length o - 1 in
  match max_local with
  | None -> o.(all)
  | Some k -> o.(max 0 (min k all))
