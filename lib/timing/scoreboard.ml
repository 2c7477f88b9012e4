type stats = {
  mutable probes : int;
  mutable conflicts : int;
  mutable reserves : int;
}

let make_stats () = { probes = 0; conflicts = 0; reserves = 0 }

(* A model's resource vectors in word form: [rvecs.(i_id)] holds flat
   (cycle offset, word, mask) triples, one per non-empty word of each
   cycle, in cycle order. *)
type packed = {
  span : int;  (** the longest resource vector, at least 1 *)
  words : int;  (** ints per cycle row *)
  rvecs : int array array;
}

let pack (model : Model.t) =
  let nres = Array.length model.Model.resources in
  let words = (nres + Sys.int_size - 1) / Sys.int_size in
  let row = Array.make words 0 in
  let pack_rvec (rvec : Bitset.t array) =
    let triples = ref [] in
    Array.iteri
      (fun off res ->
        Array.fill row 0 words 0;
        Bitset.iter
          (fun r ->
            let w = r / Sys.int_size in
            row.(w) <- row.(w) lor (1 lsl (r mod Sys.int_size)))
          res;
        Array.iteri
          (fun w m -> if m <> 0 then triples := m :: w :: off :: !triples)
          row)
      rvec;
    Array.of_list (List.rev !triples)
  in
  let instrs = model.Model.instrs in
  {
    span =
      Array.fold_left
        (fun acc (i : Model.instr) -> max acc (Array.length i.Model.i_rvec))
        1 instrs;
    words;
    rvecs =
      Array.map (fun (i : Model.instr) -> pack_rvec i.Model.i_rvec) instrs;
  }

let packed_for = Model.memo pack

(* The ring has a power-of-two number of slots, at least [span], so a
   cycle's row starts at [(c land mask) * words]. Only cycles
   [base .. top-1] can hold reservations, and every other slot is zero:
   a reservation is made at the base and lasts at most [span] cycles, so
   [top <= base + span], and [top] is one past the last row any
   reservation since reached.

   The packing classes still open are tracked for one cycle only,
   [class_cycle], the cycle of the last classed reservation; every other
   cycle has all classes open. *)
type t = {
  ring : int array;
  mask : int;
  p : packed;
  mutable base : int;
  mutable top : int;
  mutable class_cycle : int;
  open_classes : Bitset.t;
  stats : stats option;
}

let create ?stats (model : Model.t) =
  let p = packed_for model in
  let slots = ref 1 in
  while !slots < p.span do
    slots := 2 * !slots
  done;
  {
    ring = Array.make (!slots * p.words) 0;
    mask = !slots - 1;
    p;
    base = 0;
    top = 0;
    class_cycle = -1;
    open_classes = Bitset.create (Array.length model.Model.elements);
    stats;
  }

let window t = t.p.span

let clear t = Array.fill t.ring 0 (Array.length t.ring) 0

let reset t =
  clear t;
  t.base <- 0;
  t.top <- 0;
  t.class_cycle <- -1

(* whether [i]'s packing class meets none still open on [cycle] *)
let class_closed t cycle (i : Model.instr) =
  cycle = t.class_cycle
  &&
  match i.Model.i_class with
  | Some k -> Bitset.inter_empty t.open_classes k
  | None -> false

(* zero the rows of cycles [from .. upto-1]; a row is one or two words,
   cleared inline rather than through a C call per row *)
let clear_rows t from upto =
  let words = t.p.words in
  for c = from to upto - 1 do
    let row = (c land t.mask) * words in
    for w = row to row + words - 1 do
      t.ring.(w) <- 0
    done
  done

(* Every consumer probes at monotonically non-decreasing cycles (the list
   scheduler's and simulator's clocks only advance), so moving the window
   forward may recycle every row that fell behind it. *)
let advance t cycle =
  if cycle < t.base then
    invalid_arg "Scoreboard: probe behind the window base";
  if cycle > t.base then begin
    clear_rows t t.base (if cycle < t.top then cycle else t.top);
    t.base <- cycle
  end

(* whether [rvec] collides when issued on [cycle >= base]; rows from
   [top] on hold nothing *)
let collides t cycle (rvec : int array) =
  let limit = t.top and words = t.p.words in
  let hit = ref false and k = ref 0 in
  while (not !hit) && !k < Array.length rvec do
    let c = cycle + rvec.(!k) in
    if c < limit then begin
      let row = (c land t.mask) * words in
      if t.ring.(row + rvec.(!k + 1)) land rvec.(!k + 2) <> 0 then hit := true
    end;
    k := !k + 3
  done;
  !hit

let conflict t ~cycle (i : Model.instr) =
  advance t cycle;
  class_closed t cycle i
  ||
  let hit = collides t cycle t.p.rvecs.(i.Model.i_id) in
  (match t.stats with
  | Some s ->
      s.probes <- s.probes + 1;
      if hit then s.conflicts <- s.conflicts + 1
  | None -> ());
  hit

let reserve t ~cycle (i : Model.instr) =
  advance t cycle;
  let rvec = t.p.rvecs.(i.Model.i_id) and words = t.p.words in
  let k = ref 0 in
  while !k < Array.length rvec do
    let at = (((cycle + rvec.(!k)) land t.mask) * words) + rvec.(!k + 1) in
    t.ring.(at) <- t.ring.(at) lor rvec.(!k + 2);
    k := !k + 3
  done;
  (* the triples are in cycle order *)
  if !k > 0 && cycle + rvec.(!k - 3) >= t.top then
    t.top <- cycle + rvec.(!k - 3) + 1;
  (match i.Model.i_class with
  | Some k when cycle = t.class_cycle ->
      Bitset.inter_into ~dst:t.open_classes k
  | Some k ->
      Bitset.clear t.open_classes;
      Bitset.union_into ~dst:t.open_classes k;
      t.class_cycle <- cycle
  | None -> ());
  match t.stats with Some s -> s.reserves <- s.reserves + 1 | None -> ()

(* terminates by [top], where every row is free and, past
   [class_cycle], every class open *)
let first_free t ~cycle (i : Model.instr) =
  if cycle < t.base then
    invalid_arg "Scoreboard: probe behind the window base";
  let rvec = t.p.rvecs.(i.Model.i_id) in
  let c = ref (if class_closed t cycle i then cycle + 1 else cycle) in
  while collides t !c rvec do
    incr c
  done;
  !c

(* The exported state: a class flag (1 when [cycle] is the class cycle)
   and the open classes' bits in [class_words] ints, then the length [n]
   of the rows from [cycle] on without their trailing zero words, then
   those [n] words. *)
let class_words t =
  (Bitset.capacity t.open_classes + Sys.int_size - 1) / Sys.int_size

let state_words t = 2 + class_words t + (t.p.span * t.p.words)

let export t ~cycle buf pos =
  if cycle < t.base then
    invalid_arg "Scoreboard: export behind the window base";
  let cw = class_words t in
  for k = pos + 1 to pos + cw do
    buf.(k) <- 0
  done;
  if cycle = t.class_cycle then begin
    buf.(pos) <- 1;
    for e = 0 to Bitset.capacity t.open_classes - 1 do
      if Bitset.mem t.open_classes e then begin
        let k = pos + 1 + (e / Sys.int_size) in
        buf.(k) <- buf.(k) lor (1 lsl (e mod Sys.int_size))
      end
    done
  end
  else buf.(pos) <- 0;
  let words = t.p.words and first = pos + 2 + cw and n = ref 0 in
  for c = cycle to t.top - 1 do
    let row = (c land t.mask) * words and at = first + ((c - cycle) * words) in
    for w = 0 to words - 1 do
      let v = t.ring.(row + w) in
      buf.(at + w) <- v;
      if v <> 0 then n := at + w - first + 1
    done
  done;
  buf.(first - 1) <- !n;
  first + !n

let import t ~cycle buf pos =
  let cw = class_words t in
  if buf.(pos) = 1 then begin
    Bitset.clear t.open_classes;
    for e = 0 to Bitset.capacity t.open_classes - 1 do
      if buf.(pos + 1 + (e / Sys.int_size)) land (1 lsl (e mod Sys.int_size))
         <> 0
      then Bitset.set t.open_classes e
    done;
    t.class_cycle <- cycle
  end
  else t.class_cycle <- -1;
  clear_rows t t.base t.top;
  let words = t.p.words and first = pos + 2 + cw in
  let n = buf.(first - 1) in
  for i = 0 to n - 1 do
    let c = cycle + (i / words) in
    t.ring.(((c land t.mask) * words) + (i mod words)) <- buf.(first + i)
  done;
  t.base <- cycle;
  t.top <- cycle + ((n + words - 1) / words)
