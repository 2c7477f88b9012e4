(* Backward liveness over the location keys of {!Locs}: a hard
   register's Regtab id, or n_hard plus a pseudo-register's p_id. Facts
   are bitsets over all keys. One transfer, [step], decides what an
   instruction kills and generates; the block summaries below and every
   client's backward walk go through it. The fixpoint stays outside
   {!Dataflow.Solve}: every block contributes its uses, exits or not,
   and the facts are updated in place. *)

type t = {
  tab : Regtab.t;
  index : (string, int) Hashtbl.t;  (* label -> block position *)
  live_in : Bitset.t array;  (* by block position *)
  live_out : Bitset.t array;
  half : int array;
      (* key -> (walk lsl 2) lor the mask of its halves written below
         the walk's position with no read in between; stale when the
         walk number is not [walk] *)
  mutable walk : int;
  mutable kill : int -> unit;  (* the running step's callbacks *)
  mutable gen : int -> unit;
  mutable on_write : int -> int -> unit;
      (* the effect walks' callbacks, built once per analysis so a step
         allocates nothing *)
  mutable on_read : int -> int -> unit;
}

let enter t = t.walk <- t.walk + 1

let kill t l =
  t.half.(l) <- 0;
  t.kill l

(* by-name class effects (condition codes, temporal latches) live
   outside the allocation discipline and take no part *)
let on_write t l how =
  if how = Locs.half0 || how = Locs.half1 then begin
    let pending =
      if t.half.(l) lsr 2 = t.walk then t.half.(l) land 3 else 0
    in
    let mask = pending lor (1 lsl (how - Locs.half0)) in
    if mask = 3 then kill t l else t.half.(l) <- (t.walk lsl 2) lor mask
  end
  else if how <> Locs.by_name then kill t l

let on_read t l how =
  if how <> Locs.by_name then begin
    t.half.(l) <- 0;
    t.gen l
  end

let step t ~kill ~gen (i : Mir.inst) =
  t.kill <- kill;
  t.gen <- gen;
  Locs.iter_writes t.tab t.on_write i;
  Locs.iter_reads t.tab t.on_read i

let compute (fn : Mir.func) : t =
  let tab = Regtab.get fn.Mir.f_model in
  let blocks = Array.of_list fn.Mir.f_blocks in
  let nb = Array.length blocks in
  let index = Hashtbl.create 16 in
  Array.iteri (fun k (b : Mir.block) -> Hashtbl.replace index b.Mir.b_label k) blocks;
  let cap = tab.Regtab.n_hard + fn.Mir.f_next_preg in
  let sets () = Array.init nb (fun _ -> Bitset.create cap) in
  let t =
    {
      tab;
      index;
      live_in = sets ();
      live_out = sets ();
      half = Array.make cap 0;
      walk = 0;
      kill = ignore;
      gen = ignore;
      on_write = (fun _ _ -> ());
      on_read = (fun _ _ -> ());
    }
  in
  t.on_write <- on_write t;
  t.on_read <- on_read t;
  (* use: live into the block whatever leaves it; def: killed in it *)
  let use = sets () and def = sets () in
  Array.iteri
    (fun k (b : Mir.block) ->
      enter t;
      List.iter
        (step t
           ~kill:(fun key ->
             Bitset.unset use.(k) key;
             Bitset.set def.(k) key)
           ~gen:(Bitset.set use.(k)))
        (List.rev b.Mir.b_insts))
    blocks;
  let succs =
    Array.map
      (fun (b : Mir.block) ->
        Array.of_list (List.filter_map (Hashtbl.find_opt index) b.Mir.b_succs))
      blocks
  in
  (* The prologue/epilogue do not exist yet at allocation time, so their
     register demands are seeded here: in a call-free function the return
     address register stays live until the exit block's return jump (in a
     calling function the prologue saves and the epilogue restores it). *)
  let seed = Bitset.create cap in
  if not fn.Mir.f_has_calls then
    Bitset.set seed (Regtab.id tab fn.Mir.f_model.Model.cwvm.Model.v_retaddr);
  let fact = Bitset.create cap in
  let changed = ref true in
  while !changed do
    changed := false;
    for k = nb - 1 downto 0 do
      if k = nb - 1 then Bitset.blit ~src:seed ~dst:fact else Bitset.clear fact;
      Array.iter (fun s -> Bitset.union_into ~dst:fact t.live_in.(s)) succs.(k);
      if not (Bitset.equal fact t.live_out.(k)) then begin
        Bitset.blit ~src:fact ~dst:t.live_out.(k);
        changed := true
      end;
      Bitset.diff_into ~dst:fact def.(k);
      Bitset.union_into ~dst:fact use.(k);
      if not (Bitset.equal fact t.live_in.(k)) then begin
        Bitset.blit ~src:fact ~dst:t.live_in.(k);
        changed := true
      end
    done
  done;
  t

let live_in t label = t.live_in.(Hashtbl.find t.index label)

let live_out t label = t.live_out.(Hashtbl.find t.index label)

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
