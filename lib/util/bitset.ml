type t = { cap : int; words : int array }

let bits_per_word = Sys.int_size

let words_for cap = (cap + bits_per_word - 1) / bits_per_word

let create cap =
  if cap < 0 then invalid_arg "Bitset.create";
  { cap; words = Array.make (max 1 (words_for cap)) 0 }

let capacity t = t.cap

let copy t = { cap = t.cap; words = Array.copy t.words }

let check t i =
  if i < 0 || i >= t.cap then
    invalid_arg (Printf.sprintf "Bitset: index %d out of range [0,%d)" i t.cap)

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let unset t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

(* ones at bit positions [lob .. hib] of one word *)
let range_mask lob hib =
  let lo = -1 lsl lob in
  let hi = if hib >= bits_per_word - 1 then -1 else (1 lsl (hib + 1)) - 1 in
  lo land hi

let set_range t pos len =
  if len < 0 then invalid_arg "Bitset.set_range";
  if len > 0 then begin
    check t pos;
    check t (pos + len - 1);
    let hi = pos + len - 1 in
    let w0 = pos / bits_per_word and w1 = hi / bits_per_word in
    if w0 = w1 then
      t.words.(w0) <-
        t.words.(w0) lor range_mask (pos mod bits_per_word) (hi mod bits_per_word)
    else begin
      t.words.(w0) <-
        t.words.(w0) lor range_mask (pos mod bits_per_word) (bits_per_word - 1);
      for w = w0 + 1 to w1 - 1 do
        t.words.(w) <- -1
      done;
      t.words.(w1) <- t.words.(w1) lor range_mask 0 (hi mod bits_per_word)
    end
  end

let mem_range t pos len =
  if len < 0 then invalid_arg "Bitset.mem_range";
  len = 0
  ||
  (check t pos;
   check t (pos + len - 1);
   let hi = pos + len - 1 in
   let w0 = pos / bits_per_word and w1 = hi / bits_per_word in
   if w0 = w1 then
     let m = range_mask (pos mod bits_per_word) (hi mod bits_per_word) in
     t.words.(w0) land m = m
   else begin
     let m0 = range_mask (pos mod bits_per_word) (bits_per_word - 1)
     and m1 = range_mask 0 (hi mod bits_per_word) in
     let ok = ref (t.words.(w0) land m0 = m0 && t.words.(w1) land m1 = m1) in
     for w = w0 + 1 to w1 - 1 do
       if t.words.(w) <> -1 then ok := false
     done;
     !ok
   end)

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let clear t = Array.fill t.words 0 (Array.length t.words) 0

let same_cap a b =
  if a.cap <> b.cap then invalid_arg "Bitset: capacity mismatch"

let union_into ~dst src =
  same_cap dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let diff_into ~dst src =
  same_cap dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land lnot src.words.(i)
  done

let blit ~src ~dst =
  same_cap dst src;
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let inter_into ~dst src =
  same_cap dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

(* a loop, not a local recursive function: this runs on every scoreboard
   probe, and the closure would be allocated per call *)
let inter_empty a b =
  same_cap a b;
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) land b.words.(!i) = 0 do
    incr i
  done;
  !i = n

let equal a b =
  a.cap = b.cap
  &&
  let n = Array.length a.words in
  let i = ref 0 in
  while !i < n && a.words.(!i) = b.words.(!i) do
    incr i
  done;
  !i = n

let popcount w =
  let rec go acc w = if w = 0 then acc else go (acc + (w land 1)) (w lsr 1) in
  go 0 w

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

(* the index of the one bit set in [b], by halving *)
let bit_index b =
  let n = ref 0 and b = ref b in
  if !b land 0xFFFFFFFF = 0 then begin n := 32; b := !b lsr 32 end;
  if !b land 0xFFFF = 0 then begin n := !n + 16; b := !b lsr 16 end;
  if !b land 0xFF = 0 then begin n := !n + 8; b := !b lsr 8 end;
  if !b land 0xF = 0 then begin n := !n + 4; b := !b lsr 4 end;
  if !b land 0x3 = 0 then begin n := !n + 2; b := !b lsr 2 end;
  if !b land 0x1 = 0 then incr n;
  !n

(* word by word, lowest bit first: empty words cost one test *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let x = ref t.words.(w) in
    while !x <> 0 do
      let low = !x land - !x in
      f ((w * bits_per_word) + bit_index low);
      x := !x lxor low
    done
  done

let of_list cap l =
  let t = create cap in
  List.iter (set t) l;
  t

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc
