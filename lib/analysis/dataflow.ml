type stats = {
  mutable solves : int;
  mutable iterations : int;
  mutable facts : int;
}

let fresh_stats () = { solves = 0; iterations = 0; facts = 0 }

module type DOMAIN = sig
  type fact

  val boundary : Mir.func -> fact

  val equal : fact -> fact -> bool

  val join : fact -> fact -> fact

  val transfer : Mir.func -> Mir.block -> fact -> fact

  val nfacts : fact -> int
end

module Solve (D : DOMAIN) = struct
  (* facts per block index; [index] maps a label to its (last) block *)
  type result = {
    index : (string, int) Hashtbl.t;
    inb : D.fact option array;
    outb : D.fact option array;
  }

  let flow_in r label =
    match Hashtbl.find r.index label with
    | i -> r.inb.(i)
    | exception Not_found -> None

  let flow_out r label =
    match Hashtbl.find r.index label with
    | i -> r.outb.(i)
    | exception Not_found -> None

  let solve ?stats (fn : Mir.func) =
    let blocks = Array.of_list fn.Mir.f_blocks in
    let n = Array.length blocks in
    let index = Hashtbl.create (2 * n) in
    Array.iteri (fun i b -> Hashtbl.replace index b.Mir.b_label i) blocks;
    let preds = Array.make n [] and succs = Array.make n [] in
    (* build in reverse block order, each block's successors last to
       first, so the adjacency lists come out in layout order — joins
       are then applied deterministically *)
    let rec add_succs i = function
      | [] -> ()
      | l :: rest -> (
          add_succs i rest;
          match Hashtbl.find index l with
          | j ->
              succs.(i) <- j :: succs.(i);
              preds.(j) <- i :: preds.(j)
          | exception Not_found -> ())
    in
    for i = n - 1 downto 0 do
      add_succs i blocks.(i).Mir.b_succs
    done;
    (* [None] is bottom: the block has not been reached by any fact yet *)
    let inb : D.fact option array = Array.make n None in
    let outb : D.fact option array = Array.make n None in
    (* the worklist: a FIFO ring of block indices, each queued at most
       once *)
    let queued = Array.make n false in
    let ring = Array.make (max n 1) 0 in
    let head = ref 0 and count = ref 0 in
    let enqueue i =
      if not queued.(i) then begin
        queued.(i) <- true;
        ring.((!head + !count) mod n) <- i;
        incr count
      end
    in
    for i = 0 to n - 1 do
      enqueue i
    done;
    let rec gather acc = function
      | [] -> acc
      | j :: rest ->
          gather
            (match (outb.(j), acc) with
            | None, acc -> acc
            | Some f, None -> Some f
            | Some f, Some g -> Some (D.join g f))
            rest
    in
    let iters = ref 0 in
    while !count > 0 do
      let i = ring.(!head) in
      head := (!head + 1) mod n;
      decr count;
      queued.(i) <- false;
      let incoming =
        gather (if i = 0 then Some (D.boundary fn) else None) preds.(i)
      in
      match incoming with
      | None -> () (* unreachable so far: stays bottom *)
      | Some fact ->
          let in_changed =
            match inb.(i) with
            | Some old when D.equal old fact -> false
            | _ ->
                inb.(i) <- Some fact;
                true
          in
          if in_changed || Option.is_none outb.(i) then begin
            incr iters;
            let out = D.transfer fn blocks.(i) fact in
            let out_changed =
              match outb.(i) with
              | Some old when D.equal old out -> false
              | _ ->
                  outb.(i) <- Some out;
                  true
            in
            if out_changed then List.iter enqueue succs.(i)
          end
    done;
    Option.iter
      (fun (s : stats) ->
        s.solves <- s.solves + 1;
        s.iterations <- s.iterations + !iters;
        Array.iter
          (Option.iter (fun f -> s.facts <- s.facts + D.nfacts f))
          inb)
      stats;
    { index; inb; outb }
end
