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
    Option.bind (Hashtbl.find_opt r.index label) (Array.get r.inb)

  let flow_out r label =
    Option.bind (Hashtbl.find_opt r.index label) (Array.get r.outb)

  let solve ?stats (fn : Mir.func) =
    let blocks = Array.of_list fn.Mir.f_blocks in
    let n = Array.length blocks in
    let index = Hashtbl.create (2 * n) in
    Array.iteri (fun i b -> Hashtbl.replace index b.Mir.b_label i) blocks;
    let preds = Array.make n [] and succs = Array.make n [] in
    (* build in reverse block order so the adjacency lists come out in
       layout order — joins are then applied deterministically *)
    for i = n - 1 downto 0 do
      List.iter
        (fun l ->
          match Hashtbl.find_opt index l with
          | Some j ->
              succs.(i) <- j :: succs.(i);
              preds.(j) <- i :: preds.(j)
          | None -> ())
        (List.rev blocks.(i).Mir.b_succs)
    done;
    (* [None] is bottom: the block has not been reached by any fact yet *)
    let inb : D.fact option array = Array.make n None in
    let outb : D.fact option array = Array.make n None in
    let queued = Array.make n false in
    let work = Queue.create () in
    let enqueue i =
      if not queued.(i) then begin
        queued.(i) <- true;
        Queue.add i work
      end
    in
    for i = 0 to n - 1 do
      enqueue i
    done;
    let iters = ref 0 in
    while not (Queue.is_empty work) do
      let i = Queue.take work in
      queued.(i) <- false;
      let incoming =
        List.fold_left
          (fun acc j ->
            match (outb.(j), acc) with
            | None, acc -> acc
            | Some f, None -> Some f
            | Some f, Some g -> Some (D.join g f))
          (if i = 0 then Some (D.boundary fn) else None)
          preds.(i)
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
          if in_changed || outb.(i) = None then begin
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
