(* Split a block's instruction list into (body, branch, nops) when it ends
   with a control transfer followed by its delay-slot nops. *)
let split_tail insts =
  let rec go acc = function
    | [] -> None
    | (b : Mir.inst) :: nops
      when b.Mir.n_op.Model.i_branch
           && (not b.Mir.n_op.Model.i_call)
           && List.for_all Listsched.is_nop nops
           && List.length nops = abs b.Mir.n_op.Model.i_slots
           && nops <> [] ->
        Some (List.rev acc, b, nops)
    | i :: tl -> go (i :: acc) tl
  in
  go [] insts

(* A body instruction may move into the delay slot iff the DAG built over
   body @ [branch] gives it no outgoing edges: nothing after it (the
   branch included) reads its results, overwrites what it reads, or is
   ordered against it through memory. Moving it below the branch then
   preserves every dependence. *)
let fill_block (fn : Mir.func) (b : Mir.block) =
  match split_tail b.Mir.b_insts with
  | None -> 0
  | Some (body, branch, nops) ->
      let model = fn.Mir.f_model in
      let nodes = body @ [ branch ] in
      let dag = Dag.build model nodes in
      let n = Array.length dag.Dag.insts in
      let movable = Array.make n false in
      Array.iteri
        (fun k (i : Mir.inst) ->
          movable.(k) <-
            k < n - 1 (* not the branch *)
            && dag.Dag.succs.(k) = []
            && (not i.Mir.n_op.Model.i_branch)
            && not (Listsched.is_nop i))
        dag.Dag.insts;
      (* fill as many slots as movable instructions allow, hoisting from
         the bottom of the block so earlier code keeps its schedule *)
      let filled = ref [] in
      let slots_left = ref (List.length nops) in
      let taken = Array.make n false in
      let continue = ref true in
      while !slots_left > 0 && !continue do
        let rec find k =
          if k < 0 then None
          else if movable.(k) && not taken.(k) then Some k
          else find (k - 1)
        in
        match find (n - 2) with
        | Some k ->
            taken.(k) <- true;
            filled := dag.Dag.insts.(k) :: !filled;
            decr slots_left
        | None -> continue := false
      done;
      if !filled = [] then 0
      else begin
        let moved = List.length !filled in
        let body' =
          List.filteri
            (fun k _ -> not (k < n - 1 && taken.(k)))
            body
        in
        let remaining_nops =
          List.filteri (fun k _ -> k < List.length nops - moved) nops
        in
        b.Mir.b_insts <- body' @ [ branch ] @ List.rev !filled @ remaining_nops;
        moved
      end

let fill_func (fn : Mir.func) =
  List.fold_left (fun acc b -> acc + fill_block fn b) 0 fn.Mir.f_blocks
