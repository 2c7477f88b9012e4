type edge_kind = True | Mem | Anti | Temporal of int

type edge = { e_src : int; e_dst : int; e_label : int; e_kind : edge_kind }

type t = {
  insts : Mir.inst array;
  succs : (int * int * edge_kind) list array;
  preds : (int * int * edge_kind) list array;
  edges : edge list;
}

type oracle = {
  o_alias : Mir.inst -> Mir.inst -> bool;
  mutable o_queries : int;
  mutable o_pruned : int;
}

let oracle f = { o_alias = f; o_queries = 0; o_pruned = 0 }

(* One scan over the block, in near-linear time. The location keys of
   {!Locs}'s walk are interned to dense local ids, each with its overlap
   and cover sets narrowed to the ids the block touches (a pseudo
   overlaps and covers only itself, a hard register what {!Regtab}
   says). Each id keeps its live writers and its readers since their
   last covering write, newest first; a read or write walks only the
   lists of the ids its location overlaps.

   Every edge the scan adds ends at the node being scanned, so dedupe and
   strengthening use per-source stamps ([seen], [lab], [knd]), and each
   new source is recorded once in [srcs] for [emit]. *)
let build ?(anti = true) ?(aux = true) ?oracle model (insts : Mir.inst list) :
    t =
  let dep_latency =
    if aux then
      let lat = Latency.for_model model in
      fun src dst -> Latency.dep lat src dst
    else fun (src : Mir.inst) _ -> src.Mir.n_op.Model.i_latency
  in
  let arr = Array.of_list insts in
  let n = Array.length arr in
  (* ---------------- locations to dense ids ---------------- *)
  let tab = Regtab.get model in
  let ids : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let keys = ref [] and nlocs = ref 0 in
  let intern l =
    match Hashtbl.find ids l with
    | id -> id
    | exception Not_found ->
        let id = !nlocs in
        Hashtbl.add ids l id;
        keys := l :: !keys;
        incr nlocs;
        id
  in
  let ids_of walk inst =
    let acc = ref [] in
    walk tab (fun l _ -> acc := intern l :: !acc) inst;
    Array.of_list (List.rev !acc)
  in
  let rd = Array.map (ids_of Locs.iter_reads) arr in
  let wr = Array.map (ids_of Locs.iter_writes) arr in
  let key_of = Array.of_list (List.rev !keys) in
  let nl = Array.length key_of in
  let ovl = Array.make nl [||] and cov = Array.make nl [||] in
  (* the kind of a true dependence on the id: a temporal register's
     clock *)
  let kind = Array.make nl True in
  let local_ids set =
    Array.of_list
      (List.filter_map (Hashtbl.find_opt ids) (Array.to_list set))
  in
  Array.iteri
    (fun id l ->
      if l >= tab.Regtab.n_hard then begin
        let self = [| id |] in
        ovl.(id) <- self;
        cov.(id) <- self
      end
      else begin
        ovl.(id) <- local_ids tab.Regtab.overlaps.(l);
        cov.(id) <- local_ids tab.Regtab.covers.(l);
        match tab.Regtab.clock.(l) with
        | Some k -> kind.(id) <- Temporal k
        | None -> ()
      end)
    key_of;
  let readers = Array.make nl [] and writers = Array.make nl [] in
  (* ---------------- edges into the node being scanned ---------------- *)
  let succs = Array.make n [] and preds = Array.make n [] in
  let dst = ref 0 in
  let seen = Array.make n (-1) and lab = Array.make n 0 in
  let knd = Array.make n True in
  let srcs = Array.make n 0 and nsrc = ref 0 in
  let add_edge src label kind =
    let i = !dst in
    if src <> i then
      if seen.(src) <> i then begin
        seen.(src) <- i;
        lab.(src) <- label;
        knd.(src) <- kind;
        srcs.(!nsrc) <- src;
        incr nsrc
      end
      else if label > lab.(src) then begin
        (* a stricter label for this pair: keep it *)
        lab.(src) <- label;
        knd.(src) <- kind
      end
  in
  let emit () =
    let i = !dst in
    for k = 0 to !nsrc - 1 do
      let s = srcs.(k) in
      let label = lab.(s) and kind = knd.(s) in
      preds.(i) <- (s, label, kind) :: preds.(i);
      succs.(s) <- (i, label, kind) :: succs.(s)
    done;
    nsrc := 0
  in
  (* the kind follows the location written: a temporal register's clock *)
  let rec true_deps kind = function
    | [] -> ()
    | w :: rest ->
        add_edge w (dep_latency arr.(w) arr.(!dst)) kind;
        true_deps kind rest
  in
  let rec anti_deps label = function
    | [] -> ()
    | s :: rest ->
        add_edge s label Anti;
        anti_deps label rest
  in
  let last_store = ref None in
  let mem_readers = ref [] in
  let last_call = ref None in
  (* oracle path: memory nodes tracked since the last call barrier (most
     recent first), plus per-node closures over Mem ordering — [mem_before]
     holds, for each memory node, the set of memory nodes already ordered
     before it, so an edge to an already-ordered candidate is skipped
     (transitive reduction) without losing the constraint *)
  let mem_stores = ref [] in
  let mem_loads = ref [] in
  let mem_before : Bitset.t option array =
    if Option.is_none oracle then [||] else Array.make n None
  in
  let before_of x =
    match mem_before.(x) with
    | Some b -> b
    | None ->
        let b = Bitset.create n in
        mem_before.(x) <- Some b;
        b
  in
  (* order node j before node i: add the Mem edge unless j is already
     transitively before i, and absorb j's closure either way *)
  let mem_order j i =
    let bi = before_of i in
    if not (Bitset.mem bi j) then begin
      add_edge j 1 Mem;
      Bitset.union_into ~dst:bi (before_of j);
      Bitset.set bi j
    end
  in
  for i = 0 to n - 1 do
    dst := i;
    let inst = arr.(i) in
    let reads = rd.(i) and writes = wr.(i) in
    (* calls are scheduling barriers: everything before stays before,
       everything after stays after *)
    if inst.Mir.n_op.Model.i_call then begin
      for j = 0 to i - 1 do
        add_edge j 1 Mem
      done;
      last_call := Some i
    end
    else begin
      match !last_call with
      | Some c -> add_edge c 1 Mem
      | None -> ()
    end;
    (* type 1 / temporal: true dependences *)
    for k = 0 to Array.length reads - 1 do
      let set = ovl.(reads.(k)) in
      for j = 0 to Array.length set - 1 do
        let o = set.(j) in
        true_deps kind.(o) writers.(o)
      done
    done;
    (* type 3: anti (read then write) and output (write then write) *)
    if anti then
      for k = 0 to Array.length writes - 1 do
        let set = ovl.(writes.(k)) in
        for j = 0 to Array.length set - 1 do
          anti_deps 0 readers.(set.(j));
          anti_deps 1 writers.(set.(j))
        done
      done;
    (* type 2: memory ordering; calls are memory barriers *)
    let acts_on_memory_r = inst.Mir.n_op.Model.i_loads || inst.Mir.n_op.Model.i_call in
    let acts_on_memory_w = inst.Mir.n_op.Model.i_stores || inst.Mir.n_op.Model.i_call in
    (match oracle with
    | None ->
        (* conservative serialization: every reader behind the last store,
           every store behind the last store and all outstanding readers.
           When readers are outstanding the last store is already ordered
           before each of them, so the direct store-to-store edge would be
           redundant — skip it instead of double-counting the pair *)
        if acts_on_memory_r then begin
          (match !last_store with Some s -> add_edge s 1 Mem | None -> ());
          mem_readers := i :: !mem_readers
        end;
        if acts_on_memory_w then begin
          (match !last_store with
          | Some s when !mem_readers = [] -> add_edge s 1 Mem
          | Some _ | None -> ());
          List.iter (fun r -> add_edge r 1 Mem) !mem_readers;
          last_store := Some i;
          mem_readers := []
        end
    | Some o ->
        let candidate j =
          (* a candidate already transitively ordered before [i] needs
             neither an edge nor an oracle consultation; scanning most
             recent first, a chain of conflicting accesses costs one
             query per node instead of one per pair *)
          if not (Bitset.mem (before_of i) j) then begin
            let jinst = arr.(j) in
            if jinst.Mir.n_op.Model.i_call then mem_order j i
            else begin
              o.o_queries <- o.o_queries + 1;
              if o.o_alias jinst inst then mem_order j i
              else o.o_pruned <- o.o_pruned + 1
            end
          end
        in
        if inst.Mir.n_op.Model.i_call then begin
          (* barrier: the generic call edges above already order every
             prior node; record the closure and reset the tracked sets *)
          Bitset.set_range (before_of i) 0 i;
          mem_stores := [ i ];
          mem_loads := []
        end
        else begin
          if acts_on_memory_r then List.iter candidate !mem_stores;
          if acts_on_memory_w then begin
            List.iter candidate !mem_loads;
            List.iter candidate !mem_stores
          end;
          (* readers are not cleared when a store arrives: with pruning, a
             later store may be independent of this store yet conflict
             with an earlier reader the conservative path would have
             retired *)
          if acts_on_memory_r then mem_loads := i :: !mem_loads;
          if acts_on_memory_w then mem_stores := i :: !mem_stores
        end);
    emit ();
    (* update reader/writer tracking; an entry dies only when a new write
       covers it completely *)
    for k = 0 to Array.length writes - 1 do
      let set = cov.(writes.(k)) in
      for j = 0 to Array.length set - 1 do
        readers.(set.(j)) <- [];
        writers.(set.(j)) <- []
      done
    done;
    for k = 0 to Array.length reads - 1 do
      let l = reads.(k) in
      readers.(l) <- i :: readers.(l)
    done;
    for k = 0 to Array.length writes - 1 do
      let l = writes.(k) in
      writers.(l) <- i :: writers.(l)
    done
  done;
  (* ---------------- temporal sequence protection (paper 4.6) -------- *)
  (* the only edges added after the scan; rare, so plain list updates *)
  let add_edge src dst label kind =
    if src <> dst then
      match List.find_opt (fun (d, _, _) -> d = dst) succs.(src) with
      | Some (_, l, _) when l >= label -> ()
      | Some _ ->
          (* keep the strictest label for this pair *)
          succs.(src) <-
            (dst, label, kind)
            :: List.filter (fun (d, _, _) -> d <> dst) succs.(src);
          preds.(dst) <-
            (src, label, kind)
            :: List.filter (fun (s, _, _) -> s <> src) preds.(dst)
      | None ->
          succs.(src) <- (dst, label, kind) :: succs.(src);
          preds.(dst) <- (src, label, kind) :: preds.(dst)
  in
  (* temporal sequences: chains of temporal edges on the same clock *)
  let temporal_succ i =
    List.filter_map
      (fun (d, _, k) -> match k with Temporal c -> Some (d, c) | _ -> None)
      succs.(i)
  in
  let temporal_pred i =
    List.filter_map
      (fun (s, _, k) -> match k with Temporal c -> Some (s, c) | _ -> None)
      preds.(i)
  in
  (* head of the temporal sequence containing node i on clock k *)
  let rec seq_head i k =
    match List.find_opt (fun (_, c) -> c = k) (temporal_pred i) with
    | Some (p, _) -> seq_head p k
    | None -> i
  in
  let affects i k = arr.(i).Mir.n_op.Model.i_affects = Some k in
  let in_seq i k =
    List.exists (fun (_, c) -> c = k) (temporal_pred i)
    || List.exists (fun (_, c) -> c = k) (temporal_succ i)
  in
  (* for each alternate entry (w, z) into a temporal sequence on clock k
     (z is a sequence member that is not the head), walk the ancestors of
     z; any ancestor that affects k and is outside the sequence gets an
     edge to the head *)
  let protect () =
    for z = 0 to n - 1 do
      List.iter
        (fun (_, k) ->
          (* z has a temporal predecessor on k: not a head *)
          let head = seq_head z k in
          let entries =
            List.filter_map
              (fun (s, _, kind) ->
                match kind with Temporal c when c = k -> None | _ -> Some s)
              preds.(z)
          in
          if entries <> [] then begin
            (* BFS over ancestors of z through non-temporal entries *)
            let visited = Array.make n false in
            let rec walk a =
              if not visited.(a) then begin
                visited.(a) <- true;
                (* the protection edge is pure ordering, so it must not be
                   mistaken for sequence membership: mark it Anti *)
                if affects a k && (not (in_seq a k)) && a <> head then
                  add_edge a head 0 Anti;
                List.iter (fun (s, _, _) -> walk s) preds.(a)
              end
            in
            List.iter walk entries
          end)
        (temporal_pred z)
    done
  in
  protect ();
  let rec out s acc = function
    | [] -> acc
    | (d, e_label, e_kind) :: rest ->
        out s ({ e_src = s; e_dst = d; e_label; e_kind } :: acc) rest
  in
  let edges = ref [] in
  for s = n - 1 downto 0 do
    edges := out s !edges succs.(s)
  done;
  { insts = arr; succs; preds; edges = !edges }

let max_dist_to_leaf t =
  let n = Array.length t.insts in
  let dist = Array.make n (-1) in
  let rec go i =
    if dist.(i) >= 0 then dist.(i)
    else begin
      dist.(i) <- 0;
      let d =
        List.fold_left
          (fun acc (dst, label, _) -> max acc (label + go dst))
          0 t.succs.(i)
      in
      dist.(i) <- d;
      d
    end
  in
  for i = 0 to n - 1 do
    ignore (go i)
  done;
  dist
