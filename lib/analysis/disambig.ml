(* Static memory disambiguation: the alias oracle the DAG builder
   consults to prune provably-independent Mem edges.

   One [compute] per function: solve the address analysis, then walk each
   block once recording every memory instruction's accesses with their
   addresses evaluated in the instruction's pre-state. The walk names the
   opaque values it defines under generation 1 (the solved environments
   use generation 0), so an access recorded before a definition site
   re-executes can never share a base with one recorded after it.

   Lookups are by instruction id, so the oracle stays valid while the
   scheduler reorders instructions — the DAG is built per block from an
   instruction multiset the schedule permutes but never changes.

   Accesses are stored pre-flattened: bases interned to small ints at
   compute time so the per-query overlap test — the hot path, called
   O(memory pairs) times per DAG build — is all integer comparisons,
   with no polymorphic compare over strings or lists. *)

(* a flattened {!Addr.access}; [s_cls] selects the shape *)
type summary = {
  s_cls : int;  (* 0 = known integer address, 1 = base+offset, 2 = unknown *)
  s_base : int;  (* cls 1: interned base id *)
  s_kind : int;  (* cls 1: 0 slot, 1 sym, 2 frame, 3 opaque *)
  s_off : int;  (* cls 0: the address; cls 1: offset, if [s_has_off] *)
  s_has_off : bool;
  s_size : int;
}

type t = { d_acc : (int, summary array) Hashtbl.t }

let compute ?stats (fn : Mir.func) =
  let r = Addr.solve ?stats fn in
  let tab = Regtab.get fn.Mir.f_model in
  let d_acc = Hashtbl.create 64 in
  let interned : (Addr.base, int) Hashtbl.t = Hashtbl.create 16 in
  let intern b =
    match Hashtbl.find_opt interned b with
    | Some id -> id
    | None ->
        let id = Hashtbl.length interned in
        Hashtbl.add interned b id;
        id
  in
  let summarize (a : Addr.access) =
    match a.Addr.a_val with
    | Addr.Vint x ->
        {
          s_cls = 0;
          s_base = 0;
          s_kind = 0;
          s_off = x;
          s_has_off = true;
          s_size = a.Addr.a_size;
        }
    | Addr.Vaddr (b, o) ->
        let kind =
          match b with
          | Addr.Bslot _ -> 0
          | Addr.Bsym _ -> 1
          | Addr.Bfrm -> 2
          | Addr.Bopq _ -> 3
        in
        {
          s_cls = 1;
          s_base = intern b;
          s_kind = kind;
          s_off = (match o with Some x -> x | None -> 0);
          s_has_off = o <> None;
          s_size = a.Addr.a_size;
        }
    | Addr.Vtop | Addr.Vfp | Addr.Vslotoff _ ->
        {
          s_cls = 2;
          s_base = 0;
          s_kind = 0;
          s_off = 0;
          s_has_off = false;
          s_size = a.Addr.a_size;
        }
  in
  List.iter
    (fun (b : Mir.block) ->
      let env =
        ref
          (match Addr.env_in r b.Mir.b_label with
          | Some e -> e
          | None -> Addr.empty_env)
      in
      List.iter
        (fun (i : Mir.inst) ->
          let op = i.Mir.n_op in
          if (op.Model.i_loads || op.Model.i_stores) && not op.Model.i_call
          then
            Hashtbl.replace d_acc i.Mir.n_id
              (Array.of_list (List.map summarize (Addr.accesses tab !env i)));
          env := Addr.step ~gen:1 tab !env i)
        b.Mir.b_insts)
    fn.Mir.f_blocks;
  { d_acc }

(* mirror of {!Addr.may_overlap} over flattened accesses *)
let overlap a b =
  if a.s_cls = 2 || b.s_cls = 2 then true
  else if a.s_cls <> b.s_cls then true (* known integer vs symbolic base *)
  else if a.s_cls = 0 then
    a.s_off < b.s_off + b.s_size && b.s_off < a.s_off + a.s_size
  else if a.s_base = b.s_base then
    (not a.s_has_off) || (not b.s_has_off)
    || (a.s_off < b.s_off + b.s_size && b.s_off < a.s_off + a.s_size)
  else if a.s_kind = 3 || b.s_kind = 3 then
    true (* an opaque pointer may point anywhere *)
  else if (a.s_kind = 2 && b.s_kind = 0) || (a.s_kind = 0 && b.s_kind = 2)
  then true (* slot offsets within the frame are not laid out yet *)
  else false (* distinct named objects are disjoint *)

let may_alias t (a : Mir.inst) (b : Mir.inst) =
  match
    (Hashtbl.find_opt t.d_acc a.Mir.n_id, Hashtbl.find_opt t.d_acc b.Mir.n_id)
  with
  | Some xs, Some ys ->
      let n = Array.length xs and m = Array.length ys in
      (* an instruction flagged as touching memory whose semantics expose
         no access (an escape) stays conservative *)
      if n = 0 || m = 0 then true
      else begin
        let res = ref false in
        (try
           for i = 0 to n - 1 do
             for j = 0 to m - 1 do
               if overlap xs.(i) ys.(j) then begin
                 res := true;
                 raise Exit
               end
             done
           done
         with Exit -> ());
        !res
      end
  | _ -> true
