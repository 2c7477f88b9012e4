(* Spans recorded by the traced pass around the harness's own calls into
   each layer, kept in memory and written at the end as Chrome
   trace-event JSON. A span's self time is its CPU time minus its
   children's. *)

type span = {
  s_id : int;
  s_parent : int;  (* -1 for a cell's root span *)
  s_name : string;
  s_layer : string;
  s_cell : string;
  s_start : float;  (* wall seconds *)
  s_wall : float;
  s_cpu : float;  (* thread CPU seconds *)
  s_synth : bool;
      (* rebuilt from the compile's Profile entry: the entry sums every
         function's run of one pass, so its placement is nominal *)
}

type t = { mutable spans : span list; mutable next : int; origin : float }

let create () = { spans = []; next = 0; origin = Mclock.wall () }

let fresh_id t =
  let id = t.next in
  t.next <- id + 1;
  id

let record t s = t.spans <- s :: t.spans

(* [span t ~parent ~layer ~cell name f] runs [f id] and records it as a
   span; [f] receives the span's id to parent spans of its own *)
let span t ?(parent = -1) ~layer ~cell name f =
  let id = fresh_id t in
  let w0 = Mclock.wall () and c0 = Mclock.thread_cpu () in
  let r = f id in
  let s_cpu = Mclock.thread_cpu () -. c0 and s_wall = Mclock.wall () -. w0 in
  record t
    {
      s_id = id; s_parent = parent; s_name = name; s_layer = layer;
      s_cell = cell; s_start = w0; s_wall; s_cpu; s_synth = false;
    };
  r

let synth t ~parent ~layer ~cell ~start ~wall ~cpu name =
  record t
    {
      s_id = fresh_id t; s_parent = parent; s_name = name; s_layer = layer;
      s_cell = cell; s_start = start; s_wall = wall; s_cpu = cpu;
      s_synth = true;
    }

(* CPU self time summed per layer *)
let self_by_layer t =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.s_parent >= 0 then
        Hashtbl.replace children s.s_parent
          (s.s_cpu
          +. Option.value ~default:0.0 (Hashtbl.find_opt children s.s_parent)))
    t.spans;
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        s.s_cpu -. Option.value ~default:0.0 (Hashtbl.find_opt children s.s_id)
      in
      Hashtbl.replace by_layer s.s_layer
        (self
        +. Option.value ~default:0.0 (Hashtbl.find_opt by_layer s.s_layer)))
    t.spans;
  fun layer -> Option.value ~default:0.0 (Hashtbl.find_opt by_layer layer)

(* total CPU of the root spans: the traced pass *)
let root_cpu t =
  List.fold_left
    (fun acc s -> if s.s_parent < 0 then acc +. s.s_cpu else acc)
    0.0 t.spans

let to_chrome t =
  let us x = Json.Float (Float.round (x *. 1e6)) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.rev_map
             (fun s ->
               Json.Obj
                 [
                   ("name", Json.String s.s_name);
                   ("cat", Json.String s.s_layer);
                   ("ph", Json.String "X");
                   ("ts", us (s.s_start -. t.origin));
                   ("dur", us s.s_wall);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int 1);
                   ( "args",
                     Json.Obj
                       [
                         ("id", Json.Int s.s_id);
                         ("parent", Json.Int s.s_parent);
                         ("cell", Json.String s.s_cell);
                         ("cpu_us", us s.s_cpu);
                         ("synthesized", Json.Bool s.s_synth);
                       ] );
                 ])
             t.spans) );
      ("displayTimeUnit", Json.String "ms");
    ]
