type stats = {
  mutable spilled : int;
  mutable sched_passes : int;
  mutable estimates : (string * int) list;
  mutable orders : Mir.inst list list;
  mutable sb_probes : int;
  mutable sb_conflicts : int;
  mutable sb_reserves : int;
  mutable an_time : float;
  mutable an_solves : int;
  mutable an_iters : int;
  mutable an_facts : int;
  mutable an_queries : int;
  mutable an_pruned : int;
}

type t = {
  name : string;
  post : Diag.phase option;
  run : stats -> Mir.func -> unit;
}

let v ?post name run = { name; post; run }

let record_estimate st label cost = st.estimates <- (label, cost) :: st.estimates

let fresh_stats () =
  { spilled = 0; sched_passes = 0; estimates = []; orders = [];
    sb_probes = 0; sb_conflicts = 0; sb_reserves = 0;
    an_time = 0.0; an_solves = 0; an_iters = 0; an_facts = 0;
    an_queries = 0; an_pruned = 0 }

let run_pipeline ?guard ?(verify = fun _ _ -> ())
    ?(snapshot = fun _ _ -> None) ?(validate = fun _ ~before:_ _ -> ())
    ?(record = fun _ ~wall:_ ~cpu:_ -> ()) passes fn =
  let st = fresh_stats () in
  List.iter
    (fun p ->
      let before =
        match p.post with
        | Some phase -> snapshot phase fn
        | None -> None
      in
      let t0 = Mclock.wall () and c0 = Mclock.thread_cpu () in
      (match guard with
      | None -> p.run st fn
      | Some g -> g p (fun () -> p.run st fn));
      record p.name
        ~wall:(Mclock.wall () -. t0)
        ~cpu:(Mclock.thread_cpu () -. c0);
      Option.iter
        (fun phase ->
          verify phase fn;
          Option.iter (fun before -> validate phase ~before fn) before)
        p.post)
    passes;
  st.estimates <- List.rev st.estimates;
  st
