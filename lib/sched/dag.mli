(** The code DAG (paper 4.1): nodes are instructions of one basic block,
    directed labeled edges are dependences. An edge [(x, y)] with label [l]
    means y cannot issue fewer than [l] cycles after x.

    Edge types:
    - {b True} data dependences, labeled with the producer's latency,
      overridden by matching %aux directives;
    - {b Mem} ordering between memory references;
    - {b Anti} anti- and output-dependences on registers (included or not
      at the strategy's choice);
    - {b Temporal} true dependences through a temporal register of an
      explicitly advanced pipeline, tagged with the clock.

    Construction also {e protects temporal sequences} (paper 4.6): for each
    alternate entry into a temporal sequence, ancestors that affect the
    sequence's clock get an extra edge to the sequence head, so a
    non-backtracking list scheduler cannot deadlock (Figure 6).

    Register dependences come from {!Locs}'s effect walk, in its scan
    order (the kind of an edge is that of the first dependence in that
    order asking for its label), over the overlap and cover sets of
    {!Regtab}: a half write is a write of its whole root register. *)

type edge_kind = True | Mem | Anti | Temporal of int

type edge = { e_src : int; e_dst : int; e_label : int; e_kind : edge_kind }

type t = {
  insts : Mir.inst array;
  succs : (int * int * edge_kind) list array;  (* dst, label, kind *)
  preds : (int * int * edge_kind) list array;  (* src, label, kind *)
  edges : edge list;
}
(** An edge set: one edge per (src, dst) pair, with the strictest label
    any dependence asked for and the kind of the first dependence in scan
    order that asked for that label. [succs.(s)] and [preds.(d)] hold
    exactly the edges of [edges] out of [s] and into [d]. No list order
    is promised. *)

type oracle = {
  o_alias : Mir.inst -> Mir.inst -> bool;
      (** may the two instructions' memory accesses touch a common byte?
          Must be conservative: [false] only when provably disjoint *)
  mutable o_queries : int;  (** alias queries issued by {!build} *)
  mutable o_pruned : int;
      (** queried pairs proven independent (and not already transitively
          ordered), i.e. Mem edges pruned *)
}

val oracle : (Mir.inst -> Mir.inst -> bool) -> oracle
(** Wrap an alias predicate with zeroed counters. *)

val build :
  ?anti:bool -> ?aux:bool -> ?oracle:oracle -> Model.t -> Mir.inst list -> t
(** [anti] (default true) controls inclusion of type-3 edges; [aux]
    (default true) controls whether %aux directives override latencies —
    turning it off is an ablation: the machine still behaves per %aux, the
    scheduler just stops knowing about it.

    [oracle] enables static memory disambiguation of the type-2 edges:
    instead of serializing all memory traffic behind the last store, each
    load is ordered behind every {e aliasing} earlier store and each store
    behind every aliasing earlier load and store, with per-node closures
    keeping the edge set transitively reduced. Calls remain full barriers.
    Without an oracle the conservative serialization is used.

    Cost: one scan of the block. Each location keeps a list of its live
    writers and one of its readers since the last write covering it, so
    a read or write walks only the lists of the locations it overlaps,
    and nearly every visit makes or confirms an edge: the work grows with
    the instructions, their operands and the edges made, plus the
    oracle's Mem closures (a bitset per memory node) and the protection
    walk, which runs only where a temporal sequence has an alternate
    entry. [edges] is built once from [succs] at the end. *)

val max_dist_to_leaf : t -> int array
(** The list scheduler's priority function: the maximum label-weighted
    distance from each node to a leaf. *)
