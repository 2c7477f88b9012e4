(** Graph-coloring global register allocation in the style of Chaitin and
    Briggs et al. (paper 2.2).

    Nodes are pseudo-registers; edges are interferences computed from
    liveness over the instruction order presented by the strategy.
    Register pairs (%equiv) interfere through byte overlap, and precolored
    physical registers (CWVM argument/result registers, call clobbers)
    constrain the colors a pseudo-register may take. Coloring is
    optimistic; uncolored nodes spill to frame slots, spill code is
    inserted, and allocation repeats until it converges.

    Everything runs on dense ids: bitset liveness over pseudo and hard
    register keys ({!Liveness}), per-node bitset rows and int-array
    adjacency for one round's graph, and per-model color and overlap
    tables ({!Regtab}). No per-function table outlives {!allocate}. *)

type stats = {
  rounds : int;  (** coloring rounds (1 = no spilling needed) *)
  spilled : int;  (** pseudo-registers sent to memory *)
}

val allocate : ?forbid_global_pregs:bool -> ?max_local:int -> Mir.func -> stats
(** Allocate and rewrite the function in place: pseudo-registers become
    physical registers, [Opart]s resolve to subregisters, identity moves
    disappear and [Mir.f_saved] receives the callee-save registers used.
    [Mir.f_locations] receives the complete pseudo-to-location map for
    this run — colored pseudos (spill temporaries included) map to
    {!Mir.Lreg}, spilled pseudos to their {!Mir.Lslot} — which is what
    the translation validator ({!Transval}) audits.

    [forbid_global_pregs] spills every cross-block pseudo-register up
    front — the local-only baseline strategy ("Naive", standing in for the
    paper's [cc -O1] comparison point).

    [max_local] caps the number of allocable registers per class (used by
    RASE to enforce per-block schedule/register trade-offs). *)

val simplify :
  adj:int array array -> size:int array -> avail:int array ->
  forbidden:int array -> cost:float array -> no_spill:bool array -> int array
(** The simplify phase of coloring, over nodes [0 .. n-1] numbered in
    pseudo-register id order. Node [u] has neighbours [adj.(u)] (a
    symmetric relation without self-loops or duplicates), registers of
    [size.(u)] bytes, [avail.(u)] colors, [forbidden.(u)] interfering
    precolored registers and spill cost [cost.(u)]; [no_spill.(u)] marks
    a spill temporary. Returns the removal order, a permutation of the
    nodes; the select phase colors in its reverse.

    Each step removes the first node whose forbidden registers and
    unremoved neighbours cannot block all its colors — a neighbour [v]
    blocks [ceil(size v / size u)] of [u]'s colors. If there is none it
    removes, optimistically, the first node of least spill weight
    [cost / (degree + 1)] (spill temporaries weigh [1e18 / (degree + 1)]). *)
