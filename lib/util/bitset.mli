(** Fixed-capacity bit sets.

    Resource vectors (one element per machine resource, one vector entry per
    cycle) are the scheduler's primary hazard-detection structure, so these
    sets are mutable and allocation-light. *)

type t

val create : int -> t
(** [create n] is an empty set able to hold elements [0 .. n-1]. *)

val capacity : t -> int

val copy : t -> t

val set : t -> int -> unit

val unset : t -> int -> unit

val mem : t -> int -> bool

val set_range : t -> int -> int -> unit
(** [set_range t pos len] adds elements [pos .. pos+len-1], word-wise.
    Contiguous runs (register storage bytes) are the common shape in the
    checker's dataflow sets, so this avoids a per-bit loop. *)

val mem_range : t -> int -> int -> bool
(** [mem_range t pos len] is [true] iff every element of
    [pos .. pos+len-1] is a member. [len = 0] is vacuously true. *)

val is_empty : t -> bool

val clear : t -> unit

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] adds every element of [src] to [dst]. Capacities
    must agree. *)

val diff_into : dst:t -> t -> unit
(** [diff_into ~dst src] removes from [dst] every element of [src].
    Capacities must agree. *)

val blit : src:t -> dst:t -> unit
(** [blit ~src ~dst] makes [dst] hold exactly the elements of [src].
    Capacities must agree. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] removes from [dst] every element not in [src].
    Capacities must agree. *)

val inter_empty : t -> t -> bool
(** [inter_empty a b] is [true] iff [a] and [b] share no element. *)

val equal : t -> t -> bool

val cardinal : t -> int

val iter : (int -> unit) -> t -> unit
(** In ascending order; [f] must not change the set. *)

val of_list : int -> int list -> t

val to_list : t -> int list
