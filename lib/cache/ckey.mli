(** Stable content digests for the compilation cache.

    A cache key names everything a compile's output depends on: the
    pre-selection IL of one function, the machine model it is compiled
    against, and the identity of the pipeline that will run (strategy,
    ordered pass names, checking/validation flags). Each component is
    digested separately and the components are combined with {!combine};
    two compiles share a key exactly when all three digests agree.

    Digests are structural: they are computed from the meaning-bearing
    fields of the value, not from its heap representation, so a
    rebuilt-but-equal value (a model reloaded from the same description,
    an IL function regenerated from the same source) digests identically.
    In particular {!of_ir_func} ignores [Ir.expr.e_id] — node ids come
    from a process-global counter and differ between two front-end runs
    over the same source — while including every field that can influence
    generated code or diagnostics (labels, temp ids, user-visible
    names). *)

type t = string
(** A digest: 16 raw MD5 bytes. Render with {!to_hex}. *)

val to_hex : t -> string

val of_ir_func : Ir.func -> t
(** Digest of one IL function as handed to code selection (i.e. after
    glue rewriting — callers digest post-glue, since glue is part of the
    model's effect on the input). Ignores [e_id]; includes function name,
    signature, block labels and statement structure, temp ids and names,
    and frame-slot shapes. *)

val of_model : Model.t -> t
(** Digest of a compiled machine model. Memoized by physical identity
    with {!Model.memo} (models are built once and never mutated), but a
    structurally-equal rebuilt model recomputes to the {e same} digest —
    the memo is an optimization, never a semantic key. *)

val of_pipeline : strategy:string -> passes:string list -> flags:bool list -> t
(** Digest of the pipeline identity: strategy name, ordered pass names,
    and one byte per flag that changes the generated code or a report.
    The flag list carries no length, so its order and size are part of
    the key; [Strategy.pipeline_key] is the one caller that fixes them. *)

val combine : t list -> t
(** Order-sensitive combination of component digests into one key. *)

val format_version : int
(** Version of the cached-payload representation. Part of the persistent
    store's header; bump whenever the marshaled payload shape (MIR,
    diagnostics, pass statistics) changes incompatibly. *)
