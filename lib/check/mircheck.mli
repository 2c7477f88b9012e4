(** Phase-aware MIR verifier, in the spirit of LLVM's MachineVerifier.

    The verifier re-checks, from the machine model alone, the invariants
    each back-end phase claims to establish, turning latent miscompiles
    into located diagnostics. It is deliberately an independent
    re-implementation of the rules the selector, allocator, scheduler and
    simulator share, so a bug in any one of them shows up as a
    disagreement.

    Checked at every phase point:
    - operand shapes against {!Model.instr.i_opnds} (register class match,
      fixed-register equality, immediates within their [%def] range,
      labels resolving to blocks) — [M001..M006];
    - CFG well-formedness (unique labels, [b_succs] resolve, nothing but
      delay-slot fills after a terminator) — [M011..M013];
    - def-before-use on registers: a forward definitely-assigned analysis
      run through the shared solver ({!Dataflow.Solve}; join =
      intersection over predecessors, seeded with the CWVM environment
      registers, unreachable blocks exempt) — [M031];
    - EAP temporal discipline (paper 4.6 Rule 1): while a value launched
      into a temporal latch awaits its catch, no other instruction may
      advance that clock, and no catch may read a latch never launched in
      its block — [M043], [M044].

    Phase-dependent:
    - [Post_select] only: {!Liveness}, restricted to pseudo-registers,
      warns of a pseudo that may be used uninitialized ([A001]) and of a
      definition no path reads ([A002]) — advisory analysis findings,
      never errors;
    - [Post_regalloc] and later: no pseudo-registers, no unresolved
      [Opart] — [M021], [M022];
    - [Post_sched] and later: every branch delay slot filled with a
      non-branch instruction — [M041], [M042];
    - [Final]: no frame slots left — [M023].

    Diagnostic codes are stable; see DESIGN.md ("Static checking"). *)

val check_func : Diag.phase -> Mir.func -> Diag.t list
(** The findings of every check above that applies at the phase point.
    Interlock stalls are not among them: they are legal (the simulator
    stalls, it does not break), and its cycle counts price them. *)

val check_prog : Diag.phase -> Mir.prog -> Diag.t list

val check_prog_exn : Diag.phase -> Mir.prog -> Diag.t list
(** Like {!check_prog} but raises {!Diag.Check_error} when any
    [Error]-severity diagnostic is found; returns the warnings
    otherwise. *)
