(** Chaitin-style copy coalescing — the paper's final cleanup ("the
    coalescing phase of a Chaitin-style global register allocator will
    remove unnecessary copy instructions").

    Interference comes from liveness (a definition interferes with
    everything live across it, except a copy's source); copies whose
    classes do not interfere are merged, to a fixed point. Requires
    non-SSA code. Returns the number of copies removed; [next_reg] is left
    unchanged. *)

open Epre_ir

val run : Routine.t -> int
