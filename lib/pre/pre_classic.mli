(** Classic Morel–Renvoise PRE (1979): the bidirectional
    placement-possible system with insertions at block ends, kept as an
    ablation baseline next to [Pre].

    Correct everywhere but weaker wherever a critical edge is the only
    legal insertion point — the reason the paper's implementation uses the
    Drechsler–Stadel variant. Compare with [bench/main.exe ablation]. *)

open Epre_ir

type stats = Pre.stats = {
  mutable inserted : int;
  mutable deleted : int;
  mutable cse_deleted : int;
  mutable rounds : int;
}

(** Rounds of [mr_round] through [Pre.fixpoint]. *)
val run : Routine.t -> stats

(** One Morel–Renvoise transformation over a routine's flow; returns
    (inserted, deleted) and refreshes the blocks it changed. *)
val mr_round : Epre_analysis.Expr_flow.t -> int * int
