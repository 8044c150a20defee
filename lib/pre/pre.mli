(** Partial redundancy elimination with edge placement — the engine behind
    the paper's "partial" optimization level.

    The Drechsler–Stadel edge-placement formulation in its unidirectional
    earliest/later form (equivalent to lazy code motion), run over the
    expression universe of [Epre_analysis.Expr_universe] and iterated to a fixed
    point so composite expressions move as chains; each round ends with an
    available-expression deletion sweep, which also subsumes global CSE.

    Insertions land on (pre-split) edges; deletions never lengthen an
    execution path — the property Section 2 highlights. *)

open Epre_ir

type stats = {
  mutable inserted : int;  (** computations placed on edges *)
  mutable deleted : int;  (** evaluations removed by the LCM system *)
  mutable cse_deleted : int;  (** evaluations removed by the per-round sweep *)
  mutable rounds : int;
}

(** Run to a fixed point (bounded). Loads participate, killed by stores
    and calls. Requires non-SSA code under the Section 2.2 naming
    discipline — run [Epre_opt.Naming] first on untrusted input. *)
val run : Routine.t -> stats

(** {2 Rounds one at a time}

    A run prepares the graph and builds its [Expr_flow.t] once; each
    round then refreshes the local sets of the blocks it changed. *)

(** The round driver shared with [Pre_classic]: build the routine's flow,
    then alternate [round] and the availability sweep
    ([Epre_opt.Cse_avail.sweep]) until neither changes the code, at most
    16 rounds. [round] returns (inserted, deleted) and must leave the
    flow's local sets describing the code ([Expr_flow.refresh]). *)
val fixpoint :
  Routine.t -> round:(Epre_analysis.Expr_flow.t -> int * int) -> stats

(** Split the critical edges and, when the entry block has predecessors,
    give the routine a fresh empty entry that jumps to it: the landing
    block of the virtual entry edge. *)
val prepare : Routine.t -> unit

(** One lazy-code-motion transformation over the flow of a [prepare]d
    routine; returns (inserted, deleted). *)
val lcm_round : Epre_analysis.Expr_flow.t -> int * int

(** The evaluations of a set of universe indices, in index order; shared
    with [Pre_classic]. *)
val instrs_of_set : Epre_analysis.Expr_universe.t -> Epre_util.Bitset.t -> Instr.t list

(** [delete_covered fl order ~touched del] deletes, in each reachable
    block [b], the evaluations of expressions in [del b] that come before
    the first kill of their expression, adds [b] to [touched] if it lost
    any, and returns how many were deleted; shared with [Pre_classic]. *)
val delete_covered :
  Epre_analysis.Expr_flow.t ->
  Epre_analysis.Order.t ->
  touched:Epre_util.Bitset.t ->
  (int -> Epre_util.Bitset.t) ->
  int
