(** Global common-subexpression elimination over available expressions —
    method 2 of the paper's Section 5.3 hierarchy. Deletes evaluations
    whose expression is available (intersection-forward) at the evaluation
    point; under the naming discipline the name already holds the value.
    Requires non-SSA code. Returns the number of deletions. *)

open Epre_ir

val run : Routine.t -> int

(** The same deletion over a flow already built for the routine, leaving
    its local sets describing the swept code ([Expr_flow.refresh]) — the
    per-round sweep of [Epre_pre.Pre]. *)
val sweep : Epre_analysis.Expr_flow.t -> int
