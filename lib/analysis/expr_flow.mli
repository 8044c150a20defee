(** The shared expression-level data-flow client.

    [Pre], [Pre_classic], [Cse_avail] and the redundancy auditor all solve
    the same problems over the same universe: build [Expr_universe], take
    the ANTLOC/COMP/KILL local sets, and feed a gen/kill system to the
    generic [Dataflow] solver. This module is that construction, written
    once. The four classic systems:

    - {b availability} (forward, ∩): evaluated on {e every} path from the
      entry with no later kill — full redundancy;
    - {b anticipability} (backward, ∩): evaluated on {e every} path to the
      exit before any kill — down-safety of a placement;
    - {b partial availability} (forward, ∪): evaluated on {e some} path —
      the "partial" in partial redundancy;
    - {b partial anticipability} (backward, ∪): up-safety's counterpart,
      evaluated on some downstream path before a kill. *)

open Epre_util
open Epre_ir

type t = {
  uni : Expr_universe.t;
  local : Expr_universe.local;
  width : int;  (** [Expr_universe.size uni] *)
  cfg : Cfg.t;
}

(** Build the universe and local sets for a routine. *)
val build : Routine.t -> t

(** [refresh t touched] recomputes the local sets of the blocks in
    [touched] (a set over block ids) after their instructions changed.
    The universe is kept: a pass that only inserts evaluations of
    universe expressions into their names and deletes such evaluations
    leaves [Expr_universe.build] unchanged, and the control-flow graph
    must not change. *)
val refresh : t -> Bitset.t -> unit

(** Forward ∩ over COMP/KILL; [ins]/[outs] are AVIN/AVOUT. *)
val availability : t -> Dataflow.result

(** Backward ∩ over ANTLOC/KILL; [ins]/[outs] are ANTIN/ANTOUT. *)
val anticipability : t -> Dataflow.result

(** Forward ∪ over COMP/KILL; PAVIN/PAVOUT. *)
val partial_availability : t -> Dataflow.result

(** Backward ∪ over ANTLOC/KILL; PANTIN/PANTOUT. *)
val partial_anticipability : t -> Dataflow.result

(** The lazy-code-motion placement (Drechsler–Stadel earliest/later
    form): where insertions would go and which evaluations they cover.
    [Pre] drives its transformation from this; the redundancy auditor
    reads the same equations to judge what a safe placement {e could}
    remove, so engine and auditor can never disagree. *)
type placement = {
  laterin : Bitset.t array;
      (** the entry's meets the virtual edge into it, whose LATER is
        [ANTIN(entry)]; an entry without predecessors therefore never
        needs an insertion on that edge *)
  later : int -> int -> Bitset.t;
      (** LATER over the real edge (i, j) between reachable blocks, from
        the settled [laterin]; [INSERT(i,j) = LATER(i,j) ∧ ¬LATERIN(j)] *)
}

val lcm_placement : t -> placement

(** [DELETE(b) = ANTLOC(b) ∧ ¬LATERIN(b)] per block: the upward-exposed
    evaluations a safe lazy placement covers — exactly what one [Pre]
    round would delete. *)
val lcm_delete : t -> Bitset.t array
