(** The expression universe shared by PRE and available-expression CSE.

    Under the Section 2.2 naming discipline an expression is identified by
    its canonical destination register; this module collects a routine's
    universe and the block-local ANTLOC/COMP/KILL sets every bit-vector
    pass needs. Registers violating the discipline are conservatively
    excluded — run [Naming.run] first to make the universe total. *)

open Epre_util
open Epre_ir

type key =
  | KConst of Value.t
  | KUnop of Op.unop * Instr.reg
  | KBinop of Op.binop * Instr.reg * Instr.reg
      (** commutative operands in canonical order *)
  | KLoad of Instr.reg

(** The key an instruction evaluates, [None] for non-expressions. *)
val key_of : Instr.t -> key option

val key_operands : key -> Instr.reg list

val is_load : key -> bool

type expr = {
  index : int;  (** dense index into the bit vectors *)
  name : Instr.reg;  (** the canonical destination *)
  key : key;
}

type t = private {
  exprs : expr array;  (** in ascending name order, [index] = position *)
  of_name : expr option array;  (** indexed by register *)
  killed_by : int list array;
      (** indexed by register: the expressions it is an operand of *)
  loads : int list;  (** indices of load expressions *)
}

val size : t -> int

val exprs : t -> expr array

val expr_of_name : t -> Instr.reg -> expr option

(** One pass over the routine's definitions into a register-indexed
    table, read back in ascending register order. *)
val build : Routine.t -> t

type local = {
  antloc : Bitset.t array;
      (** evaluated in the block before any kill of the expression *)
  comp : Bitset.t array;  (** evaluated with no kill afterwards *)
  kill : Bitset.t array;
      (** operand redefined; loads also killed by stores/calls *)
}

(** [iter_kills t i f] calls [f] on each expression [i] kills: those
    with [i]'s destination as an operand and, for a store or a call,
    every load. *)
val iter_kills : t -> Instr.t -> (int -> unit) -> unit

val compute_local : t -> Routine.t -> local

(** Recompute one block's ANTLOC/COMP/KILL in place after its
    instructions changed. *)
val update_local : t -> local -> Block.t -> unit
