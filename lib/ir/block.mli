(** Basic blocks: a straight-line instruction list plus one terminator.
    Phis, when present (SSA form), lead the instruction list. *)

type t = {
  id : int;
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
}

val create : id:int -> ?instrs:Instr.t list -> term:Instr.terminator -> unit -> t

(** Append before the terminator. Copies the instruction list, so it costs
    O(block length): a loop of [append]s is quadratic in what it adds. *)
val append : t -> Instr.t -> unit

(** Append a list before the terminator, in order, with one copy of the
    block's instructions. *)
val append_list : t -> Instr.t list -> unit

val prepend : t -> Instr.t -> unit

val succs : t -> int list

(** Registers defined anywhere in the block, phis included. *)
val defs : t -> Instr.reg list

val phis : t -> Instr.t list

val non_phis : t -> Instr.t list

(** Instructions plus the terminator — the paper's static count unit. *)
val op_count : t -> int
