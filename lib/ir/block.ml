(** Basic blocks: a straight-line instruction list plus one terminator. *)

type t = {
  id : int;
  mutable instrs : Instr.t list;
  mutable term : Instr.terminator;
}

let create ~id ?(instrs = []) ~term () = { id; instrs; term }

let append b i = b.instrs <- b.instrs @ [ i ]

let append_list b is = b.instrs <- b.instrs @ is

let prepend b i = b.instrs <- i :: b.instrs

let succs b = Instr.term_succs b.term

(** Registers defined anywhere in the block (phis included). *)
let defs b = List.filter_map Instr.def b.instrs

let phis b =
  List.filter (function Instr.Phi _ -> true | _ -> false) b.instrs

let non_phis b =
  List.filter (function Instr.Phi _ -> false | _ -> true) b.instrs

(** Static operation count: instructions plus the terminator, matching the
    paper's "static counts of the number of ILOC operations". *)
let op_count b = List.length b.instrs + 1
