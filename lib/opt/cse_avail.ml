(** Classic global common-subexpression elimination over available
    expressions — method 2 of the paper's Section 5.3 hierarchy.

    An expression available on every path into a block (the intersection
    forward problem) need not be re-evaluated until killed: under the naming
    discipline its name still holds the value, so the evaluation is simply
    deleted. Catches the if-then-else join redundancy that dominator-based
    CSE misses, but — unlike PRE — nothing that is only *partially*
    redundant. *)

open Epre_util
open Epre_ir
open Epre_analysis

let sweep (fl : Expr_flow.t) =
  let uni = fl.Expr_flow.uni in
  if fl.Expr_flow.width = 0 then 0
  else begin
    let avail = Expr_flow.availability fl in
    let deleted = ref 0 in
    let touched = Bitset.create (Cfg.num_blocks fl.Expr_flow.cfg) in
    Cfg.iter_blocks
      (fun b ->
        let current = Bitset.copy avail.Dataflow.ins.(b.Block.id) in
        b.Block.instrs <-
          List.filter
            (fun i ->
              let keep =
                match Expr_universe.key_of i, Instr.def i with
                | Some _, Some dst -> begin
                  match Expr_universe.expr_of_name uni dst with
                  | Some e ->
                    if Bitset.mem current e.Expr_universe.index then begin
                      incr deleted;
                      Bitset.add touched b.Block.id;
                      false
                    end
                    else begin
                      Bitset.add current e.Expr_universe.index;
                      true
                    end
                  | None -> true
                end
                | _ -> true
              in
              if keep then Expr_universe.iter_kills uni i (Bitset.remove current);
              keep)
            b.Block.instrs)
      fl.Expr_flow.cfg;
    Expr_flow.refresh fl touched;
    !deleted
  end

let run (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Cse_avail.run: requires non-SSA code";
  sweep (Expr_flow.build r)
