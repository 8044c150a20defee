(** Partial redundancy elimination with edge placement.

    The engine behind the paper's "partial" optimization level. We use the
    Drechsler–Stadel style edge-placement formulation in its unidirectional
    earliest/later form (equivalent to Knoop–Rüthing–Steffen lazy code
    motion; Drechsler and Stadel themselves recast their simplification this
    way) over the expression universe of [Epre_analysis.Expr_universe]:

    - availability (forward, intersection) and anticipability (backward,
      intersection) from the usual ANTLOC/COMP/KILL local sets;
    - [EARLIEST(i,j) = ANTIN(j) ∧ ¬AVOUT(i) ∧ (KILL(i) ∨ ¬ANTOUT(i))] on
      edges, with a virtual edge into the entry so expressions anticipated
      at routine entry have a legal insertion point (an entry with
      predecessors first gets an empty landing block of its own, so the
      virtual edge itself never needs an insertion);
    - [LATER]/[LATERIN] push insertions down to the latest point that still
      covers every deletion (lazy placement: minimal register pressure, and
      — the property Section 2 highlights — no execution path ever gets
      longer);
    - [INSERT(i,j) = LATER(i,j) ∧ ¬LATERIN(j)], placed on the (pre-split)
      edge; [DELETE(j) = ANTLOC(j) ∧ ¬LATERIN(j)].

    A single data-flow round moves only expressions whose operands are not
    redefined by a dominating subexpression evaluation in the same block —
    i.e. depth-one expressions. Under the Section 2.2 naming discipline a
    composite expression becomes movable exactly when its subexpressions
    have moved, so [run] iterates rounds (each followed by an
    available-expression deletion sweep, which also subsumes global CSE) to
    a fixed point. This is the classic behaviour of Morel–Renvoise style
    PRE on three-address code. *)

open Epre_util
open Epre_ir
open Epre_analysis
open Epre_opt

type stats = {
  mutable inserted : int;
  mutable deleted : int;
  mutable cse_deleted : int;
  mutable rounds : int;
}

let instr_of_key (key : Expr_universe.key) ~dst =
  match key with
  | Expr_universe.KConst value -> Instr.Const { dst; value }
  | Expr_universe.KUnop (op, src) -> Instr.Unop { op; dst; src }
  | Expr_universe.KBinop (op, a, b) -> Instr.Binop { op; dst; a; b }
  | Expr_universe.KLoad addr -> Instr.Load { dst; addr }

let instrs_of_set uni set =
  let exprs = Expr_universe.exprs uni in
  List.map
    (fun idx ->
      let e = exprs.(idx) in
      instr_of_key e.Expr_universe.key ~dst:e.Expr_universe.name)
    (Bitset.elements set)

let delete_covered (fl : Expr_flow.t) order ~touched del =
  let uni = fl.Expr_flow.uni in
  let deleted = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      let id = b.Block.id in
      if Order.is_reachable order id then begin
        let del = del id in
        if not (Bitset.is_empty del) then begin
          (* Every evaluation of e before the first kill of e produces the
             value now available in e's name. *)
          let killed = Bitset.create fl.Expr_flow.width in
          b.Block.instrs <-
            List.filter
              (fun i ->
                let drop =
                  match Expr_universe.key_of i, Instr.def i with
                  | Some _, Some dst -> begin
                    match Expr_universe.expr_of_name uni dst with
                    | Some e ->
                      let idx = e.Expr_universe.index in
                      Bitset.mem del idx && not (Bitset.mem killed idx)
                    | None -> false
                  end
                  | _ -> false
                in
                if drop then begin
                  incr deleted;
                  Bitset.add touched id
                end
                else Expr_universe.iter_kills uni i (Bitset.add killed);
                not drop)
              b.Block.instrs
        end
      end)
    fl.Expr_flow.cfg;
  !deleted

let lcm_round (fl : Expr_flow.t) =
  let width = fl.Expr_flow.width in
  if width = 0 then (0, 0)
  else begin
    let uni = fl.Expr_flow.uni in
    let cfg = fl.Expr_flow.cfg in
    let antloc = fl.Expr_flow.local.Expr_universe.antloc in
    let order = Order.compute cfg in
    let preds = Cfg.preds cfg in
    let touched = Bitset.create (Cfg.num_blocks cfg) in
    (* The earliest/later placement, shared with the redundancy auditor
       (see [Expr_flow.lcm_placement] for the equations). *)
    let { Expr_flow.laterin; later } = Expr_flow.lcm_placement fl in
    let inserted = ref 0 in
    let insert id ins place =
      if not (Bitset.is_empty ins) then begin
        let instrs = instrs_of_set uni ins in
        inserted := !inserted + List.length instrs;
        place (Cfg.block cfg id) instrs;
        Bitset.add touched id
      end
    in
    (* Insertions on real edges. *)
    let edges =
      Cfg.fold_blocks
        (fun acc b ->
          if Order.is_reachable order b.Block.id then
            List.fold_left (fun acc s -> (b.Block.id, s) :: acc) acc (Block.succs b)
          else acc)
        [] cfg
    in
    List.iter
      (fun (i, j) ->
        let ins = later i j in
        Bitset.diff_into ~dst:ins laterin.(j);
        if List.length (Cfg.succs cfg i) = 1 then insert i ins Block.append_list
        else begin
          (* Critical edges are split, so j has a single pred. *)
          assert (Bitset.is_empty ins || List.length preds.(j) = 1);
          insert j ins (fun b instrs -> b.Block.instrs <- instrs @ b.Block.instrs)
        end)
      edges;
    (* Deletions: DELETE(j) = ANTLOC(j) ∧ ¬LATERIN(j). *)
    let deleted =
      delete_covered fl order ~touched (fun id ->
          let del = Bitset.copy antloc.(id) in
          Bitset.diff_into ~dst:del laterin.(id);
          del)
    in
    Expr_flow.refresh fl touched;
    (!inserted, deleted)
  end

let max_rounds = 16

let fixpoint (r : Routine.t) ~round =
  let fl = Expr_flow.build r in
  let stats = { inserted = 0; deleted = 0; cse_deleted = 0; rounds = 0 } in
  let rec go n =
    if n < max_rounds then begin
      let ins, del = round fl in
      let cse = Cse_avail.sweep fl in
      stats.inserted <- stats.inserted + ins;
      stats.deleted <- stats.deleted + del;
      stats.cse_deleted <- stats.cse_deleted + cse;
      stats.rounds <- stats.rounds + 1;
      if ins + del + cse > 0 then go (n + 1)
    end
  in
  go 0;
  stats

(* Rounds never change the graph, so this serves them all. *)
let prepare (r : Routine.t) =
  ignore (Epre_ssa.Critical_edges.split_all r);
  let cfg = r.Routine.cfg in
  if (Cfg.preds cfg).(Cfg.entry cfg) <> [] then
    Cfg.set_entry cfg (Cfg.add_block ~term:(Instr.Jump (Cfg.entry cfg)) cfg).Block.id

(** Run PRE to a fixed point. Loads participate, killed by stores and
    calls; the paper's array-heavy suite needs them. *)
let run (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Pre.run: requires non-SSA code";
  prepare r;
  fixpoint r ~round:lcm_round
