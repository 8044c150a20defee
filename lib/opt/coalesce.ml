(** Chaitin-style copy coalescing (the paper's final cleanup: "the
    coalescing phase of a Chaitin-style global register allocator will
    remove unnecessary copy instructions").

    Builds the interference relation from liveness — a definition point
    interferes with everything live across it, except that a copy's
    destination does not interfere with its source — then merges the two
    names of every copy whose classes do not interfere, and rewrites.
    Repeats until a pass removes nothing: merging frees further copies.

    The rounds run over a dense renumbering of the registers that occur:
    registers are never compacted after the SSA round trips and DCE, so
    [next_reg] is often many times their number, and the liveness and
    interference sets would otherwise be [next_reg] wide. *)

open Epre_util
open Epre_ir
open Epre_analysis

(* One coalescing round; returns number of copies removed. *)
let round (r : Routine.t) =
  let cfg = r.Routine.cfg in
  let width = max 1 r.Routine.next_reg in
  let live_info = Liveness.compute r in
  (* interference.(v) = original registers v's class interferes with;
     members.(rep) = original registers in rep's class. *)
  let interference = Array.init width (fun _ -> Bitset.create width) in
  let add_edge a b =
    if a <> b then begin
      Bitset.add interference.(a) b;
      Bitset.add interference.(b) a
    end
  in
  Cfg.iter_blocks
    (fun b ->
      let live = Bitset.copy (Liveness.live_out live_info b.Block.id) in
      List.iter (fun u -> Bitset.add live u) (Instr.term_uses b.Block.term);
      List.iter
        (fun i ->
          (match Instr.def i with
          | Some d ->
            let exempt = match i with Instr.Copy { src; _ } -> Some src | _ -> None in
            Bitset.iter
              (fun v -> if Some v <> exempt then add_edge d v)
              live;
            Bitset.remove live d
          | None -> ());
          List.iter (fun u -> Bitset.add live u) (Instr.uses i))
        (List.rev b.Block.instrs))
    cfg;
  let uf = Union_find.create width in
  let members = Array.init width (fun v ->
      let s = Bitset.create width in
      Bitset.add s v;
      s)
  in
  let is_param = Array.make width false in
  List.iter (fun p -> is_param.(p) <- true) r.Routine.params;
  let interferes x y =
    let rx = Union_find.find uf x and ry = Union_find.find uf y in
    not (Bitset.disjoint interference.(rx) members.(ry))
  in
  let merge x y =
    (* Keep a parameter as the representative so entry definitions keep
       their register. *)
    let x, y = if is_param.(Union_find.find uf y) then (y, x) else (x, y) in
    let rx = Union_find.find uf x and ry = Union_find.find uf y in
    Union_find.union_keep_first uf rx ry;
    Bitset.union_into ~dst:members.(rx) members.(ry);
    Bitset.union_into ~dst:interference.(rx) interference.(ry)
  in
  let merged = ref 0 in
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          match i with
          | Instr.Copy { dst; src } ->
            let rd = Union_find.find uf dst and rs = Union_find.find uf src in
            if rd <> rs && not (is_param.(rd) && is_param.(rs)) && not (interferes rd rs)
            then begin
              merge rd rs;
              incr merged
            end
          | _ -> ())
        b.Block.instrs)
    cfg;
  let removed = ref 0 in
  if !merged > 0 then begin
    let rename v = Union_find.find uf v in
    Cfg.iter_blocks
      (fun b ->
        b.Block.instrs <-
          List.filter_map
            (fun i ->
              let i = Instr.map_uses rename (Instr.map_def rename i) in
              match i with
              | Instr.Copy { dst; src } when dst = src ->
                incr removed;
                None
              | i -> Some i)
            b.Block.instrs;
        b.Block.term <- Instr.map_term_uses rename b.Block.term)
      cfg
  end
  else begin
    (* Even with no merges, drop degenerate self-copies. *)
    Cfg.iter_blocks
      (fun b ->
        b.Block.instrs <-
          List.filter
            (fun i ->
              match i with
              | Instr.Copy { dst; src } when dst = src ->
                incr removed;
                false
              | _ -> true)
            b.Block.instrs)
      cfg
  end;
  !removed

let max_rounds = 16

(* Renames every register in [r]'s code through [f], in place. *)
let rename_code f (r : Routine.t) =
  Cfg.iter_blocks
    (fun b ->
      b.Block.instrs <- List.map (fun i -> Instr.map_uses f (Instr.map_def f i)) b.Block.instrs;
      b.Block.term <- Instr.map_term_uses f b.Block.term)
    r.Routine.cfg

(* The registers that occur in [r], ascending. Numbering them in this
   order keeps every merge and representative choice of the rounds. *)
let occurring (r : Routine.t) =
  let seen = Bitset.create r.Routine.next_reg in
  let note v = Bitset.add seen v in
  List.iter note r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter
        (fun i ->
          Option.iter note (Instr.def i);
          List.iter note (Instr.uses i))
        b.Block.instrs;
      List.iter note (Instr.term_uses b.Block.term))
    r.Routine.cfg;
  Array.of_list (Bitset.elements seen)

let run (r : Routine.t) =
  if r.Routine.in_ssa then invalid_arg "Coalesce.run: requires non-SSA code";
  let orig = occurring r in
  let index = Array.make r.Routine.next_reg 0 in
  Array.iteri (fun k v -> index.(v) <- k) orig;
  rename_code (fun v -> index.(v)) r;
  let dense =
    Routine.create ~name:r.Routine.name
      ~params:(List.map (fun v -> index.(v)) r.Routine.params)
      ~cfg:r.Routine.cfg ~next_reg:(Array.length orig)
  in
  let total = ref 0 in
  let rec go n =
    if n < max_rounds then begin
      let removed = round dense in
      total := !total + removed;
      if removed > 0 then go (n + 1)
    end
  in
  go 0;
  rename_code (fun k -> orig.(k)) r;
  !total
