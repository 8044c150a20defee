(** The shared expression-level data-flow client. See the interface. *)

open Epre_util
open Epre_ir

type t = {
  uni : Expr_universe.t;
  local : Expr_universe.local;
  width : int;
  cfg : Cfg.t;
}

let build (r : Routine.t) =
  let uni = Expr_universe.build r in
  { uni; local = Expr_universe.compute_local uni r; width = Expr_universe.size uni;
    cfg = r.Routine.cfg }

let refresh t touched =
  Bitset.iter
    (fun id -> Expr_universe.update_local t.uni t.local (Cfg.block t.cfg id))
    touched

let system t ~gen ~meet =
  {
    Dataflow.width = t.width;
    gen = (fun id -> gen.(id));
    kill = (fun id -> t.local.Expr_universe.kill.(id));
    boundary = Bitset.create t.width;
    meet;
  }

let availability t =
  Dataflow.solve_forward t.cfg
    (system t ~gen:t.local.Expr_universe.comp ~meet:Dataflow.Inter)

let anticipability t =
  Dataflow.solve_backward t.cfg
    (system t ~gen:t.local.Expr_universe.antloc ~meet:Dataflow.Inter)

let partial_availability t =
  Dataflow.solve_forward t.cfg
    (system t ~gen:t.local.Expr_universe.comp ~meet:Dataflow.Union)

let partial_anticipability t =
  Dataflow.solve_backward t.cfg
    (system t ~gen:t.local.Expr_universe.antloc ~meet:Dataflow.Union)

type placement = {
  laterin : Bitset.t array;
  later : int -> int -> Bitset.t;
}

let lcm_placement t =
  let cfg = t.cfg in
  let width = t.width in
  let antloc = t.local.Expr_universe.antloc in
  let kill = t.local.Expr_universe.kill in
  let avail = availability t in
  let ant = anticipability t in
  let antin = ant.Dataflow.ins and antout = ant.Dataflow.outs in
  let avout = avail.Dataflow.outs in
  let order = Order.compute cfg in
  let reachable = Order.is_reachable order in
  let rpo = Order.reverse_postorder order in
  let entry = Cfg.entry cfg in
  (* EARLIEST(i,j) = ANTIN(j) ∧ ¬AVOUT(i) ∧ (KILL(i) ∨ ¬ANTOUT(i)), once
     per edge from a reachable block into a reachable one: the LATER
     fixpoint below only reads it. *)
  let guarded = Bitset.create width in
  let earliest i j =
    let s = Bitset.copy antin.(j) in
    Bitset.diff_into ~dst:s avout.(i);
    Bitset.assign ~dst:guarded s;
    Bitset.inter_into ~dst:guarded kill.(i);
    Bitset.diff_into ~dst:s antout.(i);
    Bitset.union_into ~dst:s guarded;
    s
  in
  let in_edges =
    Array.mapi
      (fun j ps ->
        if reachable j then
          List.filter_map (fun i -> if reachable i then Some (i, earliest i j) else None) ps
        else [])
      (Cfg.preds cfg)
  in
  let laterin = Array.init (Cfg.num_blocks cfg) (fun _ -> Bitset.full width) in
  (* LATER(i,j) = EARLIEST(i,j) ∨ (LATERIN(i) ∧ ¬ANTLOC(i)). *)
  let later_into ~dst i e =
    Bitset.assign ~dst laterin.(i);
    Bitset.diff_into ~dst antloc.(i);
    Bitset.union_into ~dst e
  in
  let acc = Bitset.create width and edge = Bitset.create width in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun j ->
        (* LATERIN(j) = ∩ over j's in-edges of LATER. *)
        let first = ref true in
        let meet s =
          if !first then Bitset.assign ~dst:acc s else Bitset.inter_into ~dst:acc s;
          first := false
        in
        (* The virtual entry edge: LATER(V, entry) = ANTIN(entry). *)
        if j = entry then meet antin.(entry);
        List.iter
          (fun (i, e) ->
            later_into ~dst:edge i e;
            meet edge)
          in_edges.(j);
        if !first then Bitset.clear acc;
        if not (Bitset.equal acc laterin.(j)) then begin
          Bitset.assign ~dst:laterin.(j) acc;
          changed := true
        end)
      rpo
  done;
  let later i j =
    let s = Bitset.create width in
    later_into ~dst:s i (List.assoc i in_edges.(j));
    s
  in
  { laterin; later }

let lcm_delete t =
  let p = lcm_placement t in
  Array.mapi
    (fun id li ->
      let d = Bitset.copy t.local.Expr_universe.antloc.(id) in
      Bitset.diff_into ~dst:d li;
      d)
    p.laterin
