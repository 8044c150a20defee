(** The expression universe shared by PRE and available-expression CSE.

    Under the Section 2.2 naming discipline each expression has exactly one
    name, so an expression is identified by its canonical destination
    register. This module collects the universe for a routine and the
    block-local properties every bit-vector pass needs:

    - [ANTLOC] (locally anticipable): evaluated in the block before any
      operand is (re)defined;
    - [COMP] (locally available): evaluated, and no operand is redefined
      afterwards;
    - [KILL] (transparency's complement): some operand is redefined, or the
      expression is a load and the block contains a store or a call.

    Registers violating the discipline — several keys per name, or a name
    also targeted by a copy/call/phi — are conservatively excluded; running
    [Naming.run] first makes the universe total. *)

open Epre_util
open Epre_ir

type key =
  | KConst of Value.t
  | KUnop of Op.unop * Instr.reg
  | KBinop of Op.binop * Instr.reg * Instr.reg
  | KLoad of Instr.reg

let key_of = function
  | Instr.Const { value; _ } -> Some (KConst value)
  | Instr.Unop { op; src; _ } -> Some (KUnop (op, src))
  | Instr.Binop { op; a; b; _ } ->
    (* Canonical commutative order, consistent with [Naming.key_of]. *)
    let a, b = if Op.commutative op && b < a then (b, a) else (a, b) in
    Some (KBinop (op, a, b))
  | Instr.Load { addr; _ } -> Some (KLoad addr)
  | Instr.Copy _ | Instr.Store _ | Instr.Alloca _ | Instr.Call _ | Instr.Phi _ -> None

let key_operands = function
  | KConst _ -> []
  | KUnop (_, a) | KLoad a -> [ a ]
  | KBinop (_, a, b) -> if a = b then [ a ] else [ a; b ]

let is_load = function KLoad _ -> true | KConst _ | KUnop _ | KBinop _ -> false

type expr = {
  index : int;  (** dense index into the bit vectors *)
  name : Instr.reg;  (** the canonical destination *)
  key : key;
}

type t = {
  exprs : expr array;
  of_name : expr option array;  (** indexed by register *)
  (* killed_by.(reg) = indices of expressions with reg as an operand *)
  killed_by : int list array;
  loads : int list;  (** indices of load expressions *)
}

let size t = Array.length t.exprs

let exprs t = t.exprs

let expr_of_name t reg = t.of_name.(reg)

(* What [build] has seen defined into a register so far. *)
type slot = Unseen | Evaluates of key | Excluded

let build (r : Routine.t) =
  let width = max 1 r.Routine.next_reg in
  let slots = Array.make width Unseen in
  (* A name stays in the universe while every definition evaluates an
     equal key; of two equal keys the later one is kept. *)
  let note reg k =
    slots.(reg) <-
      (match slots.(reg), k with
      | Unseen, Some k -> Evaluates k
      | Evaluates k', Some k when k = k' -> Evaluates k
      | _ -> Excluded)
  in
  List.iter (fun p -> slots.(p) <- Excluded) r.Routine.params;
  Cfg.iter_blocks
    (fun b ->
      List.iter (fun i -> Option.iter (fun d -> note d (key_of i)) (Instr.def i)) b.Block.instrs)
    r.Routine.cfg;
  (* Ascending register order gives the dense indices directly. *)
  let of_name = Array.make width None in
  let killed_by = Array.make width [] in
  let exprs = ref [] and loads = ref [] and n = ref 0 in
  Array.iteri
    (fun name slot ->
      match slot with
      | Evaluates key ->
        let e = { index = !n; name; key } in
        incr n;
        of_name.(name) <- Some e;
        List.iter (fun operand -> killed_by.(operand) <- e.index :: killed_by.(operand)) (key_operands key);
        if is_load key then loads := e.index :: !loads;
        exprs := e :: !exprs
      | Unseen | Excluded -> ())
    slots;
  { exprs = Array.of_list (List.rev !exprs); of_name; killed_by; loads = !loads }

(* ------------------------------------------------------------------ *)
(* Block-local properties                                              *)

type local = {
  antloc : Bitset.t array;
  comp : Bitset.t array;
  kill : Bitset.t array;
}

(* Indices killed by an instruction's definition or side effect. *)
let iter_kills t i f =
  Option.iter (fun d -> List.iter f t.killed_by.(d)) (Instr.def i);
  match i with
  | Instr.Store _ | Instr.Call _ -> List.iter f t.loads
  | _ -> ()

let update_local t local (b : Block.t) =
  let id = b.Block.id in
  let antloc = local.antloc.(id) and comp = local.comp.(id) and kill = local.kill.(id) in
  Bitset.clear antloc;
  Bitset.clear comp;
  Bitset.clear kill;
  (* KILL so far doubles as "killed before this point" for ANTLOC. *)
  List.iter
    (fun i ->
      (* Evaluation first: an instruction that evaluates e and defines
         one of e's operands (impossible under the discipline, but be
         safe) counts the evaluation before the kill. *)
      (match key_of i, Instr.def i with
      | Some _, Some dst -> begin
        match t.of_name.(dst) with
        | Some e ->
          if not (Bitset.mem kill e.index) then Bitset.add antloc e.index;
          Bitset.add comp e.index
        | None -> ()
      end
      | _ -> ());
      iter_kills t i (fun idx ->
          Bitset.add kill idx;
          Bitset.remove comp idx))
    b.Block.instrs

let compute_local t (r : Routine.t) =
  let nblocks = Cfg.num_blocks r.Routine.cfg in
  let width = Array.length t.exprs in
  let sets () = Array.init nblocks (fun _ -> Bitset.create width) in
  let local = { antloc = sets (); comp = sets (); kill = sets () } in
  Cfg.iter_blocks (update_local t local) r.Routine.cfg;
  local
