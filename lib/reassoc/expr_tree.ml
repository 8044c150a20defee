(** Expression trees and their reassociation (Section 3.1, "Sorting
    Expressions").

    Forward propagation builds one tree per root use; this module reshapes
    it:

    - Frailey's rewrite: [x - y] becomes [x + (-y)], "since addition is
      associative and subtraction is not" (reconstruction of subtraction is
      left to the later peephole pass);
    - associative operators are flattened into n-ary nodes;
    - each n-ary node's operands are sorted by rank, so low-ranked
      (loop-invariant) operands group together and constants (rank 0) sort
      to the front where constant propagation can fold them;
    - optionally, a low-ranked multiplier is distributed over a
      higher-ranked sum — *partially*, by rank: in [a + b*((c+d)+e)] with
      ranks b,c,d = 1 and e = 2, the result is [a + b*(c+d) + b*e], so that
      [a + b*(c+d)] can hoist even though [b*e] cannot, while complete
      distribution would only add multiplies. Sums are re-sorted after
      distribution.

    Division is never rewritten as multiplication by a reciprocal, to avoid
    introducing precision problems. *)

open Epre_ir

type t =
  | Leaf of { reg : Instr.reg; rank : int }
  | Cst of Value.t
  | Nary of { op : Op.binop; args : t list }  (** flattened associative node *)
  | Bin of { op : Op.binop; a : t; b : t }  (** non-reassociable operator *)
  | Un of { op : Op.unop; arg : t }

type config = {
  reassoc_float : bool;
      (** treat FP +,* as associative, as FORTRAN optimizers (and the
          paper's numeric suite) do *)
  distribute : bool;  (** the paper's "distribution" optimization level *)
}

let default_config = { reassoc_float = true; distribute = false }

let rec rank = function
  | Leaf { rank = r; _ } -> r
  | Cst _ -> 0
  | Nary { args; _ } -> List.fold_left (fun acc t -> max acc (rank t)) 0 args
  | Bin { a; b; _ } -> max (rank a) (rank b)
  | Un { arg; _ } -> rank arg

let reassociable config op =
  if config.reassoc_float then Op.associative_modulo_rounding op && Op.commutative op
  else Op.associative op && Op.commutative op

(* Stable sort by rank, each operand's rank computed once. List.stable_sort
   keeps the original relative order of equal-rank operands, so output is
   deterministic. *)
let sort_by_rank args =
  List.map (fun t -> (rank t, t)) args
  |> List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* Push [t]'s operands onto [acc], last first, splicing same-operator
   n-ary nodes. *)
let rec flatten_into op acc = function
  | Nary { op = op'; args } when op' = op -> List.fold_left (flatten_into op) acc args
  | t -> t :: acc

(* May [op]'s whole same-operator tree be gathered in one pass? Not for a
   multiplication while distribution is on: an inner product can come back
   as a sum, so it is normalized (and distributed) on its own first. *)
let gathers config op =
  reassociable config op && not (config.distribute && Op.distributes_over op <> None)

(* ------------------------------------------------------------------ *)
(* Distribution                                                        *)

let is_sum_for op t =
  match Op.distributes_over op, t with
  | Some add, Nary { op = op'; _ } when op' = add -> true
  | Some add, Bin { op = op'; _ } when op' = add -> true
  | _ -> false

(* Group the sum's rank-decorated children for partial distribution:
   children ranked at or below the multiplier stay together (their product
   hoists as one); the higher-ranked children are grouped by rank level,
   lowest first, so each level keeps its own multiply. *)
let group_children ~rank_f children =
  let low, high = List.partition (fun (r, _) -> r <= rank_f) children in
  let rec levels = function
    | [] -> []
    | (r, c) :: rest -> begin
      match levels rest with
      | (r', cs) :: more when r' = r -> (r, c :: cs) :: more
      | more -> (r, [ c ]) :: more
    end
  in
  ( List.map snd low,
    List.map snd (levels (List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) high)) )

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)

(* A same-operator tree is flattened top-down, once: its foreign operands
   are normalized on their own and the gathered list is sorted once. For a
   stable sort on rank, sorting a flattened child first and then its parent
   gives the same order as sorting the parent's gathered leaves once, so
   the result equals bottom-up rebuilding at every level. *)
let rec normalize config t =
  match t with
  | Leaf _ | Cst _ -> t
  | Un { op; arg } -> Un { op; arg = normalize config arg }
  | Bin { op; a; b } -> begin
    match Op.sub_as_add_neg op with
    | Some (add, _) when reassociable config add -> gather config add t
    | _ ->
      if gathers config op then gather config op t
      else
        let a = normalize config a and b = normalize config b in
        if reassociable config op then rebuild_nary config op [ a; b ] else Bin { op; a; b }
  end
  | Nary { op; args } ->
    if gathers config op then gather config op t
    else rebuild_nary config op (List.map (normalize config) args)

(* [op]'s operands under [t], left to right: through same-operator nodes
   and, for a sum, through subtractions (x - y -> x + (-y)). *)
and gather config op t =
  let rec go acc t =
    match t with
    | Nary { op = op'; args } when op' = op -> List.fold_left go acc args
    | Bin { op = op'; a; b } when op' = op -> go (go acc a) b
    | Bin { op = sub; a; b } -> begin
      match Op.sub_as_add_neg sub with
      | Some (add, neg) when add = op -> Un { op = neg; arg = normalize config b } :: go acc a
      | _ -> flatten_into op acc (normalize config t)
    end
    | t -> flatten_into op acc (normalize config t)
  in
  finish_nary config op (List.rev (go [] t))

(* Rebuild an n-ary node over operands that are already normalized. *)
and rebuild_nary config op args =
  finish_nary config op (List.rev (List.fold_left (flatten_into op) [] args))

and finish_nary config op args =
  let t =
    match sort_by_rank args with
    | [] | [ _ ] -> invalid_arg "Expr_tree: n-ary node needs two operands"
    | args -> Nary { op; args }
  in
  if config.distribute then distribute config t else t

(* Every part below is already normalized, and normalization is
   idempotent, so the distributed terms and their sum are rebuilt from
   those parts directly rather than normalized again. *)
and distribute config t =
  match t with
  | Nary { op; args } when Op.distributes_over op <> None -> begin
    let add = Option.get (Op.distributes_over op) in
    let sums, factors = List.partition (is_sum_for op) args in
    match sums with
    | [] -> t
    | _ when factors = [] ->
      (* sum * sum: no low-ranked multiplier to distribute. *)
      t
    | first :: rest ->
      (* Distribute over the highest-ranked sum only, keeping the rest as
         factors. *)
      let _, sum =
        List.fold_left
          (fun (rb, best) s ->
            let r = rank s in
            if r > rb then (r, s) else (rb, best))
          (rank first, first) rest
      in
      let factors = factors @ List.filter (fun s -> s != sum) sums in
      let rank_f = List.fold_left (fun acc f -> max acc (rank f)) 0 factors in
      let children =
        match sum with
        | Nary { args; _ } -> List.map (fun c -> (rank c, c)) args
        | Bin { a; b; _ } -> [ (rank a, a); (rank b, b) ]
        | Leaf _ | Cst _ | Un _ -> assert false
      in
      let low, high_groups = group_children ~rank_f children in
      match (if low = [] then [] else [ low ]) @ high_groups with
      | [] | [ _ ] ->
        (* Nothing to separate. Either the sum does not outrank the
           multiplier, so distribution buys no extra code motion, only
           extra multiplies; or it has one group, and distribution would
           rebuild the same product and recurse forever. *)
        t
      | groups ->
        let terms =
          List.map
            (fun g ->
              let part = match g with [ c ] -> c | g -> rebuild_nary config add g in
              rebuild_nary config op (factors @ [ part ]))
            groups
        in
        (* Re-sort the resulting sum (the paper: "it is important to re-sort
           sums after distribution"). *)
        rebuild_nary config add terms
  end
  | t -> t

(* ------------------------------------------------------------------ *)

let rec size = function
  | Leaf _ | Cst _ -> 1
  | Un { arg; _ } -> 1 + size arg
  | Bin { a; b; _ } -> 1 + size a + size b
  | Nary { args; _ } -> List.fold_left (fun acc t -> acc + size t) (List.length args - 1) args

let rec pp ppf = function
  | Leaf { reg; rank } -> Fmt.pf ppf "r%d@@%d" reg rank
  | Cst v -> Value.pp ppf v
  | Un { op; arg } -> Fmt.pf ppf "%s(%a)" (Op.unop_name op) pp arg
  | Bin { op; a; b } -> Fmt.pf ppf "(%a %s %a)" pp a (Op.binop_name op) pp b
  | Nary { op; args } ->
    Fmt.pf ppf "(%s %a)" (Op.binop_name op) Fmt.(list ~sep:(any " ") pp) args
