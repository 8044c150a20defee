(** Property tests for [Epre_reassoc.Expr_tree]: normalization (flattening,
    rank sorting, Frailey's rewrite, distribution) must preserve the value
    of integer trees under every environment, must be idempotent, and must
    build exactly the tree the straightforward bottom-up normalizer
    ([Reference] below) builds. *)

open Epre_ir
open Epre_reassoc
open QCheck2

let cfg_plain = { Expr_tree.reassoc_float = true; distribute = false }

let cfg_dist = { Expr_tree.reassoc_float = true; distribute = true }

(* Random integer expression trees over 6 leaf registers with assorted
   ranks. Division is excluded (partiality); Sub/Neg, the associative ops
   and Min/Max are all in. *)
let gen_tree =
  let leaf =
    Gen.oneof
      [ Gen.map (fun (r, k) -> Expr_tree.Leaf { reg = r; rank = k })
          Gen.(pair (int_bound 5) (int_bound 3));
        Gen.map (fun i -> Expr_tree.Cst (Value.I i)) Gen.(int_range (-9) 9) ]
  in
  let rec go depth =
    if depth <= 0 then leaf
    else
      Gen.oneof
        [ leaf;
          Gen.map
            (fun (op, a, b) -> Expr_tree.Nary { op; args = [ a; b ] })
            Gen.(triple (oneofl [ Op.Add; Op.Mul; Op.Min; Op.Max; Op.And; Op.Or; Op.Xor ])
                   (go (depth - 1)) (go (depth - 1)));
          Gen.map
            (fun (a, b) -> Expr_tree.Bin { op = Op.Sub; a; b })
            Gen.(pair (go (depth - 1)) (go (depth - 1)));
          Gen.map (fun a -> Expr_tree.Un { op = Op.Neg; arg = a }) (go (depth - 1));
          Gen.map
            (fun (op, a, b, c) -> Expr_tree.Nary { op; args = [ a; b; c ] })
            Gen.(quad (oneofl [ Op.Add; Op.Mul ]) (go (depth - 1)) (go (depth - 1))
                   (go (depth - 1))) ]
  in
  go 3

let gen_env = Gen.array_size (Gen.return 6) Gen.(int_range (-50) 50)

(* Reference evaluation of a tree: n-ary nodes left to right. *)
let rec eval env (t : Expr_tree.t) =
  match t with
  | Expr_tree.Leaf { reg; _ } -> Value.I env.(reg)
  | Expr_tree.Cst v -> v
  | Expr_tree.Un { op; arg } -> Op.eval_unop op (eval env arg)
  | Expr_tree.Bin { op; a; b } -> Op.eval_binop op (eval env a) (eval env b)
  | Expr_tree.Nary { op; args } -> begin
    match List.map (eval env) args with
    | first :: rest -> List.fold_left (Op.eval_binop op) first rest
    | [] -> invalid_arg "empty n-ary node"
  end

let normalize_preserves cfg label =
  Helpers.qcheck_case ~count:500 "Expr_tree" label
    (Gen.pair gen_tree gen_env)
    (fun (t, env) ->
      Value.equal (eval env t) (eval env (Expr_tree.normalize cfg t)))

let normalize_idempotent =
  Helpers.qcheck_case ~count:300 "Expr_tree" "normalize is idempotent"
    gen_tree
    (fun t ->
      let once = Expr_tree.normalize cfg_dist t in
      Expr_tree.normalize cfg_dist once = once)

let normalize_sorts =
  Helpers.qcheck_case ~count:300 "Expr_tree" "n-ary operands sorted by rank"
    gen_tree
    (fun t ->
      let rec sorted (t : Expr_tree.t) =
        match t with
        | Expr_tree.Leaf _ | Expr_tree.Cst _ -> true
        | Expr_tree.Un { arg; _ } -> sorted arg
        | Expr_tree.Bin { a; b; _ } -> sorted a && sorted b
        | Expr_tree.Nary { args; _ } ->
          let ranks = List.map Expr_tree.rank args in
          List.for_all sorted args
          && List.sort compare ranks = ranks
      in
      sorted (Expr_tree.normalize cfg_plain t))

let normalize_flattens =
  Helpers.qcheck_case ~count:300 "Expr_tree" "no nested same-operator n-ary nodes"
    gen_tree
    (fun t ->
      let rec flat (t : Expr_tree.t) =
        match t with
        | Expr_tree.Leaf _ | Expr_tree.Cst _ -> true
        | Expr_tree.Un { arg; _ } -> flat arg
        | Expr_tree.Bin { a; b; _ } -> flat a && flat b
        | Expr_tree.Nary { op; args } ->
          List.for_all flat args
          && List.for_all
               (function
                 | Expr_tree.Nary { op = op'; _ } -> op' <> op
                 | _ -> true)
               args
      in
      flat (Expr_tree.normalize cfg_plain t))

(* The straightforward bottom-up normalizer: every node is rebuilt from its
   normalized children, and distribution re-normalizes what it builds.
   [Expr_tree.normalize] gathers each same-operator tree once instead; this
   is the oracle it must match node for node. *)
module Reference = struct
  open Expr_tree

  let sort args = List.stable_sort (fun a b -> compare (rank a) (rank b)) args

  let rec flatten op acc = function
    | Nary { op = op'; args } when op' = op -> List.fold_left (flatten op) acc args
    | t -> t :: acc

  let is_sum_for op t =
    match (Op.distributes_over op, t) with
    | Some add, (Nary { op = op'; _ } | Bin { op = op'; _ }) -> op' = add
    | _ -> false

  let mk op = function [ c ] -> c | cs -> Nary { op; args = cs }

  let rec normalize config t =
    match t with
    | Leaf _ | Cst _ -> t
    | Un { op; arg } -> Un { op; arg = normalize config arg }
    | Bin { op; a; b } -> begin
      let a = normalize config a and b = normalize config b in
      match Op.sub_as_add_neg op with
      | Some (add, neg) when reassociable config add ->
        rebuild config add [ a; Un { op = neg; arg = b } ]
      | _ -> if reassociable config op then rebuild config op [ a; b ] else Bin { op; a; b }
    end
    | Nary { op; args } -> rebuild config op (List.map (normalize config) args)

  and rebuild config op args =
    let t = Nary { op; args = sort (List.rev (List.fold_left (flatten op) [] args)) } in
    if config.distribute then distribute config t else t

  and distribute config t =
    match t with
    | Nary { op; args } when Op.distributes_over op <> None -> begin
      let add = Option.get (Op.distributes_over op) in
      match List.partition (is_sum_for op) args with
      | [], _ | _, [] -> t
      | (s0 :: _ as sums), factors ->
        let sum = List.fold_left (fun b s -> if rank s > rank b then s else b) s0 sums in
        let factors = factors @ List.filter (fun s -> s != sum) sums in
        let rank_f = List.fold_left (fun acc f -> max acc (rank f)) 0 factors in
        let children =
          match sum with Nary { args; _ } -> args | Bin { a; b; _ } -> [ a; b ] | _ -> []
        in
        let low, high = List.partition (fun c -> rank c <= rank_f) children in
        let levels = List.sort_uniq compare (List.map rank high) in
        let groups =
          (if low = [] then [] else [ low ])
          @ List.map (fun k -> List.filter (fun c -> rank c = k) high) levels
        in
        if List.length groups <= 1 then t
        else
          normalize config
            (mk add
               (List.map (fun g -> normalize config (mk op (factors @ [ mk add g ]))) groups))
    end
    | t -> t
end

(* Deep trees for the reference check: same-operator spines 8 to 12
   operands long, built from n-ary and binary nodes in both nestings, with
   subtractions inside sums, products over sums, and FP nodes. Checked
   structurally only (FP values would differ by rounding). *)
let gen_deep =
  let open Gen in
  let leaf =
    oneof
      [ map2 (fun r k -> Expr_tree.Leaf { reg = r; rank = k }) (int_bound 7) (int_bound 4);
        map (fun i -> Expr_tree.Cst (Value.I i)) (int_range (-3) 3) ]
  in
  (* Join [acc] and [x] under [op], or under [sub] when there is one. *)
  let join op sub kind acc x =
    match (kind, sub) with
    | 0, _ -> Expr_tree.Nary { op; args = [ acc; x ] }
    | 1, _ -> Expr_tree.Nary { op; args = [ x; acc ] }
    | 2, _ -> Expr_tree.Bin { op; a = acc; b = x }
    | 3, _ -> Expr_tree.Bin { op; a = x; b = acc }
    | 4, Some sub -> Expr_tree.Bin { op = sub; a = acc; b = x }
    | _, Some sub -> Expr_tree.Bin { op = sub; a = x; b = acc }
    | k, None -> Expr_tree.Nary { op; args = [ x; acc; Expr_tree.Leaf { reg = k; rank = k - 3 } ] }
  in
  let rec go depth =
    if depth <= 0 then leaf
    else
      oneofl [ (Op.Add, Op.Sub, Op.Mul); (Op.FAdd, Op.FSub, Op.FMul) ] >>= fun (add, sub, mul) ->
      oneof
        [ spine add (Some sub) depth;
          spine mul None depth;
          map2 (fun f s -> Expr_tree.Nary { op = mul; args = [ f; s ] })
            (go (depth - 1)) (spine add (Some sub) depth);
          map2 (fun s f -> Expr_tree.Bin { op = mul; a = s; b = f })
            (spine add (Some sub) depth) leaf;
          map (fun a -> Expr_tree.Un { op = Op.Neg; arg = a }) (spine add (Some sub) depth) ]
  and spine op sub depth =
    let elt = frequency [ (3, leaf); (1, go (depth - 1)) ] in
    int_range 8 12 >>= fun n ->
    map2
      (fun first rest -> List.fold_left (fun acc (k, x) -> join op sub k acc x) first rest)
      elt (list_repeat (n - 1) (pair (int_bound 5) elt))
  in
  go 2

let matches_reference cfg label =
  Helpers.qcheck_case ~count:300 "Expr_tree" ("normalize = bottom-up reference, " ^ label)
    (Gen.oneof [ gen_deep; gen_tree ])
    (fun t -> Expr_tree.normalize cfg t = Reference.normalize cfg t)

let suite =
  [
    normalize_preserves cfg_plain "normalize preserves int semantics";
    normalize_preserves cfg_dist "distribution preserves int semantics";
    normalize_idempotent;
    normalize_sorts;
    normalize_flattens;
    matches_reference cfg_plain "distribute off";
    matches_reference cfg_dist "distribute on";
    matches_reference { cfg_plain with reassoc_float = false } "exact FP, distribute off";
    matches_reference { cfg_dist with reassoc_float = false } "exact FP, distribute on";
  ]
