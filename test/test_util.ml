(** Tests for [Epre_util]: Vec, Bitset, Union_find. *)

open Epre_util

(* ------------------------------------------------------------------ *)
(* Vec *)

let test_vec_basic () =
  let v = Vec.create () in
  Alcotest.(check int) "empty length" 0 (Vec.length v);
  let i0 = Vec.push v "a" in
  let i1 = Vec.push v "b" in
  Alcotest.(check int) "first index" 0 i0;
  Alcotest.(check int) "second index" 1 i1;
  Alcotest.(check string) "get" "b" (Vec.get v 1);
  Vec.set v 0 "c";
  Alcotest.(check string) "set" "c" (Vec.get v 0);
  Alcotest.(check (list string)) "to_list" [ "c"; "b" ] (Vec.to_list v)

let test_vec_bounds () =
  let v = Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index 3 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v 3));
  Alcotest.check_raises "negative index"
    (Invalid_argument "Vec: index -1 out of bounds [0,3)") (fun () ->
      ignore (Vec.get v (-1)))

let test_vec_copy_independent () =
  let v = Vec.of_list [ 1; 2 ] in
  let w = Vec.copy v in
  Vec.set w 0 99;
  Alcotest.(check int) "original unchanged" 1 (Vec.get v 0);
  Alcotest.(check int) "copy changed" 99 (Vec.get w 0)

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "spot check" 567 (Vec.get v 567);
  Alcotest.(check int) "fold" (999 * 1000 / 2) (Vec.fold_left ( + ) 0 v)

let vec_roundtrip =
  Helpers.qcheck_case "Vec" "of_list/to_list roundtrip"
    QCheck2.Gen.(list int)
    (fun xs -> Vec.to_list (Vec.of_list xs) = xs)

(* ------------------------------------------------------------------ *)
(* Bitset *)

let test_bitset_basic () =
  let s = Bitset.create 70 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 69;
  Bitset.add s 31;
  Alcotest.(check bool) "mem 0" true (Bitset.mem s 0);
  Alcotest.(check bool) "mem 69" true (Bitset.mem s 69);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Alcotest.(check int) "count" 3 (Bitset.count s);
  Bitset.remove s 31;
  Alcotest.(check (list int)) "elements" [ 0; 69 ] (Bitset.elements s)

let test_bitset_ops () =
  let a = Bitset.create 16 and b = Bitset.create 16 in
  List.iter (Bitset.add a) [ 1; 2; 3 ];
  List.iter (Bitset.add b) [ 2; 3; 4 ];
  let u = Bitset.copy a in
  Bitset.union_into ~dst:u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~dst:i b;
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Bitset.diff_into ~dst:d b;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d)

let test_bitset_full () =
  let f = Bitset.full 13 in
  Alcotest.(check int) "count" 13 (Bitset.count f);
  (* The unused high bits of the last word must be clear so that [equal]
     against an explicitly built full set holds. *)
  let g = Bitset.create 13 in
  for i = 0 to 12 do
    Bitset.add g i
  done;
  Alcotest.(check bool) "equal" true (Bitset.equal f g)

let test_bitset_width_mismatch () =
  let a = Bitset.create 8 and b = Bitset.create 9 in
  Alcotest.check_raises "mismatch" (Invalid_argument "Bitset: width mismatch") (fun () ->
      Bitset.union_into ~dst:a b)

let test_bitset_zero_width () =
  let s = Bitset.create 0 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Alcotest.(check bool) "full empty too" true (Bitset.is_empty (Bitset.full 0))

module IntSet = Set.Make (Int)

let bitset_model_gen =
  QCheck2.Gen.(list (int_bound 63))

let bitset_of_list xs =
  let s = Bitset.create 64 in
  List.iter (Bitset.add s) xs;
  s

let bitset_union_model =
  Helpers.qcheck_case "Bitset" "union agrees with Set.union"
    QCheck2.Gen.(pair bitset_model_gen bitset_model_gen)
    (fun (xs, ys) ->
      let s = bitset_of_list xs in
      Bitset.union_into ~dst:s (bitset_of_list ys);
      IntSet.equal
        (IntSet.of_list (Bitset.elements s))
        (IntSet.union (IntSet.of_list xs) (IntSet.of_list ys)))

let bitset_diff_model =
  Helpers.qcheck_case "Bitset" "diff agrees with Set.diff"
    QCheck2.Gen.(pair bitset_model_gen bitset_model_gen)
    (fun (xs, ys) ->
      let s = bitset_of_list xs in
      Bitset.diff_into ~dst:s (bitset_of_list ys);
      IntSet.equal
        (IntSet.of_list (Bitset.elements s))
        (IntSet.diff (IntSet.of_list xs) (IntSet.of_list ys)))

let bitset_count_model =
  Helpers.qcheck_case "Bitset" "count = cardinality" bitset_model_gen (fun xs ->
      Bitset.count (bitset_of_list xs) = IntSet.cardinal (IntSet.of_list xs))

(* Random operation sequences on two sets [a] and [b] of one width,
   mirrored on [Set.Make (Int)]; after every step the two must agree on
   every observer. The widths straddle word boundaries. *)
type bitset_op =
  | Add of bool * int  (** [true] names [a], [false] names [b] *)
  | Remove of bool * int
  | Mem of bool * int
  | Union of bool  (** into the named set, from the other *)
  | Inter of bool
  | Diff of bool
  | Assign of bool
  | Copy of bool
  | Clear of bool
  | Full of bool
  | Drain of bool  (** remove every element one at a time *)
  | Mismatch of int  (** a binary operation against a wider set *)

let show_bitset_op = function
  | Add (w, i) -> Printf.sprintf "add %b %d" w i
  | Remove (w, i) -> Printf.sprintf "remove %b %d" w i
  | Mem (w, i) -> Printf.sprintf "mem %b %d" w i
  | Union w -> Printf.sprintf "union %b" w
  | Inter w -> Printf.sprintf "inter %b" w
  | Diff w -> Printf.sprintf "diff %b" w
  | Assign w -> Printf.sprintf "assign %b" w
  | Copy w -> Printf.sprintf "copy %b" w
  | Clear w -> Printf.sprintf "clear %b" w
  | Full w -> Printf.sprintf "full %b" w
  | Drain w -> Printf.sprintf "drain %b" w
  | Mismatch k -> Printf.sprintf "mismatch %d" k

let bitset_widths =
  [ 0; 1; Sys.int_size - 1; Sys.int_size; Sys.int_size + 1; 2 * Sys.int_size; 1000 ]

let bitset_ops_gen =
  let open QCheck2.Gen in
  let* w = oneofl bitset_widths in
  (* Elements mostly in range, some just outside it on either side. *)
  let elt = frequency [ (8, int_range 0 (max 0 (w - 1))); (1, int_range (-2) (-1));
                        (1, int_range w (w + 2)) ] in
  let which = bool in
  let op =
    frequency
      [ (6, map2 (fun x i -> Add (x, i)) which elt);
        (3, map2 (fun x i -> Remove (x, i)) which elt);
        (2, map2 (fun x i -> Mem (x, i)) which elt);
        (1, map (fun x -> Union x) which); (1, map (fun x -> Inter x) which);
        (1, map (fun x -> Diff x) which); (1, map (fun x -> Assign x) which);
        (1, map (fun x -> Copy x) which); (1, map (fun x -> Clear x) which);
        (1, map (fun x -> Full x) which); (1, map (fun x -> Drain x) which);
        (1, map (fun k -> Mismatch k) (int_bound 4)) ]
  in
  pair (pure w) (list_size (int_range 1 40) op)

let bitset_agrees_with_model (w, ops) =
  let a = ref (Bitset.create w) and b = ref (Bitset.create w) in
  let ma = ref IntSet.empty and mb = ref IntSet.empty in
  let pick x = if x then (a, ma) else (b, mb) in
  let other x = pick (not x) in
  let in_range i = 0 <= i && i < w in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let of_model m =
    let s = Bitset.create w in
    IntSet.iter (Bitset.add s) m;
    s
  in
  let step = function
    | Add (x, i) ->
      let s, m = pick x in
      if in_range i then (Bitset.add !s i; m := IntSet.add i !m; true)
      else raises (fun () -> Bitset.add !s i)
    | Remove (x, i) ->
      let s, m = pick x in
      if in_range i then (Bitset.remove !s i; m := IntSet.remove i !m; true)
      else raises (fun () -> Bitset.remove !s i)
    | Mem (x, i) ->
      let s, m = pick x in
      if in_range i then Bitset.mem !s i = IntSet.mem i !m
      else raises (fun () -> Bitset.mem !s i)
    | Union x ->
      let (d, md), (s, ms) = (pick x, other x) in
      Bitset.union_into ~dst:!d !s;
      md := IntSet.union !md !ms;
      true
    | Inter x ->
      let (d, md), (s, ms) = (pick x, other x) in
      Bitset.inter_into ~dst:!d !s;
      md := IntSet.inter !md !ms;
      true
    | Diff x ->
      let (d, md), (s, ms) = (pick x, other x) in
      Bitset.diff_into ~dst:!d !s;
      md := IntSet.diff !md !ms;
      true
    | Assign x ->
      let (d, md), (s, ms) = (pick x, other x) in
      Bitset.assign ~dst:!d !s;
      md := !ms;
      true
    | Copy x ->
      let (d, md), (s, ms) = (pick x, other x) in
      d := Bitset.copy !s;
      md := !ms;
      (* A copy is independent of its source. *)
      if in_range 0 then begin
        let probe = Bitset.copy !s in
        Bitset.add probe 0;
        Bitset.mem !s 0 = IntSet.mem 0 !ms
      end
      else true
    | Clear x ->
      let s, m = pick x in
      Bitset.clear !s;
      m := IntSet.empty;
      true
    | Full x ->
      let s, m = pick x in
      s := Bitset.full w;
      m := IntSet.of_list (List.init w Fun.id);
      true
    | Drain x ->
      let s, m = pick x in
      IntSet.iter (Bitset.remove !s) !m;
      m := IntSet.empty;
      Bitset.equal !s (Bitset.create w)
    | Mismatch k ->
      let wide = Bitset.create (w + 1) in
      raises
        (match k with
        | 0 -> fun () -> Bitset.union_into ~dst:!a wide
        | 1 -> fun () -> Bitset.inter_into ~dst:wide !a
        | 2 -> fun () -> Bitset.diff_into ~dst:!a wide
        | 3 -> fun () -> Bitset.assign ~dst:wide !a
        | _ -> fun () -> ignore (Bitset.disjoint !a wide))
  in
  let agrees (s, m) =
    let visited = ref [] in
    Bitset.iter (fun i -> visited := i :: !visited) !s;
    let expected = IntSet.elements !m in
    Bitset.width !s = w
    && List.rev !visited = expected
    && Bitset.elements !s = expected
    && Bitset.fold (fun i acc -> i :: acc) !s [] = List.rev expected
    && Bitset.count !s = IntSet.cardinal !m
    && Bitset.is_empty !s = IntSet.is_empty !m
    && Bitset.equal !s (of_model !m)
    && Bitset.equal !s (Bitset.full w) = (IntSet.cardinal !m = w)
  in
  List.for_all
    (fun op ->
      step op && agrees (a, ma) && agrees (b, mb)
      && Bitset.equal !a !b = IntSet.equal !ma !mb
      && Bitset.disjoint !a !b = IntSet.disjoint !ma !mb)
    ops

let bitset_operation_model =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:300 ~name:"Bitset: operation sequences agree with Set.Make(Int)"
       ~print:(fun (w, ops) ->
         Printf.sprintf "width %d: %s" w (String.concat "; " (List.map show_bitset_op ops)))
       bitset_ops_gen bitset_agrees_with_model)

(* ------------------------------------------------------------------ *)
(* Union_find *)

let test_uf_basic () =
  let uf = Union_find.create 10 in
  Alcotest.(check bool) "initially apart" false (Union_find.same uf 1 2);
  ignore (Union_find.union uf 1 2);
  Alcotest.(check bool) "joined" true (Union_find.same uf 1 2);
  ignore (Union_find.union uf 2 3);
  Alcotest.(check bool) "transitive" true (Union_find.same uf 1 3);
  Alcotest.(check bool) "others untouched" false (Union_find.same uf 1 4)

let test_uf_keep_first () =
  let uf = Union_find.create 10 in
  Union_find.union_keep_first uf 7 3;
  Alcotest.(check int) "representative is first" 7 (Union_find.find uf 3);
  Union_find.union_keep_first uf 7 5;
  Alcotest.(check int) "still first" 7 (Union_find.find uf 5)

let uf_equivalence =
  Helpers.qcheck_case "Union_find" "union builds an equivalence"
    QCheck2.Gen.(list (pair (int_bound 19) (int_bound 19)))
    (fun pairs ->
      let uf = Union_find.create 20 in
      List.iter (fun (a, b) -> ignore (Union_find.union uf a b)) pairs;
      (* reflexive, symmetric, and consistent with find *)
      List.for_all
        (fun (a, b) ->
          Union_find.same uf a b
          && Union_find.find uf a = Union_find.find uf b)
        pairs)

let suite =
  [
    Alcotest.test_case "vec: push/get/set/to_list" `Quick test_vec_basic;
    Alcotest.test_case "vec: bounds checking" `Quick test_vec_bounds;
    Alcotest.test_case "vec: copy independence" `Quick test_vec_copy_independent;
    Alcotest.test_case "vec: growth to 1000" `Quick test_vec_growth;
    vec_roundtrip;
    Alcotest.test_case "bitset: add/remove/mem/count" `Quick test_bitset_basic;
    Alcotest.test_case "bitset: union/inter/diff" `Quick test_bitset_ops;
    Alcotest.test_case "bitset: full masks high bits" `Quick test_bitset_full;
    Alcotest.test_case "bitset: width mismatch rejected" `Quick test_bitset_width_mismatch;
    Alcotest.test_case "bitset: zero width" `Quick test_bitset_zero_width;
    bitset_union_model;
    bitset_diff_model;
    bitset_count_model;
    bitset_operation_model;
    Alcotest.test_case "union_find: union/same" `Quick test_uf_basic;
    Alcotest.test_case "union_find: keep-first representative" `Quick test_uf_keep_first;
    uf_equivalence;
  ]
