(** Tests for the baseline optimizer passes of [Epre_opt]: peephole, SCCP,
    DCE, coalescing, Clean, naming normalization, and the two CSE
    comparators. *)

open Epre_ir

let instrs_of r =
  Cfg.fold_blocks (fun acc b -> acc @ b.Block.instrs) [] r.Routine.cfg

let count_matching p r = List.length (List.filter p (instrs_of r))

let is_binop op = function Instr.Binop { op = o; _ } -> o = op | _ -> false

(* ------------------------------------------------------------------ *)
(* Peephole *)

let peephole_routine build =
  let b = Builder.start ~name:"f" ~nparams:2 in
  let ret = build b in
  Builder.ret b (Some ret);
  Builder.finish b

let test_peephole_constant_folding () =
  let r =
    peephole_routine (fun b ->
        let x = Builder.int b 6 in
        let y = Builder.int b 7 in
        Builder.binop b Op.Mul x y)
  in
  ignore (Epre_opt.Peephole.run r);
  Alcotest.(check int) "mul folded away" 0 (count_matching (is_binop Op.Mul) r);
  let prog = Program.create [ r ] in
  Alcotest.(check int) "still 42" 42
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 0; Value.I 0 ] prog)

let test_peephole_identities () =
  let r =
    peephole_routine (fun b ->
        let zero = Builder.int b 0 in
        let one = Builder.int b 1 in
        let t1 = Builder.binop b Op.Add 0 zero in (* x + 0 -> x *)
        let t2 = Builder.binop b Op.Mul t1 one in (* x * 1 -> x *)
        let t3 = Builder.binop b Op.Mul t2 zero in (* x * 0 -> 0 *)
        let t4 = Builder.binop b Op.Sub 1 1 in (* y - y -> 0 *)
        Builder.binop b Op.Add t3 t4)
  in
  let rewrites = Epre_opt.Peephole.run r in
  Alcotest.(check bool) "several rewrites" true (rewrites >= 4);
  let prog = Program.create [ r ] in
  Alcotest.(check int) "result is 0" 0
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 11; Value.I 5 ] prog)

let test_peephole_sub_reconstruction () =
  (* x + (-y) is rebuilt into x - y (undoing Frailey's rewrite). *)
  let r =
    peephole_routine (fun b ->
        let n = Builder.unop b Op.Neg 1 in
        Builder.binop b Op.Add 0 n)
  in
  ignore (Epre_opt.Peephole.run r);
  Alcotest.(check int) "a sub appears" 1 (count_matching (is_binop Op.Sub) r);
  let prog = Program.create [ r ] in
  Alcotest.(check int) "semantics" 4
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 9; Value.I 5 ] prog)

let test_peephole_mul_to_shift () =
  let r =
    peephole_routine (fun b ->
        let c = Builder.int b 8 in
        Builder.binop b Op.Mul 0 c)
  in
  ignore (Epre_opt.Peephole.run ~config:{ Epre_opt.Peephole.mul_to_shift = true } r);
  Alcotest.(check int) "shift appears" 1 (count_matching (is_binop Op.Shl) r);
  Alcotest.(check int) "mul gone" 0 (count_matching (is_binop Op.Mul) r);
  let prog = Program.create [ r ] in
  Alcotest.(check int) "5*8" 40
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 5; Value.I 0 ] prog)

let test_peephole_mul_to_shift_off_by_default () =
  let r =
    peephole_routine (fun b ->
        let c = Builder.int b 8 in
        Builder.binop b Op.Mul 0 c)
  in
  ignore (Epre_opt.Peephole.run r);
  Alcotest.(check int) "mul stays" 1 (count_matching (is_binop Op.Mul) r)

let test_peephole_constant_branch () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let b1 = Builder.new_block b in
  let b2 = Builder.new_block b in
  let c = Builder.int b 1 in
  Builder.cbr b ~cond:c ~ifso:b1 ~ifnot:b2;
  Builder.switch b b1;
  Builder.ret b (Some (Builder.int b 10));
  Builder.switch b b2;
  Builder.ret b (Some (Builder.int b 20));
  let r = Builder.finish b in
  ignore (Epre_opt.Peephole.run r);
  (match (Cfg.block r.Routine.cfg 0).Block.term with
  | Instr.Jump l -> Alcotest.(check int) "jumps to then" b1 l
  | _ -> Alcotest.fail "branch not folded")

let test_peephole_no_fold_division_by_zero () =
  (* 1/0 must NOT be folded away: the runtime error is the semantics. *)
  let r =
    peephole_routine (fun b ->
        let x = Builder.int b 1 in
        let z = Builder.int b 0 in
        Builder.binop b Op.Div x z)
  in
  ignore (Epre_opt.Peephole.run r);
  Alcotest.(check int) "div kept" 1 (count_matching (is_binop Op.Div) r)

(* ------------------------------------------------------------------ *)
(* SCCP *)

let test_sccp_folds_through_copies () =
  let source =
    {|
fn f(): int {
  var a: int = 3;
  var b: int = a + 4;
  var c: int = b * 2;
  return c;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Constprop.run r);
  ignore (Epre_opt.Dce.run r);
  ignore (Epre_opt.Coalesce.run r);
  Alcotest.(check int) "all arithmetic folded" 0
    (count_matching (function Instr.Binop _ -> true | _ -> false) r);
  Alcotest.(check int) "value" 14 (Helpers.run_int ~entry:"f" prog)

let test_sccp_conditional_constants () =
  (* Wegman-Zadeck's signature case: the condition is constant, so only one
     arm executes and x is constant after the join. *)
  let source =
    {|
fn f(): int {
  var p: int = 1;
  var x: int;
  if (p > 0) {
    x = 5;
  } else {
    x = 77;
  }
  return x + 1;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Constprop.run r);
  ignore (Epre_opt.Dce.run r);
  ignore (Epre_opt.Clean.run r);
  Alcotest.(check int) "add folded through the branch" 0
    (count_matching (is_binop Op.Add) r);
  Alcotest.(check int) "value" 6 (Helpers.run_int ~entry:"f" prog)

let test_sccp_removes_unreachable_code () =
  let source =
    {|
fn f(): int {
  var p: int = 0;
  var s: int = 1;
  if (p > 0) {
    s = 100;
  }
  return s;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Constprop.run r);
  ignore (Epre_opt.Dce.run r);
  ignore (Epre_opt.Clean.run r);
  Alcotest.(check int) "value" 1 (Helpers.run_int ~entry:"f" prog);
  (* the then-branch block is gone *)
  let blocks = Cfg.fold_blocks (fun acc _ -> acc + 1) 0 r.Routine.cfg in
  Alcotest.(check int) "single block remains" 1 blocks

let test_sccp_loop_invariant_phi () =
  (* x is 7 around the loop: the phi meets 7 with 7 and stays constant. *)
  let source =
    {|
fn f(n: int): int {
  var x: int = 7;
  var s: int;
  var i: int;
  for i = 1 to n {
    s = s + x;
    x = 7;
  }
  return s + x;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Constprop.run r);
  Alcotest.(check int) "value" 42
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 5 ] prog)

(* ------------------------------------------------------------------ *)
(* DCE *)

let test_dce_removes_dead_arithmetic () =
  let b = Builder.start ~name:"f" ~nparams:1 in
  let dead1 = Builder.binop b Op.Add 0 0 in
  let _dead2 = Builder.binop b Op.Mul dead1 dead1 in
  let live = Builder.binop b Op.Add 0 0 in
  Builder.ret b (Some live);
  let r = Builder.finish b in
  let removed = Epre_opt.Dce.run r in
  Alcotest.(check int) "two removed" 2 removed;
  Alcotest.(check int) "one op left" 1
    (count_matching (function Instr.Binop _ -> true | _ -> false) r)

let test_dce_keeps_stores_and_calls () =
  let source =
    {|
fn f(): int {
  var a: int[4];
  a[1] = 9;             // store must stay
  emit(3);              // call must stay
  var dead: int = 5 * 5;
  return a[1];
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Dce.run r);
  Alcotest.(check int) "store kept" 1
    (count_matching (function Instr.Store _ -> true | _ -> false) r);
  Alcotest.(check int) "call kept" 1
    (count_matching (function Instr.Call _ -> true | _ -> false) r);
  Alcotest.(check int) "value preserved" 9 (Helpers.run_int ~entry:"f" prog)

let test_dce_removes_dead_load_chain () =
  let source =
    {|
fn f(): int {
  var a: int[4];
  a[2] = 1;
  var dead: int = a[2] + a[3];   // load feeding nothing
  return 5;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Dce.run r);
  ignore (Epre_opt.Dce.run r);
  Alcotest.(check int) "loads removed" 0
    (count_matching (function Instr.Load _ -> true | _ -> false) r);
  Alcotest.(check int) "value" 5 (Helpers.run_int ~entry:"f" prog)

(* ------------------------------------------------------------------ *)
(* Coalesce *)

let test_coalesce_removes_copy_chain () =
  let b = Builder.start ~name:"f" ~nparams:1 in
  let t1 = Builder.copy b 0 in
  let t2 = Builder.copy b t1 in
  let t3 = Builder.copy b t2 in
  Builder.ret b (Some t3);
  let r = Builder.finish b in
  let removed = Epre_opt.Coalesce.run r in
  Alcotest.(check int) "all three removed" 3 removed;
  let prog = Program.create [ r ] in
  Alcotest.(check int) "identity" 13 (Helpers.run_int ~entry:"f" ~args:[ Value.I 13 ] prog)

let test_coalesce_respects_interference () =
  (* t <- x; x <- x + 1; use t and x: t interferes with the new x. *)
  let b = Builder.start ~name:"f" ~nparams:1 in
  let t = Builder.copy b 0 in
  let one = Builder.int b 1 in
  let x2 = Builder.binop b Op.Add 0 one in
  Builder.copy_to b ~dst:0 ~src:x2;
  let sum = Builder.binop b Op.Mul t 0 in
  Builder.ret b (Some sum);
  let r = Builder.finish b in
  ignore (Epre_opt.Coalesce.run r);
  let prog = Program.create [ r ] in
  (* old * new = 4 * 5 *)
  Alcotest.(check int) "old value preserved" 20
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 4 ] prog)

(* Coalescing runs over a dense numbering of the registers that occur,
   so how far [next_reg] runs past them must not change its result. Each
   workload is staged at [distribution] up to coalesce, then coalesced
   twice: once as is and once with 10000 unused names added. *)
let test_coalesce_ignores_name_supply () =
  let rec staging = function
    | [] -> Alcotest.fail "distribution has no coalesce stage"
    | (p : Epre_harness.Harness.named_pass) :: rest ->
      if p.pass_name = "coalesce" then [] else p :: staging rest
  in
  let stages = staging (Epre.Pipeline.level_passes ~level:Epre.Pipeline.Distribution) in
  let total = ref 0 in
  List.iter
    (fun (w : Epre_workloads.Workloads.t) ->
      List.iter
        (fun r ->
          List.iter (fun (p : Epre_harness.Harness.named_pass) -> p.run r) stages;
          let padded = Routine.copy r in
          padded.Routine.next_reg <- padded.Routine.next_reg + 10_000;
          let n = r.Routine.next_reg in
          let what = w.name ^ "/" ^ r.Routine.name in
          let removed = Epre_opt.Coalesce.run r in
          let removed_padded = Epre_opt.Coalesce.run padded in
          total := !total + removed;
          Alcotest.(check int) (what ^ ": copies removed") removed removed_padded;
          Alcotest.(check int) (what ^ ": next_reg kept") n r.Routine.next_reg;
          Alcotest.(check int) (what ^ ": padded next_reg kept") (n + 10_000)
            padded.Routine.next_reg;
          (* Printed with [r]'s [next_reg], so only the code can differ. *)
          Alcotest.(check string) (what ^ ": same code") (Ir_text.routine_to_string r)
            (Ir_text.routine_to_string { padded with Routine.next_reg = n }))
        (Program.routines (Epre_workloads.Workloads.compile w)))
    Epre_workloads.Workloads.all;
  Alcotest.(check bool) "some copies coalesced" true (!total > 0)

(* ------------------------------------------------------------------ *)
(* Clean *)

let test_clean_removes_empty_blocks () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let hop1 = Builder.new_block b in
  let hop2 = Builder.new_block b in
  let final = Builder.new_block b in
  Builder.jump b hop1;
  Builder.switch b hop1;
  Builder.jump b hop2;
  Builder.switch b hop2;
  Builder.jump b final;
  Builder.switch b final;
  Builder.ret b (Some (Builder.int b 3));
  let r = Builder.finish b in
  ignore (Epre_opt.Clean.run r);
  let blocks = Cfg.fold_blocks (fun acc _ -> acc + 1) 0 r.Routine.cfg in
  Alcotest.(check int) "merged to a single block" 1 blocks;
  let prog = Program.create [ r ] in
  Alcotest.(check int) "still 3" 3 (Helpers.run_int ~entry:"f" prog)

let test_clean_folds_same_target_branch () =
  let b = Builder.start ~name:"f" ~nparams:1 in
  let next = Builder.new_block b in
  Builder.cbr b ~cond:0 ~ifso:next ~ifnot:next;
  Builder.switch b next;
  Builder.ret b (Some (Builder.int b 1));
  let r = Builder.finish b in
  ignore (Epre_opt.Clean.run r);
  Cfg.iter_blocks
    (fun blk ->
      match blk.Block.term with
      | Instr.Cbr _ -> Alcotest.fail "cbr should have been folded"
      | _ -> ())
    r.Routine.cfg

let test_clean_removes_unreachable () =
  let b = Builder.start ~name:"f" ~nparams:0 in
  let orphan = Builder.new_block b in
  Builder.ret b None;
  Builder.switch b orphan;
  Builder.ret b None;
  let r = Builder.finish b in
  ignore (Epre_opt.Clean.run r);
  Alcotest.(check bool) "orphan gone" false (Cfg.mem r.Routine.cfg orphan)

(* ------------------------------------------------------------------ *)
(* Naming *)

let test_naming_splits_conflicting_target () =
  (* The same register defined by two different expressions: Naming gives
     each expression its own canonical name. *)
  let b = Builder.start ~name:"f" ~nparams:2 in
  let t = Builder.fresh_reg b in
  Builder.emit b (Instr.Binop { op = Op.Add; dst = t; a = 0; b = 1 });
  Builder.emit b (Instr.Binop { op = Op.Mul; dst = t; a = 0; b = 1 });
  Builder.ret b (Some t);
  let r = Builder.finish b in
  let rewrites = Epre_opt.Naming.run r in
  Alcotest.(check bool) "rewrote" true (rewrites > 0);
  let prog = Program.create [ r ] in
  Alcotest.(check int) "mul wins" 12
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 3; Value.I 4 ] prog);
  (* discipline now holds: running again changes nothing *)
  Alcotest.(check int) "idempotent" 0 (Epre_opt.Naming.run r)

let test_naming_shares_name_across_blocks () =
  let b = Builder.start ~name:"f" ~nparams:2 in
  let t1 = Builder.binop b Op.Add 0 1 in
  let b2 = Builder.new_block b in
  Builder.jump b b2;
  Builder.switch b b2;
  let t2 = Builder.binop b Op.Add 0 1 in
  let s = Builder.binop b Op.Add t1 t2 in
  Builder.ret b (Some s);
  let r = Builder.finish b in
  ignore (Epre_opt.Naming.run r);
  (* both x+y evaluations now target one register *)
  let dsts =
    List.filter_map
      (function
        | Instr.Binop { op = Op.Add; dst; a = 0; b = 1; _ } -> Some dst
        | _ -> None)
      (instrs_of r)
  in
  (match dsts with
  | [ d1; d2 ] -> Alcotest.(check int) "same name" d1 d2
  | _ -> Alcotest.failf "expected two x+y evaluations, got %d" (List.length dsts));
  let prog = Program.create [ r ] in
  Alcotest.(check int) "semantics" 14
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 3; Value.I 4 ] prog)

(* ------------------------------------------------------------------ *)
(* CSE comparators *)

let join_source =
  {|
fn f(p: int, x: int, y: int): int {
  var a: int;
  if (p > 0) {
    a = x + y;
  } else {
    a = (x + y) * 3;
  }
  return a + (x + y);
}
|}

let test_cse_dom_misses_join () =
  (* Section 5.3: method 1 "cannot remove the redundancy ... where x + y
     occurs in each clause of an if-then-else and again in the block that
     follows". *)
  let prog = Helpers.compile join_source in
  let r = Program.find_exn prog "f" in
  let deleted = Epre_opt.Cse_dom.run r in
  Routine.validate r;
  (* the join's x+y is NOT deletable by dominance; only same-branch
     duplicates (here: none beyond constants) are. *)
  let adds = count_matching (is_binop Op.Add) r in
  Alcotest.(check bool) "join add survives" true (adds >= 3);
  ignore deleted;
  Alcotest.(check int) "semantics" 12
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 1; Value.I 2; Value.I 4 ] prog)

let test_cse_avail_catches_join () =
  let prog = Helpers.compile join_source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Naming.run r);
  let deleted = Epre_opt.Cse_avail.run r in
  Routine.validate r;
  Alcotest.(check bool) "join x+y deleted" true (deleted >= 1);
  Alcotest.(check int) "semantics" 12
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 1; Value.I 2; Value.I 4 ] prog)

let test_cse_dom_removes_dominated_recomputation () =
  let source =
    {|
fn f(x: int, y: int): int {
  var a: int = x + y;
  var b: int = x + y;    // dominated by the first
  return a * b;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  let deleted = Epre_opt.Cse_dom.run r in
  Alcotest.(check bool) "recomputation deleted" true (deleted >= 1);
  Alcotest.(check int) "semantics" 49
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 3; Value.I 4 ] prog)

let test_cse_avail_store_kills_load () =
  (* A load is not available across a store: deleting it would be wrong. *)
  let source =
    {|
fn f(): int {
  var a: int[4];
  a[1] = 10;
  var u: int = a[1];
  a[1] = 20;
  var v: int = a[1];   // must reload
  return u + v;
}
|}
  in
  let prog = Helpers.compile source in
  let r = Program.find_exn prog "f" in
  ignore (Epre_opt.Naming.run r);
  ignore (Epre_opt.Cse_avail.run r);
  Routine.validate r;
  Alcotest.(check int) "reload observed" 30 (Helpers.run_int ~entry:"f" prog)

let suite =
  [
    Alcotest.test_case "peephole: constant folding" `Quick test_peephole_constant_folding;
    Alcotest.test_case "peephole: identities" `Quick test_peephole_identities;
    Alcotest.test_case "peephole: add+neg -> sub" `Quick test_peephole_sub_reconstruction;
    Alcotest.test_case "peephole: mul -> shift" `Quick test_peephole_mul_to_shift;
    Alcotest.test_case "peephole: shift rewrite gated" `Quick test_peephole_mul_to_shift_off_by_default;
    Alcotest.test_case "peephole: constant branches" `Quick test_peephole_constant_branch;
    Alcotest.test_case "peephole: 1/0 not folded" `Quick test_peephole_no_fold_division_by_zero;
    Alcotest.test_case "sccp: folds chains" `Quick test_sccp_folds_through_copies;
    Alcotest.test_case "sccp: conditional constants" `Quick test_sccp_conditional_constants;
    Alcotest.test_case "sccp: unreachable code" `Quick test_sccp_removes_unreachable_code;
    Alcotest.test_case "sccp: loop-invariant phi" `Quick test_sccp_loop_invariant_phi;
    Alcotest.test_case "dce: dead arithmetic" `Quick test_dce_removes_dead_arithmetic;
    Alcotest.test_case "dce: stores/calls kept" `Quick test_dce_keeps_stores_and_calls;
    Alcotest.test_case "dce: dead loads removed" `Quick test_dce_removes_dead_load_chain;
    Alcotest.test_case "coalesce: copy chains" `Quick test_coalesce_removes_copy_chain;
    Alcotest.test_case "coalesce: interference respected" `Quick test_coalesce_respects_interference;
    Alcotest.test_case "coalesce: independent of next_reg" `Quick test_coalesce_ignores_name_supply;
    Alcotest.test_case "clean: empty blocks" `Quick test_clean_removes_empty_blocks;
    Alcotest.test_case "clean: same-target cbr" `Quick test_clean_folds_same_target_branch;
    Alcotest.test_case "clean: unreachable blocks" `Quick test_clean_removes_unreachable;
    Alcotest.test_case "naming: conflicting targets split" `Quick test_naming_splits_conflicting_target;
    Alcotest.test_case "naming: one name across blocks" `Quick test_naming_shares_name_across_blocks;
    Alcotest.test_case "cse_dom: misses the join case" `Quick test_cse_dom_misses_join;
    Alcotest.test_case "cse_avail: catches the join case" `Quick test_cse_avail_catches_join;
    Alcotest.test_case "cse_dom: dominated recomputation" `Quick test_cse_dom_removes_dominated_recomputation;
    Alcotest.test_case "cse_avail: stores kill loads" `Quick test_cse_avail_store_kills_load;
  ]

(* Regression: sub reconstruction must not use a stale negation — the
   negated operand can be redefined between the neg and the add. *)
let test_peephole_stale_neg_not_reconstructed () =
  let b = Builder.start ~name:"f" ~nparams:2 in
  (* s <- neg r1; r1 <- 100; t <- r0 + s  — must NOT become r0 - r1 *)
  let s = Builder.unop b Op.Neg 1 in
  let hundred = Builder.int b 100 in
  Builder.copy_to b ~dst:1 ~src:hundred;
  let t = Builder.binop b Op.Add 0 s in
  Builder.ret b (Some t);
  let r = Builder.finish b in
  ignore (Epre_opt.Peephole.run r);
  let prog = Program.create [ r ] in
  (* f(10, 3) = 10 + (-3) = 7; the stale rewrite would give 10 - 100 *)
  Alcotest.(check int) "stale neg not used" 7
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 10; Value.I 3 ] prog)

let test_peephole_fresh_neg_still_reconstructed () =
  let b = Builder.start ~name:"f" ~nparams:2 in
  let s = Builder.unop b Op.Neg 1 in
  let t = Builder.binop b Op.Add 0 s in
  Builder.ret b (Some t);
  let r = Builder.finish b in
  ignore (Epre_opt.Peephole.run r);
  Alcotest.(check int) "sub reconstructed" 1 (count_matching (is_binop Op.Sub) r);
  let prog = Program.create [ r ] in
  Alcotest.(check int) "semantics" 7
    (Helpers.run_int ~entry:"f" ~args:[ Value.I 10; Value.I 3 ] prog)

let suite =
  suite
  @ [
      Alcotest.test_case "peephole: stale negation rejected" `Quick
        test_peephole_stale_neg_not_reconstructed;
      Alcotest.test_case "peephole: fresh negation reconstructed" `Quick
        test_peephole_fresh_neg_still_reconstructed;
    ]
