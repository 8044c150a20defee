(** [Epre_analysis.Expr_universe.build] against a reference builder.

    The library builds the universe in one pass over a register-indexed
    table. [Reference] is the straightforward construction it replaced: a
    hashtable from each register to every key evaluated into it, the names
    whose keys all agree, sorted by name and indexed densely. Both must
    give the same expressions, indices, [killed_by] and [loads], on
    generated programs and on routines that break the naming discipline on
    purpose. *)

open Epre_ir
open Epre_analysis
module U = Expr_universe

module Reference = struct
  type t = {
    exprs : U.expr array;
    killed_by : int list array;
    loads : int list;
  }

  let build (r : Routine.t) =
    let width = max 1 r.Routine.next_reg in
    let keys_of : (Instr.reg, U.key option list) Hashtbl.t = Hashtbl.create 64 in
    let note reg k =
      let prev = Option.value ~default:[] (Hashtbl.find_opt keys_of reg) in
      Hashtbl.replace keys_of reg (k :: prev)
    in
    List.iter (fun p -> note p None) r.Routine.params;
    Cfg.iter_blocks
      (fun b ->
        List.iter
          (fun i -> Option.iter (fun d -> note d (U.key_of i)) (Instr.def i))
          b.Block.instrs)
      r.Routine.cfg;
    (* The most recent key is the list head; it names the expression. *)
    let named =
      Hashtbl.fold
        (fun name keys acc ->
          match keys with
          | Some key :: rest when List.for_all (fun k -> k = Some key) rest ->
            (name, key) :: acc
          | _ -> acc)
        keys_of []
    in
    let exprs =
      List.sort (fun (a, _) (b, _) -> compare a b) named
      |> List.mapi (fun index (name, key) -> { U.index; name; key })
      |> Array.of_list
    in
    let killed_by = Array.make width [] in
    let loads = ref [] in
    Array.iter
      (fun (e : U.expr) ->
        List.iter
          (fun operand -> killed_by.(operand) <- e.U.index :: killed_by.(operand))
          (U.key_operands e.U.key);
        if U.is_load e.U.key then loads := e.U.index :: !loads)
      exprs;
    { exprs; killed_by; loads = !loads }
end

(* [compare], not [=]: a float key may hold a NaN. *)
let check_same ~what r =
  let u = U.build r and reference = Reference.build r in
  let same a b = compare a b = 0 in
  if not (same u.U.exprs reference.Reference.exprs) then Alcotest.failf "%s: exprs differ" what;
  if not (same u.U.killed_by reference.Reference.killed_by) then
    Alcotest.failf "%s: killed_by differs" what;
  if not (same u.U.loads reference.Reference.loads) then Alcotest.failf "%s: loads differ" what;
  Array.iteri
    (fun name slot ->
      let expected =
        Array.find_opt (fun (e : U.expr) -> e.U.name = name) reference.Reference.exprs
      in
      if not (same slot expected) then Alcotest.failf "%s: of_name r%d differs" what name)
    u.U.of_name

let check_program ~what prog =
  List.iter
    (fun r -> check_same ~what:(what ^ "/" ^ r.Routine.name) r)
    (Program.routines prog)

(* Front-end output keeps the discipline; the fully optimized program has
   been coalesced, so copies share names with evaluations. *)
let test_generated () =
  for seed = 1 to 100 do
    let source = Epre_fuzz.Gen.source seed in
    let what = Printf.sprintf "gen %d" seed in
    check_program ~what (Helpers.compile source);
    let prog = Helpers.compile source in
    ignore (Epre.Pipeline.optimize ~level:Epre.Pipeline.Distribution prog);
    check_program ~what:(what ^ " optimized") prog
  done

let test_workloads () =
  List.iter
    (fun (w : Epre_workloads.Workloads.t) ->
      let prog = Helpers.compile w.Epre_workloads.Workloads.source in
      check_program ~what:w.Epre_workloads.Workloads.name prog;
      ignore (Epre.Pipeline.optimize ~level:Epre.Pipeline.Partial prog);
      check_program ~what:(w.Epre_workloads.Workloads.name ^ " optimized") prog)
    Epre_workloads.Workloads.all

(* One routine per violation; [emit] writes registers of our choosing. *)
let crafted name ~nparams body =
  let b = Builder.start ~name ~nparams in
  body b;
  Builder.ret b None;
  b.Builder.routine

let binop dst op a b = Instr.Binop { op; dst; a; b }

let test_discipline_violations () =
  let open Instr in
  let add = Op.Add and mul = Op.Mul in
  let cases =
    [ ( "two keys",
        crafted "two_keys" ~nparams:2 (fun b ->
            let x = Builder.fresh_reg b in
            Builder.emit b (binop x add 0 1);
            Builder.emit b (binop x mul 0 1);
            ignore (Builder.binop b add x 0)) );
      ( "same key twice",
        crafted "same_key" ~nparams:2 (fun b ->
            let x = Builder.fresh_reg b in
            Builder.emit b (binop x add 0 1);
            Builder.emit b (binop x add 1 0)) );
      ( "copy",
        crafted "copy" ~nparams:2 (fun b ->
            let x = Builder.fresh_reg b in
            Builder.emit b (binop x add 0 1);
            Builder.emit b (Copy { dst = x; src = 0 });
            ignore (Builder.load b x)) );
      ( "phi",
        crafted "phi" ~nparams:2 (fun b ->
            let x = Builder.fresh_reg b in
            Builder.emit b (Phi { dst = x; args = [ (0, 1) ] });
            Builder.emit b (binop x add 0 1)) );
      ( "call",
        crafted "call" ~nparams:2 (fun b ->
            let x = Builder.fresh_reg b in
            Builder.emit b (binop x add 0 1);
            Builder.emit b (Call { dst = Some x; callee = "g"; args = [ 0 ] });
            Builder.store b ~addr:0 ~src:x) );
      ( "parameter",
        crafted "param" ~nparams:2 (fun b ->
            Builder.emit b (binop 1 add 0 0);
            ignore (Builder.unop b Op.Neg 1)) );
      ( "nan twice",
        crafted "nan" ~nparams:0 (fun b ->
            let x = Builder.fresh_reg b in
            Builder.emit b (Const { dst = x; value = Value.F Float.nan });
            Builder.emit b (Const { dst = x; value = Value.F Float.nan })) );
      ( "signed zeros",
        crafted "zeros" ~nparams:0 (fun b ->
            let x = Builder.fresh_reg b in
            Builder.emit b (Const { dst = x; value = Value.F 0.0 });
            Builder.emit b (Const { dst = x; value = Value.F (-0.0) })) ) ]
  in
  List.iter (fun (what, r) -> check_same ~what r) cases;
  (* Each violating name is out; the agreeing ones stay, under the later
     of two equal keys. *)
  let in_universe what reg =
    Option.is_some (U.expr_of_name (U.build (List.assoc what cases)) reg)
  in
  List.iter
    (fun (what, reg) ->
      Alcotest.(check bool) (what ^ " excluded") false (in_universe what reg))
    [ ("two keys", 2); ("copy", 2); ("phi", 2); ("call", 2); ("parameter", 1);
      ("nan twice", 0) ];
  Alcotest.(check bool) "same key kept" true (in_universe "same key twice" 2);
  match U.expr_of_name (U.build (List.assoc "signed zeros" cases)) 0 with
  | Some { U.key = U.KConst (Value.F z); _ } ->
    Alcotest.(check bool) "later zero kept" true (Float.sign_bit z)
  | _ -> Alcotest.fail "signed zeros: expected a constant"

let suite =
  [
    Alcotest.test_case "matches reference on generated programs" `Slow test_generated;
    Alcotest.test_case "matches reference on workloads" `Quick test_workloads;
    Alcotest.test_case "discipline violations" `Quick test_discipline_violations;
  ]
