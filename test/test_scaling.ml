(** Scaling of reassociation with input size.

    Global reassociation's time should follow the size of the trees it
    builds and emits. Two program families pin that:

    - [nest n]: one right-nested sum [a + (b*k + (c + ...))] of [n] terms.
      Its output is linear in [n], so an 8× larger input may take about 8×
      longer (plus a log factor for the sorts), never the ~100× that
      re-flattening every level of the sum costs;
    - [chain n]: the loop-carried [x = x + y*k; y = y - x + k], [n] times.
      Forward propagation grows its output exponentially in [n] (the
      paper's Section 4.3 worst case); that growth is accepted, but the
      time per output operation should stay flat, not grow with [n].

    Each input is reassociated seven times from a fresh copy after a full
    major collection, and the best time is kept. The bounds sit at least
    2× away from both the linear behaviour (nest ~10–15×, chain ~2×) and
    the quadratic one (nest ~100×, chain ~8×). *)

open Epre_ir
open Epre_reassoc

let params = [| "a"; "b"; "c" |]

(* [a + (b*3 + (c + (a*5 + ...)))], [n] terms. *)
let nest_source n =
  let b = Buffer.create (n * 12) in
  Buffer.add_string b "fn f(a: int, b: int, c: int): int {\n  var x: int;\n  x = ";
  for i = 1 to n - 1 do
    let p = params.(i mod 3) in
    if i mod 2 = 0 then Printf.bprintf b "%s + (" p
    else Printf.bprintf b "%s * %d + (" p (3 + (2 * (i mod 7)))
  done;
  Buffer.add_string b params.(n mod 3);
  Buffer.add_string b (String.make (n - 1) ')');
  Buffer.add_string b ";\n  return x;\n}\n";
  Buffer.contents b

(* [n] steps of [x = x + y*k; y = y - x + k] in a loop body. *)
let chain_source n =
  let b = Buffer.create (n * 48) in
  Buffer.add_string b
    "fn f(a: int, b: int, c: int): int {\n  var x: int;\n  var y: int;\n  var i: int;\n  x = a;\n  y = b;\n  for i = 1 to 4 {\n";
  for i = 1 to n do
    Printf.bprintf b "    x = x + y * %d;\n    y = y - x + %d;\n" (3 + (2 * i)) (5 + (2 * i))
  done;
  Buffer.add_string b "    x = mod(x, 7001) + c;\n    y = mod(y, 9001);\n  }\n  return x + y;\n}\n";
  Buffer.contents b

(* Best of seven runs of [Reassociate.run], in seconds, with the output's
   static operation count. *)
let best_time ?config source =
  let r = Program.find_exn (Epre_frontend.Frontend.compile_string source) "f" in
  let best = ref infinity and after_ops = ref 0 in
  for _ = 1 to 7 do
    let r = Routine.copy r in
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let stats = Reassociate.run ?config r in
    best := Float.min !best (Unix.gettimeofday () -. t0);
    after_ops := stats.Reassociate.after_ops
  done;
  (!best, !after_ops)

let test_nest_is_near_linear () =
  let t_small, _ = best_time (nest_source 400) in
  let t_large, _ = best_time (nest_source 3200) in
  let ratio = t_large /. t_small in
  if ratio > 40. then
    Alcotest.failf "nest 400 -> 3200: time grew %.1f× (%.2f -> %.2f ms), bound 40×" ratio
      (t_small *. 1e3) (t_large *. 1e3)

let test_chain_time_follows_output () =
  let config = { Expr_tree.reassoc_float = true; distribute = false } in
  let t_small, ops_small = best_time ~config (chain_source 5) in
  let t_large, ops_large = best_time ~config (chain_source 7) in
  let per_op t ops = t /. float_of_int ops in
  let ratio = per_op t_large ops_large /. per_op t_small ops_small in
  if ratio > 4. then
    Alcotest.failf
      "chain 5 -> 7: time per output op grew %.1f× (%d ops in %.2f ms -> %d ops in %.2f ms), bound 4×"
      ratio ops_small (t_small *. 1e3) ops_large (t_large *. 1e3)

let suite =
  [
    Alcotest.test_case "reassociate: nest 400 -> 3200 near linear" `Slow
      test_nest_is_near_linear;
    Alcotest.test_case "reassociate: chain 5 -> 7 time per output op flat" `Slow
      test_chain_time_follows_output;
  ]
