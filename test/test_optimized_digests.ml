(** Golden digests of the optimizer's output.

    For each level, one MD5 digest of the concatenated [Ir_text] text (the
    [regs N] headers included) of all workloads, in [Workloads.all] order,
    after [Pipeline.optimize]. [test_workload_checksums.ml] pins what the
    programs compute; this file pins the exact code the optimizer emits, so
    a change meant to be output-neutral (a faster pass, a refactor) is
    checked byte for byte. A change that means to alter the output updates
    these digests and says why. A failing case prints the new digest as
    [Received]; to print level [i] (0 baseline, 1 partial, 2 reassociation,
    3 distribution) on its own, run:

    {v
      dune exec -- ./test/test_main.exe test opt-digests i
    v} *)

module P = Epre.Pipeline

let golden =
  [
    (P.Baseline, "b49826e6ccbc1bba1f0219e082eb8f44");
    (P.Partial, "37d6d534d63d239039865cf0bbd08b7b");
    (P.Reassociation, "f7e426ae06ef2c4f98b05f25d0c16c11");
    (P.Distribution, "2a09eb4bce85d311ae8779e3509d7e8d");
  ]

let digest level =
  let b = Buffer.create (1 lsl 20) in
  List.iter
    (fun w ->
      let p = Epre_workloads.Workloads.compile w in
      ignore (P.optimize ~level p);
      Buffer.add_string b (Epre_ir.Ir_text.print_program p))
    Epre_workloads.Workloads.all;
  Digest.to_hex (Digest.string (Buffer.contents b))

let suite =
  List.map
    (fun (level, expected) ->
      let name = P.level_to_string level in
      Alcotest.test_case ("optimized output " ^ name) `Quick (fun () ->
          Alcotest.(check string) name expected (digest level)))
    golden
