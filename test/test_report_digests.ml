(* Pinned analysis reports: for every (core, benchmark) pair of the
   tailor flow — the 15 MSP430 Table 1 programs and the 5 RV32
   programs — the MD5 digest of the input-independent analysis report
   must equal the value recorded below.  The digest covers the
   per-gate verdicts (possibly_toggled, constant_values) and the
   execution-tree counts, so a change meant only to make analysis
   faster cannot alter a single gate's verdict unnoticed.

   The table is checked on the default (compiled) engine, and on the
   event-driven and full-sweep engines for the five cheapest pairs,
   so the engines stay pinned to each other as oracles.

   When a change is meant to alter the reports, regenerate the table
   from the "got" lines the failing run prints. *)

module B = Bespoke_programs.Benchmark
module Bit = Bespoke_logic.Bit
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Coredef = Bespoke_coreapi.Coredef
module Cores = Bespoke_cores.Cores

let pinned = [
  (("msp430", "binSearch"), "dfa7f381409dc24f1884abf25d4625f7");
  (("msp430", "div"), "c89ec22d2b6c41087dcc91f5bbe20797");
  (("msp430", "inSort"), "ab1091e00af1a0a71553e11b20a02dce");
  (("msp430", "intAVG"), "fc2e1dcbc6b53df9c36d3d63c4651862");
  (("msp430", "intFilt"), "51ec79664ccbff02b1f3d39ef00d5e6f");
  (("msp430", "mult"), "1ad3e28a5eae3f579a4f247bd35bd344");
  (("msp430", "rle"), "3f0390bf157296e94035d71144cbb93f");
  (("msp430", "tHold"), "1ecffc97c25d184336902bcf140a5f55");
  (("msp430", "tea8"), "018d96f17c62bb2028dcfcafebac04da");
  (("msp430", "FFT"), "14abe8e4a8787831a2650b064ffd91d3");
  (("msp430", "Viterbi"), "3c372fa39585647200d4d1adaaf7499b");
  (("msp430", "convEn"), "acc26f19342262c2db1be9b0148916e8");
  (("msp430", "autocorr"), "4908e8d20c34c5c56a1399cd82843e6c");
  (("msp430", "irq"), "d1263c3d9ebd028e6afb19fb00eaa721");
  (("msp430", "dbg"), "7dab68b4ad0c7c184466f8317926dad1");
  (("rv32", "mult"), "c0636f7098d1c10bbbee3608d4af4159");
  (("rv32", "binSearch"), "ac51e07d3d653c30ef71b808d06e7606");
  (("rv32", "inSort"), "891686462e71dd058c3cd33eb6fc0e44");
  (("rv32", "intAVG"), "84aafad122793b8366c11d3de0ae218f");
  (("rv32", "rle"), "f1cf29542dc25728defb19acc3d7c30e");
]

let digest (r : Activity.report) =
  let b = Buffer.create 65536 in
  Array.iter
    (fun t -> Buffer.add_char b (if t then '1' else '0'))
    r.Activity.possibly_toggled;
  Buffer.add_char b '|';
  Array.iter (fun v -> Buffer.add_char b (Bit.to_char v)) r.Activity.constant_values;
  Buffer.add_string b
    (Printf.sprintf "|%d %d %d %d %d %d" r.Activity.paths r.Activity.merges
       r.Activity.prunes r.Activity.total_cycles r.Activity.halted_paths
       r.Activity.escaped_paths);
  Digest.to_hex (Digest.string (Buffer.contents b))

let pairs =
  List.map (fun b -> (Cores.msp430.Cores.core, b)) B.table1
  @ List.map (fun b -> (Cores.rv32.Cores.core, b)) Cores.rv32.Cores.benchmarks

let test_pair ?engine (core, (b : B.t)) () =
  let cname = core.Coredef.name in
  let report, _ = Runner.analyze ?engine ~core b in
  let got = digest report in
  Printf.printf "got ((%S, %S), %S);\n%!" cname b.B.name got;
  match List.assoc_opt (cname, b.B.name) pinned with
  | None -> Alcotest.failf "%s/%s: no pinned digest" cname b.B.name
  | Some want ->
    Alcotest.(check string) (Printf.sprintf "%s/%s report digest" cname b.B.name)
      want got

(* the five pairs with the shortest analyses *)
let cheapest =
  [ ("rv32", "mult"); ("msp430", "dbg"); ("msp430", "mult");
    ("msp430", "intAVG"); ("rv32", "intAVG") ]

let oracle_cases engine =
  List.filter_map
    (fun ((core, (b : B.t)) as p) ->
      if List.mem (core.Coredef.name, b.B.name) cheapest then
        Some
          (Alcotest.test_case
             (Printf.sprintf "%s/%s" core.Coredef.name b.B.name)
             `Quick (test_pair ~engine p))
      else None)
    pairs

let () =
  Alcotest.run "report_digests"
    [
      ( "pinned",
        List.map
          (fun ((core, (b : B.t)) as p) ->
            Alcotest.test_case
              (Printf.sprintf "%s/%s" core.Coredef.name b.B.name)
              `Quick (test_pair p))
          pairs );
      ("event", oracle_cases Runner.Event);
      ("full", oracle_cases Runner.Full);
    ]
