(* Slow-tier campaigns (`dune build @slow`): the same properties as
   the fast tier, at depths that take minutes rather than seconds.

   - deep lockstep + flow fuzzing with the shared {!Fuzzgen} generator;
   - a full verification campaign (all benchmarks, fault injection,
     shrinking) asserting equivalence and a 100% detectable-fault kill
     score everywhere.

   Seeds are random per run; every failure prints its seed, and

     BESPOKE_FUZZ_SEED=<seed> dune exec test/test_fuzz_deep.exe

   replays that one seed through the lockstep and flow checks. *)

module B = Bespoke_programs.Benchmark
module Asm = Bespoke_isa.Asm
module Lockstep = Bespoke_cpu.Lockstep
module System = Bespoke_cpu.System
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Verify = Bespoke_verify.Verify
let core = Bespoke_cpu.Msp430.core

let shared = lazy (Runner.shared_netlist core)

let report_divergence ~seed ~src what detail =
  QCheck.Test.fail_reportf
    "seed %d %s: %s@\n\
     replay: BESPOKE_FUZZ_SEED=%d dune exec test/test_fuzz_deep.exe@\n\
     --- generated assembly (seed %d) ---@\n\
     %s--- end assembly ---"
    seed what detail seed seed src

let test_lockstep_fuzz_deep =
  QCheck.Test.make ~name:"deep lockstep fuzz" ~count:400
    QCheck.(pair (int_bound 10_000_000) (int_bound 0xffff))
    (fun (seed, gpio) ->
      let src = Fuzzgen.program ~seed in
      let img = Asm.assemble src in
      match Lockstep.run ~netlist:(Lazy.force shared) ~gpio_in:gpio img with
      | _ -> true
      | exception Lockstep.Divergence m ->
        report_divergence ~seed ~src
          (Printf.sprintf "(gpio 0x%04x) diverged" gpio) m)

(* The flow property for one program: analyze, tailor, and run stock
   and bespoke designs in lockstep on four GPIO inputs.  [None] when
   both agree everywhere, else what failed and the detail. *)
let flow_failure src =
  let img = Asm.assemble src in
  let net = Lazy.force shared in
  let sys = System.create ~netlist:net img in
  match Activity.analyze sys with
  | exception Activity.Analysis_error m -> Some ("analysis failed", m)
  | report ->
    let bespoke, _ =
      Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
        ~constants:report.Activity.constant_values
    in
    let run design netlist gpio =
      match Lockstep.run ~netlist ~gpio_in:gpio img with
      | r -> Ok r
      | exception Lockstep.Divergence m ->
        Error (Printf.sprintf "(gpio 0x%04x) %s design diverged" gpio design, m)
    in
    let rec probe = function
      | [] -> None
      | gpio :: rest -> (
        match run "stock" net gpio, run "bespoke" bespoke gpio with
        | Error e, _ | _, Error e -> Some e
        | Ok a, Ok b ->
          if
            a.Lockstep.gpio_final = b.Lockstep.gpio_final
            && a.Lockstep.cycles = b.Lockstep.cycles
            && a.Lockstep.outputs = b.Lockstep.outputs
          then probe rest
          else
            Some
              ( Printf.sprintf "(gpio 0x%04x) bespoke result differs" gpio,
                Printf.sprintf "gpio_final %04x/%04x, cycles %d/%d (stock/bespoke)"
                  a.Lockstep.gpio_final b.Lockstep.gpio_final a.Lockstep.cycles
                  b.Lockstep.cycles ))
    in
    probe [ 0; 0x00ff; 0xa5a5; 0xffff ]

let test_flow_fuzz_deep =
  QCheck.Test.make ~name:"deep flow fuzz" ~count:40
    QCheck.(int_bound 10_000_000)
    (fun seed ->
      let src = Fuzzgen.program ~seed in
      match flow_failure src with
      | None -> true
      | Some (what, detail) -> report_divergence ~seed ~src what detail)

(* Replay one seed from a failure log: prints the listing, then runs
   the lockstep check (GPIO 0) and the flow property for it alone. *)
let replay_cases =
  match Sys.getenv_opt "BESPOKE_FUZZ_SEED" with
  | None -> []
  | Some s ->
    let seed = int_of_string s in
    [
      Alcotest.test_case (Printf.sprintf "replay seed %d" seed) `Quick
        (fun () ->
          let src = Fuzzgen.program ~seed in
          Printf.printf "--- generated assembly (seed %d) ---\n%s%!" seed src;
          let img = Asm.assemble src in
          ignore (Lockstep.run ~netlist:(Lazy.force shared) img);
          match flow_failure src with
          | None -> ()
          | Some (what, detail) ->
            Alcotest.failf "seed %d %s: %s" seed what detail);
    ]

(* Full campaign across every benchmark: the whole three-layer checker
   must declare every tailoring equivalent, and every detectable
   injected fault must be killed with a shrunk repro. *)
let test_full_campaign () =
  let campaigns = Verify.run_campaign ~core ~faults:6 ~seed:1 B.all in
  List.iter
    (fun (c : Verify.campaign) ->
      Alcotest.(check bool)
        (c.Verify.benchmark ^ " equivalent")
        true c.Verify.equivalent;
      let s = Verify.kill_stats c in
      Alcotest.(check (float 0.01))
        (c.Verify.benchmark ^ " detectable kill score")
        100.0
        (Verify.detectable_score_pct s);
      List.iter
        (fun (fr : Verify.fault_result) ->
          match fr.Verify.kill with
          | Verify.Killed_input r ->
            Alcotest.(check bool)
              (c.Verify.benchmark ^ " repro non-empty")
              true
              (r.Bespoke_verify.Shrink.seeds <> [])
          | _ -> ())
        c.Verify.faults)
    campaigns

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "bespoke_fuzz_deep"
    [
      ( "deep-fuzz",
        qt test_lockstep_fuzz_deep :: qt test_flow_fuzz_deep :: replay_cases );
      ( "deep-verify",
        [ Alcotest.test_case "full campaign" `Slow test_full_campaign ] );
    ]
