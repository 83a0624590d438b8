(* Tests for the Obs telemetry subsystem: span nesting and ordering,
   JSONL export well-formedness, histogram percentiles, metrics from a
   real tailor run, and the disabled-by-default no-op guarantee. *)

module Obs = Bespoke_obs.Obs
module Stats = Bespoke_obs.Stats
module B = Bespoke_programs.Benchmark
module Activity = Bespoke_analysis.Activity
module Runner = Bespoke_core.Runner
module Cut = Bespoke_core.Cut
module Pool = Bespoke_core.Pool
let core = Bespoke_cpu.Msp430.core

(* Every test leaves the global collector disabled and empty so test
   order never matters. *)
let with_tracing f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.disable ())
    f

let run_tailor_mult () =
  let report, net = Runner.analyze ~core (B.find "mult") in
  Cut.tailor net ~possibly_toggled:report.Activity.possibly_toggled
    ~constants:report.Activity.constant_values

(* ---- spans ---- *)

let test_span_nesting () =
  with_tracing (fun () ->
      let r =
        Obs.Span.with_ ~name:"outer" (fun () ->
            Obs.Span.with_ ~name:"inner"
              ~args:[ ("k", "v") ]
              (fun () -> 41 + 1))
      in
      Alcotest.(check int) "result threaded through" 42 r;
      let events = Obs.Trace.events () in
      Alcotest.(check (list (pair string char)))
        "B/E sequence"
        [ ("outer", 'B'); ("inner", 'B'); ("inner", 'E'); ("outer", 'E') ]
        (List.map (fun (e : Obs.Trace.event) -> (e.name, e.ph)) events);
      let ts = List.map (fun (e : Obs.Trace.event) -> e.ts_us) events in
      Alcotest.(check bool)
        "timestamps non-decreasing" true
        (List.sort compare ts = ts);
      let inner_b = List.nth events 1 in
      Alcotest.(check (list (pair string string)))
        "args attached to B" [ ("k", "v") ] inner_b.args)

let test_span_end_on_raise () =
  with_tracing (fun () ->
      (try Obs.Span.with_ ~name:"boom" (fun () -> failwith "no") with
      | Failure _ -> ());
      Alcotest.(check (list (pair string char)))
        "span closed despite raise"
        [ ("boom", 'B'); ("boom", 'E') ]
        (List.map
           (fun (e : Obs.Trace.event) -> (e.name, e.ph))
           (Obs.Trace.events ())))

let test_spans_across_domains () =
  with_tracing (fun () ->
      let workers =
        List.init 3 (fun i ->
            Domain.spawn (fun () ->
                Obs.Span.with_ ~name:(Printf.sprintf "worker-%d" i) (fun () ->
                    ())))
      in
      List.iter Domain.join workers;
      Obs.Span.with_ ~name:"main" (fun () -> ());
      let events = Obs.Trace.events () in
      Alcotest.(check int) "all buffers merged" 8 (List.length events);
      (* B/E balance per domain, and events from joined domains kept *)
      let depth : (int, int) Hashtbl.t = Hashtbl.create 4 in
      List.iter
        (fun (e : Obs.Trace.event) ->
          let d = Option.value ~default:0 (Hashtbl.find_opt depth e.tid) in
          let d = d + (if e.ph = 'B' then 1 else -1) in
          if d < 0 then Alcotest.failf "tid %d: E before B" e.tid;
          Hashtbl.replace depth e.tid d)
        events;
      Hashtbl.iter
        (fun tid d ->
          if d <> 0 then Alcotest.failf "tid %d: %d unclosed spans" tid d)
        depth;
      Alcotest.(check bool)
        "events span multiple domains" true
        (Hashtbl.length depth > 1))

(* ---- JSONL export from a real flow ---- *)

let json_str k j =
  match Obs.Json.member k j with
  | Some (Obs.Json.Str s) -> s
  | _ -> Alcotest.failf "field %S missing or not a string" k

let json_num k j =
  match Obs.Json.member k j with
  | Some (Obs.Json.Num n) -> n
  | _ -> Alcotest.failf "field %S missing or not a number" k

(* Every line of [jsonl] parses, and B/E events are strictly balanced
   per tid in LIFO order.  Returns the parsed lines. *)
let check_balanced jsonl =
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' jsonl)
  in
  let stacks : (int, string list) Hashtbl.t = Hashtbl.create 4 in
  let parsed =
    List.map
      (fun line ->
        match Obs.Json.parse line with
        | Error m -> Alcotest.failf "unparseable line %S: %s" line m
        | Ok j ->
          let tid = int_of_float (json_num "tid" j) in
          Alcotest.(check bool) "ts is non-negative" true (json_num "ts" j >= 0.0);
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
          (match json_str "ph" j with
          | "B" -> Hashtbl.replace stacks tid (json_str "name" j :: stack)
          | "E" -> (
            match stack with
            | top :: rest ->
              Alcotest.(check string) "E closes innermost B" top
                (json_str "name" j);
              Hashtbl.replace stacks tid rest
            | [] -> Alcotest.failf "E with no open span: %s" line)
          | "i" | "M" -> ()
          | ph -> Alcotest.failf "unexpected ph %S" ph);
          j)
      lines
  in
  Hashtbl.iter
    (fun tid stack ->
      if stack <> [] then
        Alcotest.failf "tid %d ends with %d unclosed spans" tid
          (List.length stack))
    stacks;
  parsed

let test_jsonl_wellformed () =
  with_tracing (fun () ->
      ignore (run_tailor_mult ());
      let lines = check_balanced (Obs.Trace.to_jsonl ()) in
      Alcotest.(check bool) "trace is non-empty" true (lines <> []))

(* A span still open at export — here a parked worker domain's and the
   exporting domain's own — is closed by a synthetic flush E event;
   the recorded events stay as they are. *)
let test_jsonl_closes_open_spans () =
  with_tracing (fun () ->
      let started = Atomic.make false and release = Atomic.make false in
      let worker =
        Domain.spawn (fun () ->
            Obs.Span.with_ ~name:"parked" (fun () ->
                Atomic.set started true;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done))
      in
      while not (Atomic.get started) do
        Domain.cpu_relax ()
      done;
      let jsonl, recorded =
        Obs.Span.with_ ~name:"exporting" (fun () ->
            (Obs.Trace.to_jsonl (), List.length (Obs.Trace.events ())))
      in
      Atomic.set release true;
      Domain.join worker;
      Alcotest.(check int) "recorded events untouched" 2 recorded;
      let synthetic =
        List.filter_map
          (fun j ->
            match Obs.Json.member "args" j with
            | Some a when Obs.Json.member "synthetic" a = Some (Obs.Json.Str "flush")
              ->
              Some (json_str "name" j)
            | _ -> None)
          (check_balanced jsonl)
      in
      Alcotest.(check (list string))
        "one flush E per open span" [ "exporting"; "parked" ]
        (List.sort compare synthetic))

(* ---- histograms ---- *)

let test_histogram_percentiles () =
  with_tracing (fun () ->
      let h = Obs.Metrics.histogram "test.uniform" in
      for i = 1 to 1000 do
        Obs.Metrics.observe h i
      done;
      Alcotest.(check int) "count" 1000 (Obs.Metrics.histogram_count h);
      let p50 = Obs.Metrics.percentile h 0.5 in
      let p99 = Obs.Metrics.percentile h 0.99 in
      (* log-scale buckets: the answer is only factor-of-two accurate,
         so check bucket bounds, not exact quantiles *)
      Alcotest.(check bool)
        "p50 in [256,512]" true
        (p50 >= 256.0 && p50 <= 512.0);
      Alcotest.(check bool)
        "p99 in [512,1000]" true
        (p99 >= 512.0 && p99 <= 1000.0);
      Alcotest.(check bool) "quantiles monotone" true (p50 <= p99);
      Alcotest.(check bool)
        "p0 clamped near observed min" true
        (Obs.Metrics.percentile h 0.0 >= 1.0
        && Obs.Metrics.percentile h 0.0 <= 2.0);
      (* a degenerate distribution clamps to the exact value *)
      let d = Obs.Metrics.histogram "test.degenerate" in
      for _ = 1 to 10 do
        Obs.Metrics.observe d 42
      done;
      Alcotest.(check (float 0.0))
        "single-valued p50 is exact" 42.0
        (Obs.Metrics.percentile d 0.5);
      Alcotest.(check (float 0.0))
        "single-valued p99 is exact" 42.0
        (Obs.Metrics.percentile d 0.99))

(* Exact percentile values and log-bucket edge behavior.  Bucket b
   holds values in [2^(b-1), 2^b): 7 is the last value of bucket 3,
   8 the first of bucket 4.  The representative value is the geometric
   midpoint 0.75 * 2^b, clamped to the observed [min, max]. *)
let test_histogram_exact () =
  with_tracing (fun () ->
      (* one bucket, midpoint representative: 5,6,7 all in [4,8) *)
      let h = Obs.Metrics.histogram "test.exact_mid" in
      List.iter (Obs.Metrics.observe h) [ 5; 6; 7 ];
      Alcotest.(check (float 0.0))
        "p50 is the bucket midpoint 6" 6.0
        (Obs.Metrics.percentile h 0.5);
      (* bucket-edge pair: 7 -> bucket 3, 8 -> bucket 4; the clamp to
         [min, max] makes both quantiles exact *)
      let e = Obs.Metrics.histogram "test.exact_edge" in
      Obs.Metrics.observe e 7;
      Obs.Metrics.observe e 8;
      Alcotest.(check (float 0.0))
        "p50 clamps up to min 7" 7.0
        (Obs.Metrics.percentile e 0.5);
      Alcotest.(check (float 0.0))
        "p99 clamps down to max 8" 8.0
        (Obs.Metrics.percentile e 0.99);
      (* a power of two lands in the bucket above its exponent *)
      let p = Obs.Metrics.histogram "test.exact_pow2" in
      Obs.Metrics.observe p 4;
      Alcotest.(check (float 0.0))
        "single 2^k value is exact" 4.0
        (Obs.Metrics.percentile p 0.9);
      (* zero has its own bucket and a zero representative *)
      let z = Obs.Metrics.histogram "test.exact_zero" in
      Obs.Metrics.observe z 0;
      Alcotest.(check (float 0.0))
        "all-zero histogram quantile is 0" 0.0
        (Obs.Metrics.percentile z 0.99);
      (* empty histogram: quantile defined as 0 *)
      let n = Obs.Metrics.histogram "test.exact_empty" in
      Alcotest.(check (float 0.0))
        "empty histogram quantile is 0" 0.0
        (Obs.Metrics.percentile n 0.5))

(* Concurrent pool-domain updates must leave the registry exact (no
   lost increments) and the snapshot deterministic once quiescent. *)
let test_metrics_concurrent_snapshot () =
  with_tracing (fun () ->
      let c = Obs.Metrics.counter "test.conc_counter" in
      let h = Obs.Metrics.histogram "test.conc_hist" in
      let n = 400 in
      Pool.iter ~jobs:4
        (fun i ->
          Obs.Metrics.incr c;
          Obs.Metrics.observe h (1 + (i mod 64)))
        (List.init n Fun.id);
      Alcotest.(check int) "no lost counter increments" n
        (Obs.Metrics.counter_value c);
      Alcotest.(check int) "no lost observations" n
        (Obs.Metrics.histogram_count h);
      let s1 = Obs.Metrics.snapshot_json () in
      let s2 = Obs.Metrics.snapshot_json () in
      Alcotest.(check string) "quiescent snapshots identical" s1 s2;
      match Obs.Json.parse s1 with
      | Error m -> Alcotest.failf "snapshot does not parse: %s" m
      | Ok _ -> ())

(* ---- the background sampler ---- *)

let test_sampler_series () =
  let path = Filename.temp_file "bespoke_test_metrics" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      Obs.Sampler.stop ();
      Obs.reset ();
      Obs.disable ();
      if Sys.file_exists path then Sys.remove path)
    (fun () ->
      Obs.reset ();
      Obs.Sampler.start ~path ~interval_ms:40 ();
      Alcotest.(check bool) "sampler reports running" true
        (Obs.Sampler.running ());
      Alcotest.(check (option string)) "sampler reports its path" (Some path)
        (Obs.Sampler.path ());
      let c = Obs.Metrics.counter "test.sampler_counter" in
      Obs.Metrics.incr c;
      Unix.sleepf 0.12;
      Obs.Sampler.stop ();
      Alcotest.(check bool) "sampler stopped" false (Obs.Sampler.running ());
      match Stats.load_metrics path with
      | Error m -> Alcotest.failf "sampler output invalid: %s" m
      | Ok series ->
        Alcotest.(check int) "declared interval" 40 series.Stats.interval_ms;
        Alcotest.(check bool)
          (Printf.sprintf "at least 2 snapshots (got %d)"
             series.Stats.snapshots)
          true (series.Stats.snapshots >= 2);
        Alcotest.(check bool) "series spans real time" true
          (series.Stats.span_us > 0.0))

(* ---- bench regression comparison ---- *)

let test_stats_compare () =
  let entry label scale =
    {
      Stats.b_label = label;
      b_metrics =
        [
          ("cps/mult/event", 1000.0 *. scale);
          ("cps/mult/compiled", 5000.0 *. scale);
          ("campaign/jobs_per_sec/warm_jobs4", 80.0);
        ];
    }
  in
  let old_e = entry "old" 1.0 in
  (* self-comparison is clean *)
  let self = Stats.compare_benches ~threshold:0.1 old_e old_e in
  Alcotest.(check int) "self-compare has no regressions" 0
    (List.length self.Stats.regressions);
  Alcotest.(check int) "self-compare covers all metrics" 3
    (List.length self.Stats.deltas);
  (* a uniform 12% throughput drop beyond the 10% threshold *)
  let slow = entry "new" 0.88 in
  let cmp = Stats.compare_benches ~threshold:0.1 old_e slow in
  Alcotest.(check int) "both cps drops flagged" 2
    (List.length cmp.Stats.regressions);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        (d.Stats.d_metric ^ " ratio below 0.9")
        true (d.Stats.d_ratio < 0.9))
    cmp.Stats.regressions;
  (* the same drop under a looser threshold is not a regression *)
  let loose = Stats.compare_benches ~threshold:0.2 old_e slow in
  Alcotest.(check int) "20%% threshold tolerates a 12%% drop" 0
    (List.length loose.Stats.regressions);
  (* metric-set drift is reported, not silently dropped *)
  let extra =
    { old_e with Stats.b_metrics = ("cps/extra/event", 1.0) :: old_e.b_metrics }
  in
  let drift = Stats.compare_benches ~threshold:0.1 extra slow in
  Alcotest.(check (list string)) "vanished metric listed"
    [ "cps/extra/event" ] drift.Stats.only_old

(* ---- sampler interval edge cases ---- *)

(* Zero or negative intervals would spin the ticker thread; the
   sampler clamps to 1 ms and the header records the clamped value
   (the CLI additionally rejects them with a usage error). *)
let test_sampler_interval_clamp () =
  let probe interval_ms =
    let path = Filename.temp_file "bespoke_test_metrics" ".jsonl" in
    Fun.protect
      ~finally:(fun () ->
        Obs.Sampler.stop ();
        Obs.reset ();
        Obs.disable ();
        if Sys.file_exists path then Sys.remove path)
      (fun () ->
        Obs.reset ();
        Obs.Sampler.start ~path ~interval_ms ();
        Unix.sleepf 0.05;
        Obs.Sampler.stop ();
        match Stats.load_metrics path with
        | Error m ->
          Alcotest.failf "sampler output for interval %d invalid: %s"
            interval_ms m
        | Ok series ->
          Alcotest.(check int)
            (Printf.sprintf "interval %d clamped to 1 ms in the header"
               interval_ms)
            1 series.Stats.interval_ms;
          Alcotest.(check bool) "clamped sampler still snapshots" true
            (series.Stats.snapshots >= 1))
  in
  probe 0;
  probe (-25)

(* ---- truncated-stream tolerance in the stats loaders ---- *)

(* A live JSONL stream can end mid-record (crash, kill -9, full disk).
   Every loader must skip a malformed FINAL line and aggregate what
   came before — and must stay fatal on corruption anywhere else. *)
let test_truncated_loaders () =
  let tmp lines f =
    let path = Filename.temp_file "bespoke_test_stats" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
      (fun () ->
        let oc = open_out_bin path in
        List.iter
          (fun l ->
            output_string oc l;
            output_char oc '\n')
          lines;
        close_out oc;
        f path)
  in
  let cut = {|{"cycle":12,"ga|} in
  (* trace *)
  let b = {|{"ph":"B","name":"work","ts":1.0,"tid":0,"pid":1}|} in
  let e = {|{"ph":"E","name":"work","ts":5.0,"tid":0,"pid":1}|} in
  (match tmp [ b; e; cut ] Stats.load_trace with
  | Error m -> Alcotest.failf "trace with truncated tail rejected: %s" m
  | Ok [ s ] ->
    Alcotest.(check string) "span survives the cut" "work" s.Stats.span_name;
    Alcotest.(check int) "span count" 1 s.Stats.count
  | Ok l -> Alcotest.failf "expected 1 span, got %d" (List.length l));
  (match tmp [ b; cut; e ] Stats.load_trace with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-stream trace corruption must stay fatal");
  (* metrics *)
  let mh = Printf.sprintf {|{"schema":%S,"interval_ms":40}|} Obs.Sampler.schema in
  let snap ts = Printf.sprintf {|{"ts_us":%.1f,"metrics":{}}|} ts in
  (match tmp [ mh; snap 1.0; snap 2.0; cut ] Stats.load_metrics with
  | Error m -> Alcotest.failf "metrics with truncated tail rejected: %s" m
  | Ok series ->
    Alcotest.(check int) "snapshots before the cut kept" 2
      series.Stats.snapshots);
  (match tmp [ mh; snap 1.0; cut; snap 2.0 ] Stats.load_metrics with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-stream metrics corruption must stay fatal");
  (* campaign *)
  let ch = {|{"schema":"bespoke-campaign/v1","jobs":2,"total_jobs":2}|} in
  let job =
    {|{"job":0,"kind":"analyze","bench":"mult","status":"ok","cached":false,"time_s":0.1,"payload":{}}|}
  in
  (match tmp [ ch; job; cut ] Stats.load_campaign with
  | Error m -> Alcotest.failf "campaign with truncated tail rejected: %s" m
  | Ok c ->
    Alcotest.(check int) "job before the cut kept" 1 c.Stats.c_ok;
    Alcotest.(check int) "no summary: total from records" 1 c.Stats.c_total);
  (match tmp [ ch; job; cut; job ] Stats.load_campaign with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-stream campaign corruption must stay fatal");
  (* guard *)
  let gh =
    {|{"schema":"bespoke-guard/v1","design":"mult","workload":"mult","mode":"shadow","assumptions":10,"monitors":4,"implied":5,"unmonitorable":1}|}
  in
  let viol =
    {|{"cycle":3,"gate":7,"assumed":0,"observed":1,"reason":"cut: never toggles"}|}
  in
  match tmp [ gh; viol; cut ] Stats.load_guard with
  | Error m -> Alcotest.failf "guard with truncated tail rejected: %s" m
  | Ok g ->
    Alcotest.(check bool) "violation before the cut kept" false g.Stats.g_clean;
    Alcotest.(check int) "truncated stream: lower-bound violations" 1
      g.Stats.g_violations;
    Alcotest.(check (list (pair string int)))
      "cut-reason provenance aggregated"
      [ ("cut: never toggles", 1) ]
      g.Stats.g_reasons

(* ---- metrics from a real tailor run ---- *)

let test_tailor_metrics () =
  with_tracing (fun () ->
      let _bespoke, stats = run_tailor_mult () in
      let c name = Obs.Metrics.counter_value (Obs.Metrics.counter name) in
      Alcotest.(check bool) "gate evals counted" true (c "sim.gate_evals" > 0);
      Alcotest.(check bool)
        "settle iterations counted" true
        (c "sim.settle_iterations" > 0);
      Alcotest.(check bool) "analysis paths counted" true (c "analysis.paths" > 0);
      Alcotest.(check int) "cut.gates_removed matches Cut.stats"
        stats.Cut.cut_gates (c "cut.gates_removed");
      Alcotest.(check bool)
        "resynth folded constants" true
        (c "resynth.const_folds" > 0);
      (* the snapshot parses and spans the whole flow *)
      match Obs.Json.parse (Obs.Metrics.snapshot_json ()) with
      | Error m -> Alcotest.failf "snapshot does not parse: %s" m
      | Ok j ->
        let section k =
          match Obs.Json.member k j with
          | Some (Obs.Json.Obj fields) -> List.map fst fields
          | _ -> Alcotest.failf "snapshot missing %S object" k
        in
        let names =
          section "counters" @ section "gauges" @ section "histograms"
        in
        Alcotest.(check bool)
          "at least 8 distinct metric names" true
          (List.length (List.sort_uniq String.compare names) >= 8);
        List.iter
          (fun prefix ->
            Alcotest.(check bool)
              (prefix ^ " metrics present") true
              (List.exists
                 (fun n -> String.starts_with ~prefix n)
                 names))
          [ "sim."; "analysis."; "cut."; "resynth." ])

(* ---- disabled-by-default no-op guarantee ---- *)

let test_disabled_noop () =
  Obs.disable ();
  Obs.reset ();
  let c = Obs.Metrics.counter "test.noop_counter" in
  let h = Obs.Metrics.histogram "test.noop_hist" in
  let r = Obs.Span.with_ ~name:"ignored" (fun () -> "ok") in
  Obs.Span.instant "ignored too";
  Obs.Metrics.incr c;
  Obs.Metrics.add c 100;
  Obs.Metrics.observe h 7;
  Alcotest.(check string) "span body still runs" "ok" r;
  Alcotest.(check int) "no events recorded" 0
    (List.length (Obs.Trace.events ()));
  Alcotest.(check int) "counter untouched" 0 (Obs.Metrics.counter_value c);
  Alcotest.(check int) "histogram untouched" 0 (Obs.Metrics.histogram_count h);
  Alcotest.(check string) "jsonl empty" "" (Obs.Trace.to_jsonl ())

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and ordering" `Quick test_span_nesting;
          Alcotest.test_case "end emitted on raise" `Quick test_span_end_on_raise;
          Alcotest.test_case "per-domain buffers merge" `Quick
            test_spans_across_domains;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl well-formed and balanced" `Quick
            test_jsonl_wellformed;
          Alcotest.test_case "open spans closed at export" `Quick
            test_jsonl_closes_open_spans;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "exact percentiles and bucket edges" `Quick
            test_histogram_exact;
          Alcotest.test_case "concurrent updates, deterministic snapshot"
            `Quick test_metrics_concurrent_snapshot;
          Alcotest.test_case "tailor run populates registry" `Quick
            test_tailor_metrics;
        ] );
      ( "sampler",
        [
          Alcotest.test_case "time series lifecycle" `Quick test_sampler_series;
          Alcotest.test_case "zero/negative interval clamped" `Quick
            test_sampler_interval_clamp;
        ] );
      ( "stats",
        [
          Alcotest.test_case "bench regression comparison" `Quick
            test_stats_compare;
          Alcotest.test_case "truncated final line tolerated" `Quick
            test_truncated_loaders;
        ] );
      ( "disabled",
        [ Alcotest.test_case "hooks are no-ops" `Quick test_disabled_noop ] );
    ]
