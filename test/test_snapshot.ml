(* Differential test of the explorer's snapshot algebra over the DFF
   planes (Engine.dff_planes and the System snapshot functions)
   against the ternary vector operations it replaced (Bvec.subsumes,
   Bvec.merge and per-bit assignment), in the Full, Event and Compiled
   engines on both cores.  DFF states are drawn at random, with X
   bits.

   The seed is random per run and printed; replay a failure with

     BESPOKE_FUZZ_SEED=<seed> dune exec test/test_snapshot.exe *)

module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Engine = Bespoke_sim.Engine
module System = Bespoke_coreapi.System
module Coredef = Bespoke_coreapi.Coredef
module Cores = Bespoke_cores.Cores
module Runner = Bespoke_core.Runner

let seed =
  match Sys.getenv_opt "BESPOKE_FUZZ_SEED" with
  | Some s -> int_of_string s
  | None ->
    Random.self_init ();
    Random.bits ()

let trials = 25

let rand_bit st =
  match Random.State.int st 3 with 0 -> Bit.Zero | 1 -> Bit.One | _ -> Bit.X

let rand_state st n = Array.init n (fun _ -> rand_bit st)

(* [general] with some of its X bits made known: a state it subsumes *)
let specialize st (general : Bvec.t) =
  Array.map
    (fun b ->
      if Bit.equal b Bit.X && Random.State.bool st then
        if Random.State.bool st then Bit.One else Bit.Zero
      else b)
    general

let fail_with ~core ~mode fmt =
  Printf.ksprintf
    (fun m ->
      Alcotest.failf "%s/%s: %s (replay: BESPOKE_FUZZ_SEED=%d)" core mode m
        seed)
    fmt

(* Load a DFF state into the system and take a snapshot of it. *)
let snap_of sys (s : Bvec.t) =
  Engine.restore_dff_state (System.engine sys) s;
  System.snapshot sys

let dffs_after_restore sys snap =
  System.restore sys snap;
  Engine.dff_state (System.engine sys)

let run_case (core : Coredef.t) mode () =
  let mname =
    match mode with
    | Engine.Full -> "full"
    | Engine.Event -> "event"
    | Engine.Compiled -> "compiled"
  in
  let fail fmt = fail_with ~core:core.Coredef.name ~mode:mname fmt in
  let bench = List.hd (Cores.find_exn core.Coredef.name).Cores.benchmarks in
  let net = Runner.shared_netlist core in
  let sys = System.create ~mode ~netlist:net ~core (Runner.image ~core bench) in
  System.reset sys;
  let eng = System.engine sys in
  let ids = Engine.dff_ids eng in
  let n = Array.length ids in
  let st = Random.State.make [| seed; n; Hashtbl.hash mname |] in
  let str = Bvec.to_string in
  (* a combinational gate has no slot *)
  (match
     Array.find_opt
       (fun id -> not (Gate.is_source net.Netlist.gates.(id)))
       (Array.init (Netlist.gate_count net) Fun.id)
   with
  | Some id ->
    if Engine.dff_slot eng id <> -1 then
      fail "gate %d is not a DFF but has a slot" id
  | None -> ());
  for trial = 1 to trials do
    let a = rand_state st n in
    (* round trip: planes written back reproduce the state exactly *)
    Engine.restore_dff_state eng a;
    let pa = Engine.dff_planes eng in
    Engine.restore_dff_state eng (rand_state st n);
    Engine.restore_dff_planes eng pa;
    if Engine.dff_state eng <> a then fail "trial %d: planes round trip" trial;
    if Engine.dff_planes eng <> pa then fail "trial %d: planes not stable" trial;
    (* subsumption, both ways and against an unrelated state *)
    let b = if Random.State.bool st then specialize st a else rand_state st n in
    let sa = snap_of sys a and sb = snap_of sys b in
    List.iter
      (fun (g, s, sg, ss) ->
        let want = Bvec.subsumes ~general:g ~specific:s in
        let got = System.snapshot_subsumes ~general:sg ~specific:ss in
        if want <> got then
          fail "trial %d: subsumes %s over %s: got %b" trial (str g) (str s) got)
      [ (a, b, sa, sb); (b, a, sb, sa); (a, a, sa, sa) ];
    (* merge *)
    let m = dffs_after_restore sys (System.snapshot_merge sa sb) in
    if m <> Bvec.merge a b then fail "trial %d: merge" trial;
    (* forcing: a random subset of DFFs (and one non-DFF slot) *)
    let picked =
      List.filter (fun _ -> Random.State.int st 8 = 0) (List.init n Fun.id)
    in
    let slots =
      Array.of_list (-1 :: List.map (fun i -> Engine.dff_slot eng ids.(i)) picked)
    in
    let v = Array.init (Array.length slots) (fun _ -> rand_bit st) in
    let want = Bvec.copy a in
    List.iteri (fun k i -> want.(i) <- v.(k + 1)) picked;
    let f = dffs_after_restore sys (System.force_dffs sa slots v) in
    if f <> want then fail "trial %d: force_dffs" trial;
    (* forcing copies: the source snapshot is unchanged *)
    if dffs_after_restore sys sa <> a then
      fail "trial %d: force_dffs mutated its input" trial
  done

let () =
  Printf.printf "test_snapshot: seed %d (replay: BESPOKE_FUZZ_SEED=%d)\n%!" seed
    seed;
  Alcotest.run "snapshot"
    (List.map
       (fun (e : Cores.entry) ->
         let core = e.Cores.core in
         ( core.Coredef.name,
           List.map
             (fun (name, mode) ->
               Alcotest.test_case name `Quick (run_case core mode))
             [
               ("full", Engine.Full);
               ("event", Engine.Event);
               ("compiled", Engine.Compiled);
             ] ))
       Cores.all)
