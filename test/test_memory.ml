(* Differential test of the dual-rail ternary memory
   (Bespoke_sim.Memory) against Memory_ref, the byte-per-bit model it
   replaced.  Random operation sequences drive both models in lockstep
   — known and X-index reads and writes, X enables and mask bits,
   load, clear, set_x_range, and the snapshot algebra — and every
   result and the whole stored state must agree after every step.

   Memory sizes stay at or below 2048 words (11 index bits): there the
   reference's cut-off (more than 10 free index bits read every word)
   selects exactly the words an exact enumeration does.

   The seed is random per run and printed; replay a failure with

     BESPOKE_FUZZ_SEED=<seed> dune exec test/test_memory.exe *)

module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Memory = Bespoke_sim.Memory

let seed =
  match Sys.getenv_opt "BESPOKE_FUZZ_SEED" with
  | Some s -> int_of_string s
  | None ->
    Random.self_init ();
    Random.bits ()

let steps = 400

let rand_bit st ~px =
  if Random.State.float st 1.0 < px then Bit.X
  else Bit.of_bool (Random.State.bool st)

let rand_vec st ~width ~px = Array.init width (fun _ -> rand_bit st ~px)

(* An address with [k] X bits among the index bits, 0 <= k <= all of
   them; sometimes wider than the index (high bits must be ignored) or
   narrower (missing bits read as 0). *)
let rand_addr st ~idx_bits =
  let width =
    match Random.State.int st 8 with
    | 0 -> max 0 (idx_bits - 2)
    | 1 -> idx_bits + 3
    | _ -> idx_bits
  in
  let a = Array.init width (fun _ -> Bit.of_bool (Random.State.bool st)) in
  let k = Random.State.int st (idx_bits + 1) in
  for _ = 1 to k do
    if width > 0 then a.(Random.State.int st width) <- Bit.X
  done;
  if width > idx_bits && Random.State.bool st then a.(idx_bits) <- Bit.X;
  a

let rand_int st = Random.State.bits st lor (Random.State.bits st lsl 30)

let rand_en st =
  match Random.State.int st 4 with 0 -> Bit.Zero | 1 -> Bit.X | _ -> Bit.One

let run_case ~width ~words () =
  let st = Random.State.make [| seed; width; words |] in
  let idx_bits =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    log2 words
  in
  let init = rand_bit st ~px:0.3 in
  let m = Memory.create ~words ~width ~init in
  let r = Memory_ref.create ~words ~width ~init in
  let step = ref 0 and op = ref "create" in
  let fail fmt =
    Printf.ksprintf
      (fun s ->
        Alcotest.failf
          "width %d, %d words, step %d (%s): %s\n\
           replay: BESPOKE_FUZZ_SEED=%d dune exec test/test_memory.exe"
          width words !step !op s seed)
      fmt
  in
  let check_vec what a b =
    if not (Bvec.equal a b) then
      fail "%s: memory %s, reference %s" what (Bvec.to_string a)
        (Bvec.to_string b)
  in
  let check_state what m r =
    for w = 0 to words - 1 do
      check_vec
        (Printf.sprintf "%s word %d" what w)
        (Memory.read_word m w) (Memory_ref.read_word r w)
    done
  in
  let check_bool what a b =
    if a <> b then fail "%s: memory %b, reference %b" what a b
  in
  (* side memories to inspect a snapshot by restoring it *)
  let m_side = Memory.create ~words ~width ~init:Bit.Zero in
  let r_side = Memory_ref.create ~words ~width ~init:Bit.Zero in
  let check_snap what (s, rs) =
    Memory.restore m_side s;
    Memory_ref.restore r_side rs;
    check_state what m_side r_side
  in
  let snaps = ref [| (Memory.snapshot m, Memory_ref.snapshot r) |] in
  let push p = snaps := Array.append !snaps [| p |] in
  let pick () = !snaps.(Random.State.int st (Array.length !snaps)) in
  (* how X-heavy the random data is varies per step, so states range
     from fully known to mostly X *)
  let px () = [| 0.0; 0.05; 0.3; 0.9 |].(Random.State.int st 4) in
  while !step < steps do
    incr step;
    (match Random.State.int st 16 with
    | 0 | 1 | 2 ->
      op := "read";
      let addr = rand_addr st ~idx_bits in
      check_vec
        ("read at " ^ Bvec.to_string addr)
        (Memory.read m addr) (Memory_ref.read r addr)
    | 3 | 4 | 5 ->
      op := "write";
      let addr = rand_addr st ~idx_bits in
      let data = rand_vec st ~width ~px:(px ()) in
      let mask = rand_vec st ~width ~px:(px ()) in
      let en = rand_en st in
      Memory.write m ~addr ~data ~mask ~en;
      Memory_ref.write r ~addr ~data ~mask ~en
    | 6 ->
      op := "read_word / read_word_int";
      let w = Random.State.int st (2 * words) in
      check_vec "read_word" (Memory.read_word m w) (Memory_ref.read_word r w);
      if Memory.read_word_int m w <> Memory_ref.read_word_int r w then
        fail "read_word_int %d differs" w
    | 7 ->
      op := "write_masked_int";
      let w = Random.State.int st (2 * words) in
      let data = rand_int st and mask = rand_int st in
      Memory.write_masked_int m w ~data ~mask;
      Memory_ref.write_masked_int r w ~data ~mask
    | 8 ->
      op := "load / load_int";
      let w = Random.State.int st (2 * words) in
      if Random.State.bool st then begin
        let v = rand_vec st ~width ~px:(px ()) in
        Memory.load m w v;
        Memory_ref.load r w v
      end
      else begin
        let n = rand_int st in
        Memory.load_int m w n;
        Memory_ref.load_int r w n
      end
    | 9 ->
      op := "clear / set_x_range";
      if Random.State.int st 4 = 0 then begin
        let b = rand_bit st ~px:0.3 in
        Memory.clear m b;
        Memory_ref.clear r b
      end
      else begin
        let lo = Random.State.int st (2 * words) in
        let hi = lo + Random.State.int st (min words 64) in
        Memory.set_x_range m ~lo ~hi;
        Memory_ref.set_x_range r ~lo ~hi
      end
    | 10 ->
      op := "snapshot";
      push (Memory.snapshot m, Memory_ref.snapshot r)
    | 11 ->
      op := "restore";
      let s, rs = pick () in
      Memory.restore m s;
      Memory_ref.restore r rs
    | 12 ->
      op := "merge_snapshot";
      let (a, ra) = pick () and (b, rb) = pick () in
      let merged = (Memory.merge_snapshot a b, Memory_ref.merge_snapshot ra rb) in
      check_snap "merged snapshot" merged;
      check_bool "merge subsumes its left operand"
        (Memory.subsumes ~general:(fst merged) ~specific:a)
        (Memory_ref.subsumes ~general:(snd merged) ~specific:ra);
      push merged
    | 13 ->
      op := "subsumes";
      let (a, ra) = pick () and (b, rb) = pick () in
      check_bool "subsumes"
        (Memory.subsumes ~general:a ~specific:b)
        (Memory_ref.subsumes ~general:ra ~specific:rb)
    | 14 ->
      op := "consistent_snapshots";
      let (a, ra) = pick () and (b, rb) = pick () in
      check_bool "consistent_snapshots"
        (Memory.consistent_snapshots a b)
        (Memory_ref.consistent_snapshots ra rb)
    | _ ->
      op := "equal_snapshot";
      let (a, ra) = pick () in
      let (b, rb) =
        if Random.State.bool st then (a, ra)
        else (Memory.snapshot m, Memory_ref.snapshot r)
      in
      check_bool "equal_snapshot" (Memory.equal_snapshot a b)
        (Memory_ref.equal_snapshot ra rb));
    check_state "state" m r
  done

let () =
  Printf.printf "test_memory: seed %d (replay: BESPOKE_FUZZ_SEED=%d)\n%!" seed
    seed;
  let cases =
    List.concat_map
      (fun width ->
        List.map
          (fun words ->
            Alcotest.test_case
              (Printf.sprintf "width %d, %d words" width words)
              `Quick (run_case ~width ~words))
          [ 16; 256; 2048 ])
      [ 8; 16; 32 ]
  in
  Alcotest.run "memory" [ ("differential", cases) ]
