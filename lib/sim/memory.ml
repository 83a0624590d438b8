module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Obs = Bespoke_obs.Obs

(* Dual-rail store: word [w] is entry [2w] ("bit may be 0") and entry
   [2w + 1] ("bit may be 1") of [planes].  A known bit sets one rail, X
   sets both, and no bit of the word's width ever has neither; bits
   above the width are 0 on both rails.  Merging is [lor] on the
   rails, and a snapshot is a copy of [planes].  Entries are native
   ints stored as 8 bytes each: a [Bytes.t] is copied with one memcpy
   and never scanned by the GC, which an [int array] of the same size
   (32 KiB for 2048 words) would be on every major cycle. *)
type t = {
  planes : Bytes.t;
  words : int;
  width : int;
  full : int;  (* the [width] low bits set *)
  idx_bits : int;  (* log2 words *)
}

type snapshot = Bytes.t

let get b i = Int64.to_int (Bytes.get_int64_ne b (8 * i))
let set b i v = Bytes.set_int64_ne b (8 * i) (Int64.of_int v)
let entries b = Bytes.length b / 8

let m_x_reads = Obs.Metrics.counter "sim.memory.x_reads"
let m_x_read_words = Obs.Metrics.counter "sim.memory.x_read_words"

let is_pow2 n = n > 0 && n land (n - 1) = 0

(* A rail of a ternary vector: bit [i] is set unless bit [i] of [v] is
   [absent].  The "may be 0" rail is [rail v Bit.One], the "may be 1"
   rail [rail v Bit.Zero]. *)
let rail (v : Bvec.t) absent =
  let r = ref 0 in
  for i = Array.length v - 1 downto 0 do
    r := (!r lsl 1) lor (if Bit.equal v.(i) absent then 0 else 1)
  done;
  !r

let to_bvec t ~lo ~hi : Bvec.t =
  let v = Array.make t.width Bit.Zero in
  for i = 0 to t.width - 1 do
    if (hi lsr i) land 1 = 1 then
      v.(i) <- (if (lo lsr i) land 1 = 0 then Bit.One else Bit.X)
  done;
  v

let set_word t w ~lo ~hi =
  let w = w land (t.words - 1) in
  set t.planes (2 * w) lo;
  set t.planes ((2 * w) + 1) hi

let clear t b =
  let lo = if Bit.equal b Bit.One then 0 else t.full in
  let hi = if Bit.equal b Bit.Zero then 0 else t.full in
  for w = 0 to t.words - 1 do
    set_word t w ~lo ~hi
  done

let create ~words ~width ~init =
  if not (is_pow2 words) then invalid_arg "Memory.create: words not a power of 2";
  if width < 1 || width >= Sys.int_size then
    invalid_arg "Memory.create: width out of range";
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let t =
    { planes = Bytes.create (16 * words); words; width;
      full = (1 lsl width) - 1; idx_bits = log2 words }
  in
  clear t init;
  t

let words t = t.words
let width t = t.width

let load t w (v : Bvec.t) =
  if Bvec.width v <> t.width then invalid_arg "Memory.load: width mismatch";
  set_word t w ~lo:(rail v Bit.One) ~hi:(rail v Bit.Zero)

let load_int t w n =
  let n = n land t.full in
  set_word t w ~lo:(lnot n land t.full) ~hi:n

let read_word t w =
  let w = w land (t.words - 1) in
  to_bvec t ~lo:(get t.planes (2 * w)) ~hi:(get t.planes ((2 * w) + 1))

let read_word_int t w =
  let w = w land (t.words - 1) in
  let lo = get t.planes (2 * w) and hi = get t.planes ((2 * w) + 1) in
  if lo land hi = 0 then Some hi else None

let write_masked_int t w ~data ~mask =
  let w = w land (t.words - 1) in
  let mask = mask land t.full in
  let data = data land mask in
  let i = 2 * w in
  set t.planes i ((get t.planes i land lnot mask) lor (mask land lnot data));
  set t.planes (i + 1) ((get t.planes (i + 1) land lnot mask) lor data)

let set_x_range t ~lo ~hi =
  for w = lo to hi do
    set_word t w ~lo:t.full ~hi:t.full
  done

(* The words a ternary address can select, as [(base, free)]: every
   [base lor s] with [s] a subset of [free].  Addresses wrap modulo
   the size, so only the low [idx_bits] bits matter; missing high
   address bits read as 0. *)
let index_pattern t (addr : Bvec.t) =
  let base = ref 0 and free = ref 0 in
  for i = 0 to min t.idx_bits (Array.length addr) - 1 do
    match addr.(i) with
    | Bit.Zero -> ()
    | Bit.One -> base := !base lor (1 lsl i)
    | Bit.X -> free := !free lor (1 lsl i)
  done;
  (!base, !free)

(* [f] on every index of an address pattern, enumerating the subsets
   of [free] from [free] down to 0. *)
let iter_pattern (base, free) f =
  let sub = ref free and more = ref true in
  while !more do
    f (base lor !sub);
    if !sub = 0 then more := false else sub := (!sub - 1) land free
  done

let rec popcount n = if n = 0 then 0 else 1 + popcount (n land (n - 1))

let read t (addr : Bvec.t) =
  match index_pattern t addr with
  | base, 0 -> read_word t base
  | (_, free) as pattern ->
    if Obs.enabled () then begin
      Obs.Metrics.incr m_x_reads;
      Obs.Metrics.add m_x_read_words (1 lsl popcount free)
    end;
    let lo = ref 0 and hi = ref 0 in
    iter_pattern pattern (fun w ->
        lo := !lo lor get t.planes (2 * w);
        hi := !hi lor get t.planes ((2 * w) + 1));
    to_bvec t ~lo:!lo ~hi:!hi

let write t ~addr ~data ~mask ~en =
  if Bvec.width data <> t.width || Bvec.width mask <> t.width then
    invalid_arg "Memory.write: width mismatch";
  match en with
  | Bit.Zero -> ()
  | Bit.One | Bit.X ->
    let ((_, free) as pattern) = index_pattern t addr in
    (* Each stored bit keeps its old value wherever the write may not
       happen to it, and takes the data wherever it may.  A write with
       an X enable or an X index may miss any single cell, so there
       the old value always survives. *)
    let keep =
      if free = 0 && Bit.equal en Bit.One then rail mask Bit.One else t.full
    in
    let take = rail mask Bit.Zero in
    let dlo = rail data Bit.One land take and dhi = rail data Bit.Zero land take in
    iter_pattern pattern (fun w ->
        let i = 2 * w in
        set t.planes i ((get t.planes i land keep) lor dlo);
        set t.planes (i + 1) ((get t.planes (i + 1) land keep) lor dhi))

let snapshot t = Bytes.copy t.planes

let restore t s =
  if Bytes.length s <> Bytes.length t.planes then
    invalid_arg "Memory.restore: size mismatch";
  Bytes.blit s 0 t.planes 0 (Bytes.length s)

let merge_snapshot a b =
  if Bytes.length a <> Bytes.length b then
    invalid_arg "Memory.merge_snapshot: size mismatch";
  let m = Bytes.create (Bytes.length a) in
  for i = 0 to entries a - 1 do
    set m i (get a i lor get b i)
  done;
  m

(* Every rail [specific] sets, [general] sets too. *)
let subsumes ~general ~specific =
  let rec from i =
    i = entries general
    || (get specific i land lnot (get general i) = 0 && from (i + 1))
  in
  Bytes.length general = Bytes.length specific && from 0

let equal_snapshot = Bytes.equal

(* A bit is consistent when its two value sets intersect; a bit of the
   width always has a rail in [a], bits above it have none. *)
let consistent_snapshots a b =
  let rec from i =
    i = entries a
    ||
    let alo = get a i and ahi = get a (i + 1) in
    let common = (alo land get b i) lor (ahi land get b (i + 1)) in
    (alo lor ahi) land lnot common = 0 && from (i + 2)
  in
  Bytes.length a = Bytes.length b && from 0
