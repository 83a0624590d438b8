(* Reference model for the differential memory test: the byte-per-bit
   ternary memory the simulator used before its dual-rail rewrite, kept
   verbatim apart from this header (one Bit.t code per byte, List-based
   candidate expansion).  Only test/test_memory.ml uses it; it defines
   the semantics the packed Bespoke_sim.Memory must reproduce. *)

module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec

type t = { store : Bytes.t; words : int; width : int }
type snapshot = Bytes.t

let is_pow2 n = n > 0 && n land (n - 1) = 0

let create ~words ~width ~init =
  if not (is_pow2 words) then invalid_arg "Memory.create: words not a power of 2";
  { store = Bytes.make (words * width) (Char.chr (Bit.to_int init)); words; width }

let words t = t.words
let width t = t.width

let clear t b =
  Bytes.fill t.store 0 (Bytes.length t.store) (Char.chr (Bit.to_int b))

let get t w i = Bit.of_int_exn (Char.code (Bytes.get t.store ((w * t.width) + i)))
let put t w i b = Bytes.set t.store ((w * t.width) + i) (Char.chr (Bit.to_int b))

let load t w (v : Bvec.t) =
  if Bvec.width v <> t.width then invalid_arg "Memory.load: width mismatch";
  let w = w land (t.words - 1) in
  Array.iteri (fun i b -> put t w i b) v

let load_int t w n = load t w (Bvec.of_int ~width:t.width n)
let read_word t w = Array.init t.width (get t (w land (t.words - 1)))

let read_word_int t w =
  let w = w land (t.words - 1) in
  let base = w * t.width in
  let v = ref 0 and known = ref true in
  for i = t.width - 1 downto 0 do
    let c = Char.code (Bytes.unsafe_get t.store (base + i)) in
    if c > 1 then known := false else v := (!v lsl 1) lor c
  done;
  if !known then Some !v else None

let write_masked_int t w ~data ~mask =
  let w = w land (t.words - 1) in
  let base = w * t.width in
  for i = 0 to t.width - 1 do
    if (mask lsr i) land 1 = 1 then
      Bytes.unsafe_set t.store (base + i)
        (Char.unsafe_chr ((data lsr i) land 1))
  done

let set_x_range t ~lo ~hi =
  for w = lo to hi do
    for i = 0 to t.width - 1 do
      put t (w land (t.words - 1)) i Bit.X
    done
  done

(* Indices selectable by a ternary address (address wraps modulo the
   size, so only the low log2(words) bits matter). *)
let candidate_indices t (addr : Bvec.t) =
  let bits = ref [] in
  let idx_bits =
    let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
    log2 t.words
  in
  let base = ref 0 in
  let known = Bvec.width addr in
  for i = 0 to idx_bits - 1 do
    let b = if i < known then addr.(i) else Bit.Zero in
    match b with
    | Bit.Zero -> ()
    | Bit.One -> base := !base lor (1 lsl i)
    | Bit.X -> bits := i :: !bits
  done;
  (!base, !bits)

let all_indices t = List.init t.words (fun i -> i)

let expand t base free_bits =
  if List.length free_bits > 10 then all_indices t
  else
    List.fold_left
      (fun acc bit -> List.concat_map (fun w -> [ w; w lor (1 lsl bit) ]) acc)
      [ base ] free_bits

let read t (addr : Bvec.t) =
  let base, free = candidate_indices t addr in
  match free with
  | [] -> read_word t base
  | _ ->
    let idxs = expand t base free in
    let acc = read_word t (List.hd idxs) in
    List.iter
      (fun w ->
        let v = read_word t w in
        Array.iteri (fun i b -> acc.(i) <- Bit.merge acc.(i) b) v)
      (List.tl idxs);
    acc

let write_cell t w (data : Bvec.t) (mask : Bvec.t) ~(certain : bool) =
  for i = 0 to t.width - 1 do
    let old = get t w i in
    let updated =
      match mask.(i) with
      | Bit.Zero -> old
      | Bit.One -> data.(i)
      | Bit.X -> Bit.merge old data.(i)
    in
    let v = if certain then updated else Bit.merge old updated in
    put t w i v
  done

let write t ~addr ~data ~mask ~en =
  if Bvec.width data <> t.width || Bvec.width mask <> t.width then
    invalid_arg "Memory.write: width mismatch";
  match en with
  | Bit.Zero -> ()
  | Bit.One | Bit.X ->
    let certain_en = Bit.equal en Bit.One in
    let base, free = candidate_indices t addr in
    (match free with
    | [] -> write_cell t base data mask ~certain:certain_en
    | _ ->
      (* The write lands on exactly one of the candidates, so from any
         single cell's point of view it is uncertain. *)
      List.iter
        (fun w -> write_cell t w data mask ~certain:false)
        (expand t base free))

let snapshot t = Bytes.copy t.store

let restore t s =
  if Bytes.length s <> Bytes.length t.store then
    invalid_arg "Memory.restore: size mismatch";
  Bytes.blit s 0 t.store 0 (Bytes.length s)

let merge_snapshot a b =
  if Bytes.length a <> Bytes.length b then
    invalid_arg "Memory.merge_snapshot: size mismatch";
  Bytes.init (Bytes.length a) (fun i ->
      let x = Char.code (Bytes.get a i) and y = Char.code (Bytes.get b i) in
      Char.chr Bit.tbl_merge.((x * 3) + y))

let subsumes ~general ~specific =
  Bytes.length general = Bytes.length specific
  &&
  let ok = ref true in
  for i = 0 to Bytes.length general - 1 do
    let g = Char.code (Bytes.get general i)
    and s = Char.code (Bytes.get specific i) in
    if g <> Bit.code_x && g <> s then ok := false
  done;
  !ok

let equal_snapshot = Bytes.equal

let consistent_snapshots a b =
  Bytes.length a = Bytes.length b
  &&
  let ok = ref true in
  for i = 0 to Bytes.length a - 1 do
    let x = Char.code (Bytes.get a i) and y = Char.code (Bytes.get b i) in
    if x <> y && x <> Bit.code_x && y <> Bit.code_x then ok := false
  done;
  !ok
