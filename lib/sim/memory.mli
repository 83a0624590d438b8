(** Ternary word-addressed memory model (program ROM / data RAM).

    Memories are external to the pruned netlist (the paper tailors the
    core's gates, not the SRAM macros), so the simulator models them
    behaviorally with conservative ternary semantics:

    - read at a known index: the stored word (bits may be X);
    - read at an index with X bits: the merge of every word the index
      pattern could select;
    - write with X write-enable or X mask bits: old and new values are
      merged (the write may or may not happen);
    - write at an index with X bits: every word the pattern could
      select merges in the (masked) data.

    All of which over-approximates the set of reachable memory states,
    keeping Algorithm 1 sound.

    {1 Representation and cost}

    Each word is stored dual-rail, as two [int]s: a "bit may be 0"
    plane and a "bit may be 1" plane (a known bit sets one rail, X
    sets both).  So [width] is limited to [Sys.int_size - 1] bits.

    - Known-index accesses are word-level: one or two [int] loads or
      stores, plus building or reading the [width]-bit {!Bvec.t} at
      the interface.
    - An index with [k] X bits selects exactly [2^k] words, enumerated
      as the subsets of the free-bit mask (no cut-off).  A read ORs
      their rails, two [int] loads per word and no allocation per
      word; a write updates two [int]s per word.  On a 2048-word
      memory an all-X index costs 2048 iterations of that loop.
    - The planes live in one byte buffer, 8 bytes per [int] entry, so
      a snapshot is a copy of [2 * words] entries (32 KiB for 2048
      words) that the GC never scans.  {!snapshot} and {!restore} are
      one memcpy, {!merge_snapshot} a [lor] per entry, and {!subsumes}
      checks [specific land lnot general = 0] per entry.

    With telemetry on, every read at an X index adds 1 to the
    [sim.memory.x_reads] counter and the number of words it selects
    to [sim.memory.x_read_words]. *)

module Bit := Bespoke_logic.Bit
module Bvec := Bespoke_logic.Bvec

type t

val create : words:int -> width:int -> init:Bit.t -> t
(** [words] must be a power of two; indices wrap modulo [words]. *)

val words : t -> int
val width : t -> int
val clear : t -> Bit.t -> unit

(** {1 Direct (known-index) access, for program loading and harnesses} *)

val load : t -> int -> Bvec.t -> unit
val load_int : t -> int -> int -> unit
val read_word : t -> int -> Bvec.t

val read_word_int : t -> int -> int option
(** Allocation-free fast path for harness inner loops: the stored word
    as an integer, [None] if any bit is X. *)

val write_masked_int : t -> int -> data:int -> mask:int -> unit
(** Fully-known write fast path: store bit [i] of [data] wherever bit
    [i] of [mask] is set.  Semantically identical to {!write} with a
    known index, known data, a definite per-bit mask and [en = One]. *)

val set_x_range : t -> lo:int -> hi:int -> unit
(** Mark an inclusive word-index range unknown (application-input
    regions during symbolic analysis). *)

(** {1 Ternary port access} *)

val read : t -> Bvec.t -> Bvec.t

val write : t -> addr:Bvec.t -> data:Bvec.t -> mask:Bvec.t -> en:Bit.t -> unit
(** [mask] is a per-bit write mask of the memory width (byte lanes
    expanded by the caller); a mask bit of [Zero] leaves the stored bit
    unchanged, [One] writes it, [X] merges. *)

(** {1 State capture (execution-tree exploration)} *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
val merge_snapshot : snapshot -> snapshot -> snapshot
val subsumes : general:snapshot -> specific:snapshot -> bool
val equal_snapshot : snapshot -> snapshot -> bool

(** [consistent_snapshots a b]: no bit is definite in both snapshots
    with different values (X is compatible with anything). *)
val consistent_snapshots : snapshot -> snapshot -> bool
