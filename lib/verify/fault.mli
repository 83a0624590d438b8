(** Adversarial fault injection: structural single-fault mutants of a
    bespoke netlist, used to measure the verification campaign's
    ability to detect a broken tailoring (the mutation-score
    methodology of Milu / KLEE's replay validation, applied to the
    netlist instead of the source).

    Every fault changes exactly one gate:

    - {b stuck-at-0/1}: a kept gate's output is tied to a constant;
    - {b wrong-tie}: a tie cell left behind by cutting (the constant a
      cut gate's fanout was stitched to) gets the opposite value;
    - {b dropped-gate}: a multi-input gate is bypassed by a buffer of
      one of its inputs, as if it had been lost in re-synthesis;
    - {b swapped-function}: the gate computes a sibling function
      (and<->or, nand<->nor, xor<->xnor, buf<->not, mux data swap).

    A fault is {e detectable} when it is a stuck-at-v on an exercised
    (positive toggle count) DFF behind a net the lockstep comparator
    observes at every instruction boundary (the core's hooked
    architectural registers — PC, SP, SR, R4-R15 on MSP430), and the
    fault-free run holds not-v on that DFF at some compared boundary:
    the stuck value is then both activated and propagated to a
    compared net.  The campaign asserts a 100% kill rate over
    detectable faults; stuck-ats on other exercised gates
    and the remaining classes may be logically masked or functionally
    equivalent (a dead tie, a redundant gate) and are reported
    honestly as killed/survived. *)

module Netlist := Bespoke_netlist.Netlist

type kind =
  | Stuck_at of Bespoke_logic.Bit.t
  | Wrong_tie
  | Drop_gate
  | Swap_fn

type t = {
  id : int;
  kind : kind;
  gate : int;  (** gate id in the bespoke netlist *)
  detectable : bool;
      (** stuck-at-v on an exercised, boundary-observed state bit that
          the fault-free run holds at not-v on a compared boundary:
          guaranteed activated and propagated, must be killed *)
  desc : string;  (** human-readable site description *)
}

val kind_name : kind -> string
(** ["stuck-at-0"], ["stuck-at-1"], ["wrong-tie"], ["dropped-gate"],
    ["swapped-fn"]. *)

val inject : Netlist.t -> t -> Netlist.t
(** The faulty variant: the same netlist with the one gate replaced.
    The result still validates. *)

val generate :
  ?seed:int -> reg_seen:(int * int) array -> core:Bespoke_coreapi.Coredef.t ->
  n:int -> toggles:int array -> Netlist.t -> t list
(** Up to [n] faults, deterministically drawn (PRNG [seed], default 1)
    from the candidate sites of every kind, stuck-at sites first.
    [core] supplies the boundary-observed register nets that make a
    stuck-at detectable; [reg_seen] (the union of
    {!Bespoke_coreapi.Lockstep.result.reg_seen} over the fault-free
    runs) says which values each of their bits held at some compared
    boundary — with none recorded, no stuck-at is detectable.
    [toggles] are per-gate toggle counts from a fault-free
    co-simulated run of the same netlist; stuck-at sites are
    restricted to exercised gates. *)
