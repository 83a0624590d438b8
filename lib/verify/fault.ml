module Bit = Bespoke_logic.Bit
module Netlist = Bespoke_netlist.Netlist
module Gate = Bespoke_netlist.Gate

type kind =
  | Stuck_at of Bit.t
  | Wrong_tie
  | Drop_gate
  | Swap_fn

type t = {
  id : int;
  kind : kind;
  gate : int;
  detectable : bool;
  desc : string;
}

let kind_name = function
  | Stuck_at Bit.Zero -> "stuck-at-0"
  | Stuck_at Bit.One -> "stuck-at-1"
  | Stuck_at Bit.X -> "stuck-at-x"
  | Wrong_tie -> "wrong-tie"
  | Drop_gate -> "dropped-gate"
  | Swap_fn -> "swapped-fn"

let site_desc net gid =
  let g = net.Netlist.gates.(gid) in
  let names =
    match Netlist.names_of net gid with
    | [] -> ""
    | names ->
      let shown = List.filteri (fun i _ -> i < 4) names in
      let extra = List.length names - List.length shown in
      ", aka " ^ String.concat ", " shown
      ^ (if extra > 0 then Printf.sprintf " (+%d more)" extra else "")
  in
  Printf.sprintf "%s gate %d%s%s" (Gate.op_name g.Gate.op) gid
    (if g.Gate.module_path = "" then "" else ", module " ^ g.Gate.module_path)
    names

let swap_op = function
  | Gate.And -> Some Gate.Or
  | Gate.Or -> Some Gate.And
  | Gate.Nand -> Some Gate.Nor
  | Gate.Nor -> Some Gate.Nand
  | Gate.Xor -> Some Gate.Xnor
  | Gate.Xnor -> Some Gate.Xor
  | Gate.Buf -> Some Gate.Not
  | Gate.Not -> Some Gate.Buf
  | _ -> None

let inject net f =
  Netlist.map_gates net (fun id g ->
      if id <> f.gate then g
      else
        match f.kind with
        | Stuck_at v -> { g with Gate.op = Gate.Const v; fanin = [||] }
        | Wrong_tie -> (
          match g.Gate.op with
          | Gate.Const Bit.Zero -> { g with Gate.op = Gate.Const Bit.One }
          | Gate.Const Bit.One -> { g with Gate.op = Gate.Const Bit.Zero }
          | _ -> invalid_arg "Fault.inject: wrong-tie on a non-tie gate")
        | Drop_gate ->
          (* bypass: the gate becomes a buffer of one input (for a mux,
             the sel=0 data input) *)
          let keep =
            match g.Gate.op with
            | Gate.Mux -> g.Gate.fanin.(1)
            | _ -> g.Gate.fanin.(0)
          in
          { g with Gate.op = Gate.Buf; fanin = [| keep |] }
        | Swap_fn -> (
          match g.Gate.op with
          | Gate.Mux ->
            (* swap the data inputs: sel selects the wrong arm *)
            {
              g with
              Gate.fanin =
                [| g.Gate.fanin.(0); g.Gate.fanin.(2); g.Gate.fanin.(1) |];
            }
          | op -> (
            match swap_op op with
            | Some op' -> { g with Gate.op = op' }
            | None -> invalid_arg "Fault.inject: swapped-fn on this gate")))

(* deterministic PRNG (same family as the fuzzer's) so a campaign is
   replayable from its --seed *)
let lcg s = ((s * 1103515245) + 12345) land 0x3FFFFFFF

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    rng := lcg !rng;
    let j = (!rng lsr 7) mod (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The DFFs behind the nets the lockstep comparator reads at every
   instruction boundary (System.reg over the core's architectural
   registers), each mapped to its (register position in [arch_regs],
   bit).  A stuck-at-v on such a DFF is both activated and propagated
   as soon as the fault-free run holds the opposite value at a
   compared boundary: the comparator then reads v where the ISS has
   not-v.  Toggling is not enough — a bit such as the top of the PC
   toggles once during reset and never holds its reset value at a
   boundary. *)
let observed_dffs ~core net =
  let set = Hashtbl.create 64 in
  List.iteri
    (fun k r ->
      match core.Bespoke_coreapi.Coredef.reg_hook r with
      | Some name when Netlist.mem_name net name ->
        Array.iteri
          (fun bit id ->
            match net.Netlist.gates.(id).Gate.op with
            | Gate.Dff _ -> Hashtbl.replace set id (k, bit)
            | _ -> ())
          (Netlist.find_name net name)
      | _ -> ())
    core.Bespoke_coreapi.Coredef.arch_regs;
  set

let generate ?(seed = 1) ~reg_seen ~core ~n ~toggles net =
  let rng = ref (lcg ((seed * 2654435761) lor 1)) in
  let exercised id = id < Array.length toggles && toggles.(id) > 0 in
  let observed = observed_dffs ~core net in
  (* does the fault-free run hold [v] on DFF [gid] at some boundary? *)
  let held gid v =
    match Hashtbl.find_opt observed gid with
    | Some (k, bit) when k < Array.length reg_seen ->
      let seen0, seen1 = reg_seen.(k) in
      (match v with
      | Bit.Zero -> seen0
      | Bit.One -> seen1
      | Bit.X -> 0)
      lsr bit
      land 1
      = 1
    | _ -> false
  in
  let arch = ref [] in
  let stuck = ref [] and ties = ref [] and drops = ref [] and swaps = ref [] in
  Array.iteri
    (fun id (g : Gate.t) ->
      match g.Gate.op with
      | Gate.Input -> ()
      | Gate.Const Bit.Zero | Gate.Const Bit.One -> ties := id :: !ties
      | Gate.Const Bit.X -> ()
      | Gate.Mux ->
        if exercised id then stuck := id :: !stuck;
        drops := id :: !drops;
        swaps := id :: !swaps
      | op ->
        if exercised id then
          if Hashtbl.mem observed id then arch := id :: !arch
          else stuck := id :: !stuck;
        if Gate.arity op >= 2 then drops := id :: !drops;
        if swap_op op <> None then swaps := id :: !swaps)
    net.Netlist.gates;
  let pools =
    [|
      shuffle rng (Array.of_list !arch);
      shuffle rng (Array.of_list !stuck);
      shuffle rng (Array.of_list !ties);
      shuffle rng (Array.of_list !drops);
      shuffle rng (Array.of_list !swaps);
    |]
  in
  let npools = Array.length pools in
  let cursor = Array.make npools 0 in
  let faults = ref [] in
  let count = ref 0 in
  let taken = Hashtbl.create 16 in
  (* round-robin over the kinds, detectable stuck-at sites first,
     skipping exhausted pools and already-used sites *)
  let progressed = ref true in
  while !count < n && !progressed do
    progressed := false;
    for k = 0 to npools - 1 do
      let pool = pools.(k) in
      (* advance past sites already used by another kind *)
      while
        cursor.(k) < Array.length pool
        && Hashtbl.mem taken (pool.(cursor.(k)))
      do
        cursor.(k) <- cursor.(k) + 1
      done;
      if !count < n && cursor.(k) < Array.length pool then begin
        let gid = pool.(cursor.(k)) in
        cursor.(k) <- cursor.(k) + 1;
        Hashtbl.replace taken gid ();
        progressed := true;
        let stuck_value () =
          rng := lcg !rng;
          if (!rng lsr 11) land 1 = 0 then Bit.Zero else Bit.One
        in
        let kind, detectable =
          match k with
          | 0 ->
            let v = stuck_value () in
            (Stuck_at v, held gid (Bit.lnot v))
          | 1 -> (Stuck_at (stuck_value ()), false)
          | 2 -> (Wrong_tie, false)
          | 3 -> (Drop_gate, false)
          | _ -> (Swap_fn, false)
        in
        let f =
          { id = !count; kind; gate = gid; detectable; desc = site_desc net gid }
        in
        faults := f :: !faults;
        incr count
      end
    done
  done;
  List.rev !faults
