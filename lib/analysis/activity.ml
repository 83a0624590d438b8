module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Engine = Bespoke_sim.Engine
module Memory = Bespoke_sim.Memory
module Coredef = Bespoke_coreapi.Coredef
module System = Bespoke_coreapi.System
module Obs = Bespoke_obs.Obs

(* Execution-tree telemetry (no-ops unless Obs is enabled), flushed
   once per [analyze] call.  Sub-phase spans inside [analysis.analyze]
   (segment, snapshot, restore, subsume, merge, fork) account for where
   its time goes. *)
let m_branches = Obs.Metrics.counter "analysis.branches"
let m_merges = Obs.Metrics.counter "analysis.merges"
let m_prunes = Obs.Metrics.counter "analysis.prunes"
let m_paths = Obs.Metrics.counter "analysis.paths"
let m_cycles = Obs.Metrics.counter "analysis.cycles"

type config = {
  gpio_x : bool;
  irq_x : bool;
  ram_x_ranges : (int * int) list;
  max_total_cycles : int;
  max_paths : int;
  max_pc_candidates : int;
  computed_branch_fallback : [ `Escape | `Enumerate ];
  key_refinement : [ `Pc_only | `Pc_gie | `Full ];
  verbose : bool;
  probe : (System.t -> unit) option;
}

let default_config =
  {
    gpio_x = true;
    irq_x = true;
    ram_x_ranges = [];
    max_total_cycles = 3_000_000;
    max_paths = 20_000;
    max_pc_candidates = 1024;
    computed_branch_fallback = `Escape;
    key_refinement = `Full;
    verbose = false;
    probe = None;
  }

type first_toggle = { ft_cycle : int; ft_node : int; ft_pc : int }

type tree_node = {
  node_id : int;
  parent : int;
  edge_label : string;
  start_pc : int;
  mutable end_pc : int;
  mutable end_kind : string;
  mutable node_cycles : int;
}

type report = {
  possibly_toggled : bool array;
  constant_values : Bit.t array;
  paths : int;
  merges : int;
  prunes : int;
  total_cycles : int;
  halted_paths : int;
  escaped_paths : int;
  first_toggle : first_toggle option array;
  tree : tree_node array;
}

exception Analysis_error of string
exception Shadow_mismatch of string

let fail fmt = Printf.ksprintf (fun s -> raise (Analysis_error s)) fmt
let mismatch fmt = Printf.ksprintf (fun s -> raise (Shadow_mismatch s)) fmt

(* Slots of specific architectural bits inside a snapshot's DFF
   planes, for forcing forked values.  In a bespoke (pruned) netlist
   some hook bits are constants rather than DFFs; those get slot -1
   and forcing skips them (a reachable forced value always agrees with
   the constant the cut recorded). *)
let dff_positions sys net hook =
  Array.map (Engine.dff_slot (System.engine sys)) (Netlist.find_name net hook)

type entry = {
  snap : System.snapshot;
  snap_sh : System.snapshot option;
  candidates : int list;  (* recorded jump targets if PC is unknown *)
  skip_table : bool;  (* fork children continue the merged state *)
  node : tree_node;  (* execution-tree node this entry continues *)
}

let analyze_impl ?(config = default_config) ?shadow sys =
  let net = System.netlist sys in
  let eng = System.engine sys in
  let core = System.core sys in
  let image = System.image sys in
  let rom = image.Coredef.rom in
  let rom_word a =
    if Coredef.in_rom core a then rom.((a - core.Coredef.rom_base) lsr core.Coredef.addr_shift)
    else 0
  in
  let classify ~pc =
    try core.Coredef.classify ~rom_word ~pc with Failure m -> fail "%s" m
  in
  let pc_pos = dff_positions sys net "pc" in
  let pc_width = Array.length pc_pos in
  let ifg0_pos = lazy (dff_positions sys net "irq_flag").(0) in
  let gie_pos =
    lazy
      (match core.Coredef.gie_bit with
      | Some (hook, bit) -> (dff_positions sys net hook).(bit)
      | None -> -1)
  in
  let pc_pos_sh =
    lazy
      (match shadow with
      | Some sh -> dff_positions sh (System.netlist sh) "pc"
      | None -> [||])
  in
  let ifg0_pos_sh =
    lazy
      (match shadow with
      | Some sh -> (dff_positions sh (System.netlist sh) "irq_flag").(0)
      | None -> -1)
  in
  let gie_pos_sh =
    lazy
      (match shadow, core.Coredef.gie_bit with
      | Some sh, Some (hook, bit) ->
        (dff_positions sh (System.netlist sh) hook).(bit)
      | _ -> -1)
  in
  let ie0_pos = lazy (dff_positions sys net "irq_enable").(0) in
  let ie0_pos_sh =
    lazy
      (match shadow with
      | Some sh -> (dff_positions sh (System.netlist sh) "irq_enable").(0)
      | None -> -1)
  in
  (* Valid fork targets for X-bit PC enumeration: actual instruction
     start addresses of the binary (mid-instruction words are not
     reachable boundaries of any concrete execution). *)
  let insn_starts =
    let tbl = Hashtbl.create 256 in
    List.iter (fun a -> Hashtbl.replace tbl a ()) image.Coredef.insn_addrs;
    tbl
  in
  let merges = ref 0 in
  let forks = ref 0 in
  let prunes = ref 0 in
  let paths = ref 0 in
  let halted_paths = ref 0 in
  let escaped_paths = ref 0 in
  let total_cycles = ref 0 in
  (* -- provenance: first-toggle attribution + execution tree -- *)
  let first_toggle = Array.make (Netlist.gate_count net) None in
  let nodes = ref [] in
  let node_count = ref 0 in
  let new_node ~parent ~edge ~start_pc =
    let n =
      {
        node_id = !node_count;
        parent;
        edge_label = edge;
        start_pc;
        end_pc = -1;
        end_kind = "open";
        node_cycles = 0;
      }
    in
    incr node_count;
    nodes := n :: !nodes;
    n
  in
  let root = new_node ~parent:(-1) ~edge:"reset" ~start_pc:(-1) in
  let cur_node = ref root in
  let cur_pc = ref (-1) in
  Engine.set_first_possibly_hook eng
    (Some
       (fun id ->
         match first_toggle.(id) with
         | Some _ -> ()
         | None ->
           first_toggle.(id) <-
             Some
               {
                 ft_cycle = !total_cycles;
                 ft_node = (!cur_node).node_id;
                 ft_pc = !cur_pc;
               }));
  Fun.protect ~finally:(fun () -> Engine.set_first_possibly_hook eng None)
  @@ fun () ->
  (* -- initialization -- *)
  let init_system s =
    System.reset s;
    if config.gpio_x then System.set_gpio_in_x s
    else System.set_gpio_in_int s 0;
    System.set_irq s (if config.irq_x then Bit.X else Bit.Zero);
    List.iter
      (fun (lo, hi) -> System.set_ram_x s ~lo_addr:lo ~hi_addr:hi)
      config.ram_x_ranges
  in
  init_system sys;
  Option.iter init_system shadow;
  let constant_values = Engine.snapshot_values eng in
  (* Conservative-state table keyed by (pc, GIE, stack context).
     Keeping interrupt-enabled/-disabled contexts and different stack
     contexts (SP bits 15:4) apart stops the merge from smearing one
     task's state into another's through shared code (handlers,
     context switches), which would otherwise drive SP to full X and
     make every X-address store conservatively touch the whole
     peripheral file.  Finer keys mean strictly less merging, so this
     only refines (never weakens) the paper's conservative scheme. *)
  let table :
      ( int * int * int * (int * int),
        System.snapshot * System.snapshot option )
      Hashtbl.t =
    Hashtbl.create 256
  in
  let sp_bucket () =
    match core.Coredef.sp_reg with
    | None -> 0
    | Some sp -> (
      let v = System.reg sys sp in
      match Bvec.to_int (Array.sub v 4 (Array.length v - 4)) with
      | Some b -> b
      | None -> -1)
  in
  let gie_value () =
    match core.Coredef.gie_bit with
    | Some (hook, bit) -> Bit.to_int (System.read_hook sys hook).(bit)
    | None -> 0
  in
  (* For instructions that load PC from memory (returns), the return
     context — the core-defined key words, e.g. the stack top — is
     part of the key: states returning to different places are never
     merged, so each continues to its concrete target instead of
     producing an X program counter. *)
  let ret_context pcv =
    core.Coredef.ret_context ~rom_word
      ~read_reg:(fun r -> Bvec.to_int (System.reg sys r))
      ~read_ram_word:(fun a -> Bvec.to_int (System.read_ram_word sys a))
      ~pc:pcv
  in
  let table_key pcv =
    match config.key_refinement with
    | `Pc_only -> (pcv, 0, 0, (0, 0))
    | `Pc_gie -> (pcv, gie_value (), 0, (0, 0))
    | `Full -> (pcv, gie_value (), sp_bucket (), ret_context pcv)
  in
  let stack : entry Stack.t = Stack.create () in
  let log fmt =
    if config.verbose then Printf.eprintf (fmt ^^ "\n%!")
    else Printf.ifprintf stderr fmt
  in

  (* Re-synthesized logic is functionally equivalent but not ternary-
     precision-identical (X can propagate differently through an
     equivalent gate structure), so the check is consistency: no bit
     may be definite in both designs with different values. *)
  let consistent a b =
    Array.for_all2
      (fun x y -> Bit.equal x y || not (Bit.is_known x && Bit.is_known y))
      a b
  in
  let compare_shadow context =
    match shadow with
    | None -> ()
    | Some sh ->
      List.iter
        (fun r ->
          let a = System.reg sys r and b = System.reg sh r in
          if not (consistent a b) then
            mismatch "%s: %s differs: original %s, bespoke %s" context
              (core.Coredef.reg_name r) (Bvec.to_string a) (Bvec.to_string b))
        core.Coredef.arch_regs;
      if System.halted sys <> System.halted sh then
        mismatch "%s: halt state differs" context
  in
  let compare_shadow_ram context =
    match shadow with
    | None -> ()
    | Some sh ->
      let ra = System.snapshot_ram (System.snapshot sys) in
      let rb = System.snapshot_ram (System.snapshot sh) in
      if not (Memory.consistent_snapshots ra rb) then
        mismatch "%s: data memory differs at path end" context
  in

  let snapshot_both () =
    Obs.Span.with_ ~name:"analysis.snapshot" @@ fun () ->
    (System.snapshot sys, Option.map System.snapshot shadow)
  in
  let restore_both (s, s_sh) =
    Obs.Span.with_ ~name:"analysis.restore" @@ fun () ->
    System.restore sys s;
    (match shadow, s_sh with
    | Some sh, Some ss -> System.restore sh ss
    | None, _ -> ()
    | Some _, None -> fail "internal: missing shadow snapshot")
  in
  let subsumes ~general ~specific =
    Obs.Span.with_ ~name:"analysis.subsume" @@ fun () ->
    System.snapshot_subsumes ~general ~specific
  in

  let force_both (s, s_sh) ~pos ~pos_sh value =
    ( System.force_dffs s pos value,
      match s_sh with
      | None -> None
      | Some ss -> Some (System.force_dffs ss pos_sh value) )
  in

  (* Simulate from the current (settled, boundary) state to the next
     instruction boundary.  Returns the recorded conditional-jump
     candidates if the branch decision was unknown.  The per-cycle
     hooks are read through gate ids resolved here, once. *)
  let hook_id name = (Netlist.find_name net name).(0) in
  let exec_jump = hook_id "exec_jump"
  and branch_taken = hook_id "branch_taken"
  and insn_boundary = hook_id "insn_boundary"
  and irq_pending = hook_id "irq_pending"
  and pc_ids = Netlist.find_name net "pc" in
  let simulate_segment () =
    let candidates = ref [] in
    let rec go budget =
      if budget = 0 then fail "instruction did not complete in 20 cycles";
      System.step_cycle sys;
      Option.iter System.step_cycle shadow;
      Option.iter (fun f -> f sys) config.probe;
      incr total_cycles;
      (!cur_node).node_cycles <- (!cur_node).node_cycles + 1;
      if !total_cycles > config.max_total_cycles then
        fail "exceeded max_total_cycles (%d)" config.max_total_cycles;
      (* record candidate targets at an unknown branch decision *)
      if Engine.value_code eng exec_jump <> 0 then begin
        let taken = Engine.value_code eng branch_taken in
        if config.verbose then
          log "exec_jump: taken=%c" (Bit.to_char (Bit.of_int_exn taken));
        if taken = Bit.code_x then
          match
            ( System.read_hook_int sys "branch_target",
              System.read_hook_int sys "branch_fallthrough" )
          with
          | Some t, Some f -> candidates := [ t; f ]
          | _ -> ()
      end;
      if System.halted sys then `Halted
      else
        match Engine.value_code eng insn_boundary with
        | 1 -> `Boundary
        | 0 -> go (budget - 1)
        | _ ->
          fail "FSM state became unknown (pc %s)" (Bvec.to_string (System.pc sys))
    in
    let r = Obs.Span.with_ ~name:"analysis.segment" (fun () -> go 20) in
    (r, !candidates)
  in

  (* Process one stack entry: run its path until pruned / halted /
     forked. *)
  let run_path (e : entry) =
    incr paths;
    if !paths > config.max_paths then fail "exceeded max_paths";
    restore_both (e.snap, e.snap_sh);
    let nd = e.node in
    cur_node := nd;
    cur_pc := -1;
    let finish kind =
      nd.end_kind <- kind;
      nd.end_pc <- !cur_pc
    in
    let skip_table = ref e.skip_table in
    let candidates = ref e.candidates in
    let finished = ref false in
    while not !finished do
      if System.halted sys then begin
        incr halted_paths;
        compare_shadow "halted path";
        compare_shadow_ram "halted path";
        finish "halted";
        finished := true
      end
      else begin
        compare_shadow "boundary";
        match Engine.read_int_ids eng pc_ids with
        | None when !candidates = [] && config.computed_branch_fallback = `Escape
          ->
          (* a computed branch whose target merged to X: see the
             [computed_branch_fallback] documentation *)
          incr escaped_paths;
          log "computed-branch escape (pc %s)" (Bvec.to_string (System.pc sys));
          finish "escaped";
          finished := true
        | None ->
          (* conditional jump with unknown decision: fork on the
             recorded candidates; or, under [`Enumerate], bounded
             X-bit enumeration of a computed target *)
          Obs.Span.with_ ~name:"analysis.fork" @@ fun () ->
          let cands =
            match !candidates with
            | _ :: _ as c -> c
            | [] ->
              let pcv = System.pc sys in
              let valid =
                if Bvec.count_x pcv <= 10 then
                  List.filter_map
                    (fun v ->
                      let a = Bvec.to_int_exn v in
                      if
                        a land (core.Coredef.insn_align - 1) = 0
                        && Coredef.in_rom core a
                        && Hashtbl.mem insn_starts a
                      then Some a
                      else None)
                    (Bvec.concretizations pcv)
                else
                  Hashtbl.fold
                    (fun a () acc ->
                      if
                        Bvec.subsumes ~general:pcv
                          ~specific:(Bvec.of_int ~width:(Array.length pcv) a)
                      then a :: acc
                      else acc)
                    insn_starts []
              in
              if valid = [] then fail "no valid PC candidate";
              if List.length valid > config.max_pc_candidates then
                fail "too many PC candidates (%d)" (List.length valid);
              valid
          in
          let snap = snapshot_both () in
          List.iter
            (fun t ->
              let s, s_sh =
                force_both snap ~pos:pc_pos ~pos_sh:(Lazy.force pc_pos_sh)
                  (Bvec.of_int ~width:pc_width t)
              in
              let edge = Printf.sprintf "pc=0x%04x" t in
              (* prune eagerly if the table already covers this child *)
              let covered =
                Hashtbl.fold
                  (fun (p, _, _, _) (c, _) acc ->
                    acc
                    || p = t && subsumes ~general:c ~specific:s)
                  table false
              in
              if covered then begin
                incr prunes;
                let child = new_node ~parent:nd.node_id ~edge ~start_pc:t in
                child.end_kind <- "pruned";
                child.end_pc <- t
              end
              else begin
                incr forks;
                Stack.push
                  { snap = s; snap_sh = s_sh; candidates = [];
                    skip_table = false;
                    node = new_node ~parent:nd.node_id ~edge ~start_pc:t }
                  stack
              end)
            cands;
          log "fork: pc unknown -> %d candidates" (List.length cands);
          finish "forked";
          finished := true
        | Some pcv when
            (not (Coredef.in_rom core pcv)) || not (Hashtbl.mem insn_starts pcv)
          ->
          (* Only an over-approximate merged superstate can compute a
             PC outside the program (e.g. a spurious enumeration child
             that unwinds an empty stack).  No concrete execution of
             the binary reaches here, so ending the path loses no real
             activity; the count is reported for auditability. *)
          incr escaped_paths;
          log "path escaped at %04x" pcv;
          cur_pc := pcv;
          finish "escaped";
          finished := true
        | Some pcv ->
          cur_pc := pcv;
          let info = classify ~pc:pcv in
          let is_ctl =
            info.Coredef.ci_control || Engine.value_code eng irq_pending <> 0
          in
          if is_ctl && not !skip_table then begin
            let key = table_key pcv in
            let s = snapshot_both () in
            match Hashtbl.find_opt table key with
            | Some (c, _) when subsumes ~general:c ~specific:(fst s) ->
              incr prunes;
              log "prune at %04x" pcv;
              finish "pruned";
              finished := true
            | Some (c, c_sh) ->
              let m, m_sh =
                Obs.Span.with_ ~name:"analysis.merge" @@ fun () ->
                ( System.snapshot_merge c (fst s),
                  match c_sh, snd s with
                  | Some a, Some b -> Some (System.snapshot_merge a b)
                  | _ -> None )
              in
              Hashtbl.replace table key (m, m_sh);
              incr merges;
              restore_both (m, m_sh);
              log "merge at %04x" pcv
            | None -> Hashtbl.replace table key s
          end;
          skip_table := false;
          if not !finished then begin
            (* Fork on an unknown pending-interrupt condition.  The
               fork must leave [pending] definite in every child, so
               every X bit among {IFG0, GIE, IE0} is enumerated (at
               most 8 children). *)
            if Engine.value_code eng irq_pending = Bit.code_x then begin
              Obs.Span.with_ ~name:"analysis.fork" @@ fun () ->
              let s = snapshot_both () in
              let gie_source =
                match core.Coredef.gie_bit with
                | Some (hook, bit) ->
                  [ ((System.read_hook sys hook).(bit),
                     Lazy.force gie_pos, Lazy.force gie_pos_sh) ]
                | None -> []
              in
              let sources =
                ((System.read_hook sys "irq_flag").(0),
                 Lazy.force ifg0_pos, Lazy.force ifg0_pos_sh)
                :: gie_source
                @ [ ((System.read_hook sys "irq_enable").(0),
                     Lazy.force ie0_pos, Lazy.force ie0_pos_sh) ]
              in
              let unknown =
                List.filter (fun (v, _, _) -> not (Bit.is_known v)) sources
              in
              if unknown = [] then
                fail "irq_pending X but its sources are known at %04x" pcv;
              let children =
                List.fold_left
                  (fun acc (_, pos, pos_sh) ->
                    List.concat_map
                      (fun snap ->
                        [
                          force_both snap ~pos:[| pos |] ~pos_sh:[| pos_sh |]
                            [| Bit.Zero |];
                          force_both snap ~pos:[| pos |] ~pos_sh:[| pos_sh |]
                            [| Bit.One |];
                        ])
                      acc)
                  [ s ] unknown
              in
              (match children with
              | first :: rest ->
                List.iter
                  (fun (c, c_sh) ->
                    incr forks;
                    Stack.push
                      { snap = c; snap_sh = c_sh; candidates = [];
                        skip_table = true;
                        node =
                          new_node ~parent:nd.node_id ~edge:"irq-case"
                            ~start_pc:pcv }
                      stack)
                  rest;
                restore_both first
              | [] -> assert false);
              log "fork on pending irq at %04x (%d children)" pcv
                (List.length children)
            end;
            match simulate_segment () with
            | `Halted, _ ->
              incr halted_paths;
              compare_shadow "halted path";
              compare_shadow_ram "halted path";
              finish "halted";
              finished := true
            | `Boundary, cands -> candidates := cands
          end
      end
    done
  in

  (* reach the first instruction boundary (reset vector fetch) *)
  (match simulate_segment () with
  | `Boundary, _ -> ()
  | `Halted, _ ->
    incr halted_paths;
    root.end_kind <- "halted");
  let s0, s0_sh = snapshot_both () in
  Stack.push
    { snap = s0; snap_sh = s0_sh; candidates = []; skip_table = false;
      node = root }
    stack;
  while not (Stack.is_empty stack) do
    run_path (Stack.pop stack)
  done;
  if Obs.enabled () then begin
    Obs.Metrics.add m_branches !forks;
    Obs.Metrics.add m_merges !merges;
    Obs.Metrics.add m_prunes !prunes;
    Obs.Metrics.add m_paths !paths;
    Obs.Metrics.add m_cycles !total_cycles
  end;
  {
    possibly_toggled = Engine.possibly_toggled eng;
    constant_values;
    paths = !paths;
    merges = !merges;
    prunes = !prunes;
    total_cycles = !total_cycles;
    halted_paths = !halted_paths;
    escaped_paths = !escaped_paths;
    first_toggle;
    tree = Array.of_list (List.rev !nodes);
  }

let analyze ?config ?shadow sys =
  Obs.Span.with_ ~name:"analysis.analyze" (fun () ->
      analyze_impl ?config ?shadow sys)

let tree_dot ?(max_nodes = 4000) r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "digraph exec_tree {\n  rankdir=TB;\n\
    \  node [shape=box fontsize=9 fontname=\"monospace\"];\n";
  let n = Array.length r.tree in
  let shown = min n max_nodes in
  let pc_str p = if p < 0 then "?" else Printf.sprintf "0x%04x" p in
  for i = 0 to shown - 1 do
    let nd = r.tree.(i) in
    let color =
      match nd.end_kind with
      | "halted" -> "palegreen"
      | "pruned" -> "lightgray"
      | "escaped" -> "lightsalmon"
      | "forked" -> "lightblue"
      | _ -> "white"
    in
    Buffer.add_string b
      (Printf.sprintf
         "  n%d [label=\"#%d %s\\n%s -> %s\\n%d cycles\" style=filled \
          fillcolor=%s];\n"
         nd.node_id nd.node_id nd.end_kind (pc_str nd.start_pc)
         (pc_str nd.end_pc) nd.node_cycles color);
    (* a node's parent always has a smaller id, so it is never cut off
       by the [max_nodes] truncation before its children *)
    if nd.parent >= 0 then
      Buffer.add_string b
        (Printf.sprintf "  n%d -> n%d [label=\"%s\" fontsize=8];\n" nd.parent
           nd.node_id nd.edge_label)
  done;
  if shown < n then
    Buffer.add_string b
      (Printf.sprintf "  trunc [label=\"... %d more nodes\" shape=plaintext];\n"
         (n - shown));
  Buffer.add_string b "}\n";
  Buffer.contents b

let exercisable_count r =
  Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 r.possibly_toggled

let gate_is_cuttable r net id =
  (not r.possibly_toggled.(id))
  &&
  match net.Netlist.gates.(id).Gate.op with
  | Gate.Input | Gate.Const _ -> false
  | _ -> true
