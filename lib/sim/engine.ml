module Bit = Bespoke_logic.Bit
module Bvec = Bespoke_logic.Bvec
module Gate = Bespoke_netlist.Gate
module Netlist = Bespoke_netlist.Netlist
module Obs = Bespoke_obs.Obs

(* Telemetry (all no-ops unless Obs is enabled): total gate
   re-evaluations, settle sweeps, and the dirty-set size drained per
   settle.  Counting is accumulated locally and flushed once per
   settle so the disabled-path cost is one flag check per sweep. *)
let m_gate_evals = Obs.Metrics.counter "sim.gate_evals"
let m_settles = Obs.Metrics.counter "sim.settle_iterations"
let h_dirty = Obs.Metrics.histogram "sim.dirty_set_size"

(* Compiled opcodes for the inner evaluation loop. *)
let op_buf = 0

and op_not = 1

and op_and = 2

and op_or = 3

and op_nand = 4

and op_nor = 5

and op_xor = 6

and op_xnor = 7

and op_mux = 8

type mode = Full | Event | Compiled

type t = {
  comp : Compile.t option;
      (* [Compiled] mode: every operation delegates to the compiled
         word-level engine (see the dispatch block at the end) *)
  net : Netlist.t;
  mode : mode;
  order : int array;  (* levelized combinational order *)
  opcode : int array;
  fi0 : int array;
  fi1 : int array;
  fi2 : int array;
  values : Bytes.t;  (* current settled value per gate, codes 0/1/2 *)
  prev : Bytes.t;  (* settled value at the last committed cycle *)
  dffs : int array;
  dff_next : Bytes.t;  (* scratch for the clock edge *)
  toggles : int array;
  possibly : Bytes.t;  (* 0/1 flags *)
  mutable committed : int;
  topo_index : int array;  (* position of each gate in [order], -1 for sources *)
  (* -- event-driven machinery (Event mode only) -- *)
  level : int array;  (* combinational depth; sources are level 0 *)
  fan_start : int array;  (* CSR fanout over combinational readers *)
  fan : int array;
  lvl_stack : int array array;  (* pending dirty gates, bucketed by level *)
  lvl_len : int array;
  on_queue : Bytes.t;  (* gate already scheduled for re-evaluation *)
  touched : int array;  (* gates written-with-change since last commit *)
  mutable touched_len : int;
  in_touched : Bytes.t;
  mutable full_commit : bool;
      (* next [commit_cycle] must scan every gate (after create/reset/
         clear_activity, when the touched list does not yet cover all
         possibly-X gates) *)
  mutable on_first_possibly : (int -> unit) option;
      (* provenance hook: called once per gate, when it is first
         marked possibly-toggled *)
  mutable on_cycle : (int -> unit) option;
      (* probe hook: called after every [commit_cycle] with the new
         committed count, in every mode (guard shadow watchers) *)
}

type cone = int array  (* gate ids in topological order, excluding sources *)

let code_of_bit = Bit.to_int
let bit_of_code = Bit.of_int_exn

let create_compiled net mode =
  {
    comp = Some (Compile.create net);
    net;
    mode;
    order = [||];
    opcode = [||];
    fi0 = [||];
    fi1 = [||];
    fi2 = [||];
    values = Bytes.empty;
    prev = Bytes.empty;
    dffs = [||];
    dff_next = Bytes.empty;
    toggles = [||];
    possibly = Bytes.empty;
    committed = 0;
    topo_index = [||];
    level = [||];
    fan_start = [||];
    fan = [||];
    lvl_stack = [||];
    lvl_len = [||];
    on_queue = Bytes.empty;
    touched = [||];
    touched_len = 0;
    in_touched = Bytes.empty;
    full_commit = true;
    on_first_possibly = None;
    on_cycle = None;
  }

let create ?(mode = Event) net =
  if mode = Compiled then create_compiled net mode
  else
  let ng = Netlist.gate_count net in
  let order = Netlist.levelize net in
  let opcode = Array.make ng (-1) in
  let fi0 = Array.make ng 0 in
  let fi1 = Array.make ng 0 in
  let fi2 = Array.make ng 0 in
  let dffs = ref [] in
  Array.iteri
    (fun id (g : Gate.t) ->
      (match g.op with
      | Gate.Dff _ ->
        dffs := id :: !dffs;
        (* [step] reads the D pin through fi0 even though DFFs are
           sources for levelization purposes. *)
        fi0.(id) <- g.fanin.(0)
      | _ -> ());
      let set c =
        opcode.(id) <- c;
        (match Array.length g.fanin with
        | 0 -> ()
        | 1 -> fi0.(id) <- g.fanin.(0)
        | 2 ->
          fi0.(id) <- g.fanin.(0);
          fi1.(id) <- g.fanin.(1)
        | _ ->
          fi0.(id) <- g.fanin.(0);
          fi1.(id) <- g.fanin.(1);
          fi2.(id) <- g.fanin.(2))
      in
      match g.op with
      | Gate.Const _ | Gate.Input | Gate.Dff _ -> ()
      | Gate.Buf -> set op_buf
      | Gate.Not -> set op_not
      | Gate.And -> set op_and
      | Gate.Or -> set op_or
      | Gate.Nand -> set op_nand
      | Gate.Nor -> set op_nor
      | Gate.Xor -> set op_xor
      | Gate.Xnor -> set op_xnor
      | Gate.Mux -> set op_mux)
    net.Netlist.gates;
  let topo_index = Array.make ng (-1) in
  Array.iteri (fun pos id -> topo_index.(id) <- pos) order;
  let dffs = Array.of_list (List.rev !dffs) in
  (* Combinational depth: used to drain the dirty queue level by level
     so each gate is re-evaluated at most once per settle. *)
  let level = Array.make ng 0 in
  Array.iter
    (fun id ->
      let g = net.Netlist.gates.(id) in
      let m = ref 0 in
      Array.iter
        (fun f -> if level.(f) >= !m then m := level.(f))
        g.fanin;
      level.(id) <- !m + 1)
    order;
  let nlevels =
    1 + Array.fold_left (fun acc l -> if l > acc then l else acc) 0 level
  in
  (* CSR fanout restricted to combinational readers: only they need
     re-evaluation when a driver changes (DFFs sample their D pin at
     the clock edge, directly). *)
  let counts = Array.make ng 0 in
  Array.iter
    (fun (g : Gate.t) ->
      if not (Gate.is_source g) then
        Array.iter (fun f -> counts.(f) <- counts.(f) + 1) g.fanin)
    net.Netlist.gates;
  let fan_start = Array.make (ng + 1) 0 in
  for i = 0 to ng - 1 do
    fan_start.(i + 1) <- fan_start.(i) + counts.(i)
  done;
  let fan = Array.make fan_start.(ng) 0 in
  let fill = Array.make ng 0 in
  Array.iteri
    (fun id (g : Gate.t) ->
      if not (Gate.is_source g) then
        Array.iter
          (fun f ->
            fan.(fan_start.(f) + fill.(f)) <- id;
            fill.(f) <- fill.(f) + 1)
          g.fanin)
    net.Netlist.gates;
  let per_level = Array.make nlevels 0 in
  Array.iter (fun id -> per_level.(level.(id)) <- per_level.(level.(id)) + 1) order;
  let t =
    {
      comp = None;
      net;
      mode;
      order;
      opcode;
      fi0;
      fi1;
      fi2;
      values = Bytes.make ng (Char.chr Bit.code_x);
      prev = Bytes.make ng (Char.chr Bit.code_x);
      dffs;
      dff_next = Bytes.make (Array.length dffs) '\000';
      toggles = Array.make ng 0;
      possibly = Bytes.make ng '\000';
      committed = 0;
      topo_index;
      level;
      fan_start;
      fan;
      lvl_stack = Array.map (fun n -> Array.make (max n 1) 0) per_level;
      lvl_len = Array.make nlevels 0;
      on_queue = Bytes.make ng '\000';
      touched = Array.make ng 0;
      touched_len = 0;
      in_touched = Bytes.make ng '\000';
      full_commit = true;
      on_first_possibly = None;
      on_cycle = None;
    }
  in
  (* Nothing is settled yet: schedule every combinational gate so the
     first [eval] is a complete sweep even in Event mode. *)
  Array.iter
    (fun id ->
      let l = t.level.(id) in
      t.lvl_stack.(l).(t.lvl_len.(l)) <- id;
      t.lvl_len.(l) <- t.lvl_len.(l) + 1;
      Bytes.unsafe_set t.on_queue id '\001')
    order;
  t

let netlist t = t.net
let mode t = t.mode
let get t id = Char.code (Bytes.unsafe_get t.values id)
let put t id c = Bytes.unsafe_set t.values id (Char.unsafe_chr c)
let value t id = bit_of_code (get t id)

let mark_touched t id =
  if Bytes.unsafe_get t.in_touched id = '\000' then begin
    Bytes.unsafe_set t.in_touched id '\001';
    t.touched.(t.touched_len) <- id;
    t.touched_len <- t.touched_len + 1
  end

let schedule_readers t id =
  let lo = t.fan_start.(id) and hi = t.fan_start.(id + 1) in
  for k = lo to hi - 1 do
    let r = Array.unsafe_get t.fan k in
    if Bytes.unsafe_get t.on_queue r = '\000' then begin
      Bytes.unsafe_set t.on_queue r '\001';
      let l = Array.unsafe_get t.level r in
      t.lvl_stack.(l).(t.lvl_len.(l)) <- r;
      t.lvl_len.(l) <- t.lvl_len.(l) + 1
    end
  done

(* Write a value; in Event mode, track the change and wake the fanout. *)
let write t id c =
  if t.mode = Full then put t id c
  else if get t id <> c then begin
    put t id c;
    mark_touched t id;
    schedule_readers t id
  end

let compute t id =
  let c = t.opcode.(id) in
  let a = get t t.fi0.(id) in
  if c = op_buf then a
  else if c = op_not then Bit.tbl_not.(a)
  else
    let b = get t t.fi1.(id) in
    if c = op_and then Bit.tbl_and.((a * 3) + b)
    else if c = op_or then Bit.tbl_or.((a * 3) + b)
    else if c = op_nand then Bit.tbl_nand.((a * 3) + b)
    else if c = op_nor then Bit.tbl_nor.((a * 3) + b)
    else if c = op_xor then Bit.tbl_xor.((a * 3) + b)
    else if c = op_xnor then Bit.tbl_xnor.((a * 3) + b)
    else
      let s = get t t.fi2.(id) in
      Bit.tbl_mux.((a * 9) + (b * 3) + s)

let eval_one t id = put t id (compute t id)

(* Mux fanin layout is [sel; a; b]: fi0 = sel, fi1 = a, fi2 = b, so the
   table index must be sel*9 + a*3 + b. *)

let eval_full t =
  let order = t.order in
  for k = 0 to Array.length order - 1 do
    eval_one t order.(k)
  done;
  if Obs.enabled () then begin
    Obs.Metrics.add m_gate_evals (Array.length order);
    Obs.Metrics.incr m_settles;
    Obs.Metrics.observe h_dirty (Array.length order)
  end

(* Drain the dirty queue in increasing level order.  A gate's readers
   are always at strictly higher levels, so each scheduled gate is
   visited exactly once per settle, after all its fanin writes. *)
let flush_dirty t =
  let counting = Obs.enabled () in
  let drained = ref 0 in
  let nl = Array.length t.lvl_len in
  for l = 1 to nl - 1 do
    let stack = t.lvl_stack.(l) in
    (* the stack at this level cannot grow while it drains *)
    let n = t.lvl_len.(l) in
    if counting then drained := !drained + n;
    for k = 0 to n - 1 do
      let id = Array.unsafe_get stack k in
      Bytes.unsafe_set t.on_queue id '\000';
      let r = compute t id in
      if get t id <> r then begin
        put t id r;
        mark_touched t id;
        schedule_readers t id
      end
    done;
    t.lvl_len.(l) <- 0
  done;
  if counting then begin
    Obs.Metrics.add m_gate_evals !drained;
    Obs.Metrics.incr m_settles;
    Obs.Metrics.observe h_dirty !drained
  end

let eval t =
  match t.mode with Full -> eval_full t | Event | Compiled -> flush_dirty t

let make_cone t (sources : int array) =
  let ng = Netlist.gate_count t.net in
  let fanout = Netlist.fanout t.net in
  let in_cone = Array.make ng false in
  let stack = Stack.create () in
  Array.iter
    (fun id ->
      Array.iter
        (fun r ->
          if (not in_cone.(r)) && not (Gate.is_source t.net.Netlist.gates.(r))
          then begin
            in_cone.(r) <- true;
            Stack.push r stack
          end)
        fanout.(id))
    sources;
  while not (Stack.is_empty stack) do
    let id = Stack.pop stack in
    Array.iter
      (fun r ->
        if (not in_cone.(r)) && not (Gate.is_source t.net.Netlist.gates.(r))
        then begin
          in_cone.(r) <- true;
          Stack.push r stack
        end)
      fanout.(id)
  done;
  let members = ref [] in
  Array.iteri (fun id b -> if b then members := id :: !members) in_cone;
  let cone = Array.of_list !members in
  Array.sort (fun a b -> Int.compare t.topo_index.(a) t.topo_index.(b)) cone;
  cone

let eval_cone t (cone : cone) =
  match t.mode with
  | Event | Compiled ->
    (* dirty propagation subsumes the precomputed cone *)
    flush_dirty t
  | Full ->
    for k = 0 to Array.length cone - 1 do
      eval_one t cone.(k)
    done

let set_gate t id b =
  (match t.net.Netlist.gates.(id).op with
  | Gate.Input -> ()
  | op ->
    invalid_arg
      (Printf.sprintf "Engine.set_gate: gate %d is %s, not an input" id
         (Gate.op_name op)));
  write t id (code_of_bit b)

let find_port t name = Netlist.find_input t.net name

let set_input t name (v : Bvec.t) =
  let ids = find_port t name in
  if Array.length ids <> Bvec.width v then
    invalid_arg (Printf.sprintf "Engine.set_input %s: width mismatch" name);
  Array.iteri (fun i id -> set_gate t id v.(i)) ids

let set_input_int t name n =
  let ids = find_port t name in
  set_input t name (Bvec.of_int ~width:(Array.length ids) n)

let set_input_x t name =
  let ids = find_port t name in
  Array.iter (fun id -> set_gate t id Bit.X) ids

let set_all_inputs_x t =
  List.iter (fun (name, _) -> set_input_x t name) t.net.Netlist.input_ports

let read t name =
  let ids = Netlist.find_name t.net name in
  Array.map (fun id -> value t id) ids

let read_int t name = Bvec.to_int (read t name)

let clear_dirty t =
  Array.fill t.lvl_len 0 (Array.length t.lvl_len) 0;
  Bytes.fill t.on_queue 0 (Bytes.length t.on_queue) '\000'

let clear_touched t =
  t.touched_len <- 0;
  Bytes.fill t.in_touched 0 (Bytes.length t.in_touched) '\000'

let reset t =
  (* Discard any partially propagated state: pending dirty entries and
     the touched list describe a world that no longer exists after the
     sources are forced back to their reset values. *)
  clear_dirty t;
  clear_touched t;
  Array.iteri
    (fun id (g : Gate.t) ->
      match g.op with
      | Gate.Const b -> put t id (code_of_bit b)
      | Gate.Input -> put t id Bit.code_x
      | Gate.Dff init -> put t id (code_of_bit init)
      | _ -> ())
    t.net.Netlist.gates;
  eval_full t;
  Bytes.blit t.values 0 t.prev 0 (Bytes.length t.values);
  t.committed <- 0;
  t.full_commit <- true

let step t =
  let dffs = t.dffs in
  for i = 0 to Array.length dffs - 1 do
    let id = dffs.(i) in
    Bytes.unsafe_set t.dff_next i
      (Char.unsafe_chr (get t t.fi0.(id)))
  done;
  for i = 0 to Array.length dffs - 1 do
    write t dffs.(i) (Char.code (Bytes.unsafe_get t.dff_next i))
  done;
  eval t

let commit_one t id =
  let cur = Char.code (Bytes.unsafe_get t.values id) in
  let old = Char.code (Bytes.unsafe_get t.prev id) in
  if cur <> old then t.toggles.(id) <- t.toggles.(id) + 1;
  if
    (cur <> old || cur = Bit.code_x)
    && Bytes.unsafe_get t.possibly id = '\000'
  then begin
    Bytes.unsafe_set t.possibly id '\001';
    match t.on_first_possibly with None -> () | Some f -> f id
  end

let set_first_possibly_hook t f = t.on_first_possibly <- f

let commit_cycle t =
  let ng = Bytes.length t.values in
  if t.mode = Full || t.full_commit then begin
    for id = 0 to ng - 1 do
      commit_one t id
    done;
    Bytes.blit t.values 0 t.prev 0 ng;
    t.full_commit <- false
  end
  else begin
    (* Only touched gates can differ from [prev]; an untouched gate
       stuck at X was already X (and hence marked possibly-toggled) at
       the previous commit, so scanning the touched list is exact. *)
    for k = 0 to t.touched_len - 1 do
      let id = Array.unsafe_get t.touched k in
      commit_one t id;
      Bytes.unsafe_set t.prev id (Bytes.unsafe_get t.values id)
    done
  end;
  clear_touched t;
  t.committed <- t.committed + 1;
  match t.on_cycle with None -> () | Some f -> f t.committed

let cycles_committed t = t.committed
let toggle_counts t = Array.copy t.toggles

let possibly_toggled t =
  Array.init (Bytes.length t.possibly) (fun i ->
      Bytes.get t.possibly i <> '\000')

let merge_possibly_toggled_into t (acc : bool array) =
  for i = 0 to Bytes.length t.possibly - 1 do
    if Bytes.unsafe_get t.possibly i <> '\000' then acc.(i) <- true
  done

let clear_activity t =
  Array.fill t.toggles 0 (Array.length t.toggles) 0;
  Bytes.fill t.possibly 0 (Bytes.length t.possibly) '\000';
  Bytes.blit t.values 0 t.prev 0 (Bytes.length t.values);
  t.committed <- 0;
  clear_touched t;
  (* the possibly flags were wiped: currently-X gates must be re-marked
     at the next commit even if they never change again *)
  t.full_commit <- true

let sync_prev t = Bytes.blit t.values 0 t.prev 0 (Bytes.length t.values)

let snapshot_values t =
  Array.init (Bytes.length t.values) (fun i -> bit_of_code (get t i))

let dff_ids t = Array.copy t.dffs
let dff_state t = Array.map (fun id -> value t id) t.dffs

let restore_dff_state t (s : Bvec.t) =
  if Bvec.width s <> Array.length t.dffs then
    invalid_arg "Engine.restore_dff_state: width mismatch";
  Array.iteri (fun i id -> write t id (code_of_bit s.(i))) t.dffs;
  eval t

(* Scalar modes pack 63 DFFs per word, in [dff_ids] order. *)
let plane_words t = (Array.length t.dffs + 62) / 63

let dff_planes t =
  let nw = plane_words t in
  let a = Array.make (2 * nw) 0 in
  Array.iteri
    (fun i id ->
      let w = i / 63 and b = i mod 63 in
      match get t id with
      | 0 -> a.(w) <- a.(w) lor (1 lsl b)
      | 1 -> a.(nw + w) <- a.(nw + w) lor (1 lsl b)
      | _ ->
        a.(w) <- a.(w) lor (1 lsl b);
        a.(nw + w) <- a.(nw + w) lor (1 lsl b))
    t.dffs;
  a

let restore_dff_planes t (a : int array) =
  let nw = plane_words t in
  if Array.length a <> 2 * nw then
    invalid_arg "Engine.restore_dff_planes: width mismatch";
  Array.iteri
    (fun i id ->
      let w = i / 63 and b = i mod 63 in
      let lo = (a.(w) lsr b) land 1 and hi = (a.(nw + w) lsr b) land 1 in
      write t id (hi + (lo land hi)))
    t.dffs;
  eval t

let dff_slot t id =
  let rec find i =
    if i >= Array.length t.dffs then -1
    else if t.dffs.(i) = id then ((i / 63) lsl 6) lor (i mod 63)
    else find (i + 1)
  in
  find 0

(* ---------------------------------------------------------------- *)
(* Compiled-mode dispatch.  The shadowing definitions below route
   every public operation to the word-level compiled engine when the
   instance was created with [~mode:Compiled]; the scalar bodies bound
   above keep referring to each other directly, so Full/Event pay one
   option check per public call and nothing else. *)

let reset t = match t.comp with Some c -> Compile.reset c | None -> reset t
let value t id = match t.comp with Some c -> Compile.value c id | None -> value t id

let value_code t id =
  match t.comp with Some c -> Compile.value_code c id | None -> get t id

let read_int_ids t (ids : int array) =
  match t.comp with
  | Some c -> Compile.read_ids_int c ids
  | None ->
    let v = ref 0 and known = ref true in
    Array.iteri
      (fun i id ->
        let cd = get t id in
        if cd > 1 then known := false else v := !v lor (cd lsl i))
      ids;
    if !known then Some !v else None

let set_gate t id b =
  match t.comp with Some c -> Compile.set_gate c id b | None -> set_gate t id b

let set_gates_int t (ids : int array) v =
  match t.comp with
  | Some c -> Compile.set_gates_int c ids v
  | None ->
    Array.iteri
      (fun i id ->
        set_gate t id (if (v lsr i) land 1 = 1 then Bit.One else Bit.Zero))
      ids

let read t name = match t.comp with Some c -> Compile.read c name | None -> read t name

let read_int t name =
  match t.comp with Some c -> Compile.read_int c name | None -> read_int t name

let set_input t name v =
  match t.comp with
  | Some c -> Compile.set_input c name v
  | None -> set_input t name v

let set_input_int t name n =
  match t.comp with
  | Some c -> Compile.set_input_int c name n
  | None -> set_input_int t name n

let set_input_x t name =
  match t.comp with
  | Some c -> Compile.set_input_x c name
  | None -> set_input_x t name

let set_all_inputs_x t =
  match t.comp with
  | Some c -> Compile.set_all_inputs_x c
  | None -> set_all_inputs_x t

let eval t = match t.comp with Some c -> Compile.eval c | None -> eval t

let make_cone t sources =
  match t.comp with
  | Some _ -> [||]  (* pending-instruction tracking subsumes cones *)
  | None -> make_cone t sources

let eval_cone t cone =
  match t.comp with Some c -> Compile.eval c | None -> eval_cone t cone

let step t = match t.comp with Some c -> Compile.step c | None -> step t

let commit_cycle t =
  match t.comp with
  | Some c -> (
      Compile.commit_cycle c;
      match t.on_cycle with
      | None -> ()
      | Some f -> f (Compile.cycles_committed c))
  | None -> commit_cycle t

let set_cycle_hook t f = t.on_cycle <- f

let cycles_committed t =
  match t.comp with
  | Some c -> Compile.cycles_committed c
  | None -> cycles_committed t

let toggle_counts t =
  match t.comp with Some c -> Compile.toggle_counts c | None -> toggle_counts t

let possibly_toggled t =
  match t.comp with
  | Some c -> Compile.possibly_toggled c
  | None -> possibly_toggled t

let merge_possibly_toggled_into t acc =
  match t.comp with
  | Some c -> Compile.merge_possibly_toggled_into c acc
  | None -> merge_possibly_toggled_into t acc

let clear_activity t =
  match t.comp with
  | Some c -> Compile.clear_activity c
  | None -> clear_activity t

let set_first_possibly_hook t f =
  match t.comp with
  | Some c -> Compile.set_first_possibly_hook c f
  | None -> set_first_possibly_hook t f

let sync_prev t =
  match t.comp with Some c -> Compile.sync_prev c | None -> sync_prev t

let snapshot_values t =
  match t.comp with
  | Some c -> Compile.snapshot_values c
  | None -> snapshot_values t

let dff_ids t =
  match t.comp with Some c -> Compile.dff_ids c | None -> dff_ids t

let dff_state t =
  match t.comp with Some c -> Compile.dff_state c | None -> dff_state t

let restore_dff_state t s =
  match t.comp with
  | Some c -> Compile.restore_dff_state c s
  | None -> restore_dff_state t s

let dff_planes t =
  match t.comp with Some c -> Compile.dff_planes c | None -> dff_planes t

let restore_dff_planes t a =
  match t.comp with
  | Some c -> Compile.restore_dff_planes c a
  | None -> restore_dff_planes t a

let dff_slot t id =
  match t.comp with Some c -> Compile.dff_slot c id | None -> dff_slot t id

let compile_stats t = Option.map Compile.stats t.comp
