(* The compiled MIR execution engine: prepare once, run many.

   [compile] lowers each [Ir.func] once into dense arrays — blocks
   indexed by int instead of name, phi nodes lowered to
   per-predecessor-edge parallel move lists, branch targets resolved
   to block ids with switches lowered to a sorted array searched by
   binary search, and callees classified once at compile time
   (interning the MUTLS_* runtime-call names into [Ir.runtime_fn]).
   The data path runs on two untagged register banks (see "compiled
   representation" below), so hot segments never allocate a
   [Value.v].

   Cost accounting is batched per straight-line segment: the per-op
   tick amounts are pre-materialized in a float array, and the runtime
   either commits the whole segment in one accumulator write (when
   replaying the additions never reaches the quantum — see
   [Thread_manager.tick_batch]) or falls back to per-op ticks
   interleaved with execution exactly like the reference interpreter.
   Either way the sequence of float additions, flushes, scheduler
   yields and Charge trace events is identical to the reference
   engine's, which is what keeps figures numerically identical and
   same-seed traces byte-identical (see DESIGN.md, "Execution
   engine").

   Semantic-parity ground rules, to stay observably equivalent to
   [Reference] (the retained tree-walker):
   - scalar semantics are [Ops]'s, inlined per opcode on the banks;
   - anything malformed that the reference only rejects when executed
     (unknown callee, void load, missing phi edge, unknown branch
     target) compiles to a closure that traps when executed, never at
     compile time;
   - pure computation (operand evaluation) may move relative to ticks,
     but every effect — memory access, buffer output, runtime call —
     stays after all of its op's ticks, as in the reference.

   A module whose registers and operands do not have one static bank
   each (see [analyze]) is not lowered at all: [compile] still
   succeeds, and [call] on it raises [Ops.Trap] naming the function
   and construct.  Such IR fails [Verify.check_module] or is built by
   hand; every front end's output is bankable. *)

open Mutls_mir
open Mutls_runtime
open Value

(* --- compiled representation -----------------------------------------

   Each function's data path lives on two untagged banks instead of a
   [Value.v array]: an int bank (one [Bytes.t], 8 bytes per slot)
   holding i1/i8/i32/i64/ptr values, and a float bank (a flat
   [float array]).  Slot 0 of each bank is the return slot; registers,
   arguments, phi-move scratch and interned constants follow.  Every
   int operand collapses to a byte offset into the int bank (negative
   codes address the per-run global cache), so the specialized op
   closures below read, compute and write without ever allocating a
   [Value.v]; boxed values survive only at the [call]/extern/stub
   boundary. *)

type mode =
  | Seq of seq_state
  | Tls of Thread_manager.t * Thread_data.t

and seq_state = { mutable seq_cost : float }

type prog = {
  modul : Ir.modul;
  cost : Config.cost;
  kfuncs : kfunc array; (* empty when [rejected] *)
  rejected : string option; (* why [analyze] refused the module *)
  func_ids : (string, int) Hashtbl.t; (* name -> index; last binding wins *)
  nglobals : int; (* interned global names, for the address cache *)
  gnames : string array; (* global id -> name, for lazy resolution *)
}

and ectx = {
  prog : prog;
  mem : Memory.t;
  mode : mode;
  out : Buffer.t;
  gcache : int array; (* lazily resolved global addresses; -1 = unresolved *)
  mutable sp : int;
  mutable stack_limit : int;
}

and kfunc = {
  k_name : string;
  k_image : Bytes.t; (* int bank template, constants pre-placed *)
  k_fimage : float array; (* float bank template *)
  k_akind : int array; (* param index -> 0 (int) / 1 (float) *)
  k_aslot : int array; (* param index -> ib byte offset / fb index *)
  k_ret : kret;
  k_entry : kedge option; (* entry-block phi handling (malformed IR) *)
  k_blocks : kblock array;
}

and kret = KRint | KRfloat | KRnone

(* A block body is a sequence of straight-line segments (batchable)
   separated by calls (which tick through the normal per-call path and
   may yield, trap, or recurse). *)
and kblock = { kitems : kitem array; kterm : kterm }
and kitem = Kseg of kseg | Kcall of (kframe -> unit)

and kseg = {
  kops : (kframe -> unit) array;
  kticks : float array; (* every tick of the segment, in reference order *)
  kcounts : int array; (* ticks per op; trailing ticks belong to no op *)
}

and kterm =
  | KTbr of kedge
  | KTcbr of int * kedge * kedge (* int operand code *)
  | KTswitch of int * int64 array * kedge array * kedge
  | KTret_i of int (* int operand code -> ib slot 0 *)
  | KTret_f of int (* fb index -> fb.(0) *)
  | KTret_void
  | KTunreachable of string

(* Parallel phi moves: [kmoves] read every source into its scratch
   slot, then [kwrites] move scratch to destinations.  A single-phi
   edge skips scratch ([kwrites] empty, the move writes directly).
   [KEtrap] replicates the reference's behaviour on a missing incoming
   entry: earlier phi sources still evaluate, then the trap. *)
and kedge =
  | KEok of {
      ktgt : int;
      kmoves : (kframe -> unit) array;
      kwrites : (kframe -> unit) array;
    }
  | KEtrap of { kpre : (kframe -> unit) array; kmsg : string }

and kframe = { kec : ectx; kib : Bytes.t; kfb : float array }

(* Speculation stub operand, resolved at compile time; name resolution
   failures trap inside the child fiber, as in the reference. *)
type stub =
  | Sok of int
  | Sunknown of string
  | Sbadop
  | Snth

(* --- runtime helpers -------------------------------------------------- *)

let etick ec c =
  match ec.mode with
  | Seq s -> s.seq_cost <- s.seq_cost +. c
  | Tls (mgr, td) -> Thread_manager.tick mgr td c

let emgr_td ec =
  match ec.mode with
  | Tls (mgr, td) -> (mgr, td)
  | Seq _ -> Ops.trap "TLS runtime call in sequential mode"

let rec bsearch (keys : int64 array) edges default x lo hi =
  if lo >= hi then default
  else
    let mid = (lo + hi) / 2 in
    let c = Int64.compare x (Array.unsafe_get keys mid) in
    if c = 0 then Array.unsafe_get edges mid
    else if c < 0 then bsearch keys edges default x lo mid
    else bsearch keys edges default x (mid + 1) hi

(* --- register-bank runtime helpers ------------------------------------ *)

let kglobal_slow ec gi =
  let a = Memory.symbol ec.mem (Array.unsafe_get ec.prog.gnames gi) in
  Array.unsafe_set ec.gcache gi a;
  a

(* Resolved address of global id [gi] as an untagged OCaml int (cached
   per run; the first use still goes through [Memory.symbol] so an
   unknown name fails at the same use site as in the reference). *)
let[@inline] kglobal kf gi =
  let a = Array.unsafe_get kf.kec.gcache gi in
  if a >= 0 then a else kglobal_slow kf.kec gi

(* Int operands are compile-time codes: a non-negative byte offset
   into the frame's int bank, or [-gi - 1] for global [gi].  [iget]
   and friends are forced inline so the int64 stays unboxed inside
   each op closure's body. *)
let[@inline] iget kf c =
  if c >= 0 then Bytes.get_int64_le kf.kib c
  else Int64.of_int (kglobal kf (-c - 1))

(* The same operand as an address or count (OCaml int). *)
let[@inline] igeta kf c =
  if c >= 0 then Int64.to_int (Bytes.get_int64_le kf.kib c)
  else kglobal kf (-c - 1)

let[@inline] iset kf off x = Bytes.set_int64_le kf.kib off x
let[@inline] fget kf i = Array.unsafe_get kf.kfb i
let[@inline] fset kf i x = Array.unsafe_set kf.kfb i x

let ktake_edge kf e =
  match e with
  | KEok { ktgt; kmoves; kwrites } ->
    for i = 0 to Array.length kmoves - 1 do
      (Array.unsafe_get kmoves i) kf
    done;
    for i = 0 to Array.length kwrites - 1 do
      (Array.unsafe_get kwrites i) kf
    done;
    ktgt
  | KEtrap { kpre; kmsg } ->
    Array.iter (fun s -> s kf) kpre;
    raise (Ops.Trap kmsg)

let run_kseg ec kf (s : kseg) =
  let nticks = Array.length s.kticks in
  let ops = s.kops in
  let nops = Array.length ops in
  match ec.mode with
  | Seq st ->
    (* no quantum in sequential mode: replay the same additions in the
       same order, commit once *)
    let acc = ref st.seq_cost in
    for i = 0 to nticks - 1 do
      acc := !acc +. Array.unsafe_get s.kticks i
    done;
    st.seq_cost <- !acc;
    for i = 0 to nops - 1 do
      (Array.unsafe_get ops i) kf
    done
  | Tls (mgr, td) ->
    if Thread_manager.tick_batch mgr td s.kticks nticks then
      for i = 0 to nops - 1 do
        (Array.unsafe_get ops i) kf
      done
    else begin
      (* a flush lands inside this segment: interleave per-op ticks
         with execution exactly like the reference *)
      let ti = ref 0 in
      for i = 0 to nops - 1 do
        for _ = 1 to Array.unsafe_get s.kcounts i do
          Thread_manager.tick mgr td (Array.unsafe_get s.kticks !ti);
          incr ti
        done;
        (Array.unsafe_get ops i) kf
      done;
      while !ti < nticks do
        Thread_manager.tick mgr td (Array.unsafe_get s.kticks !ti);
        incr ti
      done
    end

let empty_floats : float array = [||]

let kframe_of ec (cf : kfunc) =
  { kec = ec;
    kib = Bytes.copy cf.k_image;
    kfb =
      (if Array.length cf.k_fimage = 0 then empty_floats
       else Array.copy cf.k_fimage) }

(* The banked execution loop.  The return value is left in bank slot 0
   (by [KTret_i]/[KTret_f]); callers read it out by the callee's
   statically known return shape — no boxing on internal calls. *)
let exec_kframe (ec : ectx) (cf : kfunc) (kf : kframe) : unit =
  let sp0 = ec.sp in
  (match cf.k_entry with Some e -> ignore (ktake_edge kf e) | None -> ());
  let blocks = cf.k_blocks in
  let cur = ref 0 in
  let running = ref true in
  while !running do
    let b = Array.unsafe_get blocks !cur in
    let items = b.kitems in
    for i = 0 to Array.length items - 1 do
      match Array.unsafe_get items i with
      | Kseg s -> run_kseg ec kf s
      | Kcall f -> f kf
    done;
    match b.kterm with
    | KTbr e -> cur := ktake_edge kf e
    | KTcbr (c, e1, e2) ->
      cur := ktake_edge kf (if iget kf c <> 0L then e1 else e2)
    | KTswitch (c, keys, edges, default) ->
      let x = iget kf c in
      cur := ktake_edge kf (bsearch keys edges default x 0 (Array.length keys))
    | KTret_i c ->
      Bytes.set_int64_le kf.kib 0 (iget kf c);
      running := false
    | KTret_f i ->
      Array.unsafe_set kf.kfb 0 (Array.unsafe_get kf.kfb i);
      running := false
    | KTret_void -> running := false
    | KTunreachable msg -> raise (Ops.Trap msg)
  done;
  ec.sp <- sp0

(* Boxed entry into a banked function ([call], stubs).  Boundary
   deviations, both confined to IR no front end produces: passing
   fewer arguments than parameters raises the reference's
   index-out-of-bounds eagerly here rather than at the first missing
   [Arg] read, and a boxed argument of the wrong kind trips
   [to_i64]/[to_f64] at entry rather than at first use. *)
let exec_kfunc_boxed ec (cf : kfunc) (args : v array) : v option =
  let np = Array.length cf.k_akind in
  if Array.length args < np then invalid_arg "index out of bounds";
  let kf = kframe_of ec cf in
  for k = 0 to np - 1 do
    if Array.unsafe_get cf.k_akind k = 0 then
      Bytes.set_int64_le kf.kib cf.k_aslot.(k) (to_i64 args.(k))
    else kf.kfb.(cf.k_aslot.(k)) <- to_f64 args.(k)
  done;
  exec_kframe ec cf kf;
  match cf.k_ret with
  | KRint -> Some (VI (Bytes.get_int64_le kf.kib 0))
  | KRfloat -> Some (VF kf.kfb.(0))
  | KRnone -> None

(* Body of a freshly speculated thread: a new context on the child's
   stack slot, executing the stub function. *)
let run_speculative (parent_ec : ectx) (child : Thread_data.t) stub =
  let mgr, _ = emgr_td parent_ec in
  let base, limit = Memory.stack_slot parent_ec.mem child.Thread_data.rank in
  Local_buffer.set_stack_range child.Thread_data.lbuf ~base ~limit;
  let ec =
    { parent_ec with
      mode = Tls (mgr, child);
      sp = base;
      stack_limit = limit }
  in
  let cf =
    match stub with
    | Sok id -> ec.prog.kfuncs.(id)
    | Sunknown name -> Ops.trap "call to unknown function @%s" name
    | Sbadop | Snth -> assert false (* raised in the parent *)
  in
  ignore (exec_kfunc_boxed ec cf [| of_int child.Thread_data.rank |])

(* --- compilation ------------------------------------------------------ *)

type cstate = {
  st_func_ids : (string, int) Hashtbl.t;
  st_globals : (string, int) Hashtbl.t;
  mutable st_nglobals : int;
}

let global_id st g =
  match Hashtbl.find_opt st.st_globals g with
  | Some i -> i
  | None ->
    let i = st.st_nglobals in
    st.st_nglobals <- i + 1;
    Hashtbl.add st.st_globals g i;
    i

(* Evaluate every operand, left to right, like the reference's
   [List.map eval_v operands]. *)
let evals slots fr = Array.to_list (Array.map (fun s -> s fr) slots)

(* --- bankability analysis --------------------------------------------- *)

(* The engine only runs modules where every register, argument and
   operand has a statically unambiguous bank.  Anything unusual —
   [Void]-typed value instructions, bank conflicts, funcref operands
   outside [Rt_speculate], arity mismatches on internal calls, mixed
   return shapes — rejects the whole module: [compile] keeps the
   reason and [call] traps with it.  Such IR fails
   [Verify.check_module] or violates its typing in ways the verifier
   does not check, so no front end produces it. *)

exception Not_bankable of string * string (* function, construct *)

(* Where the analysis is looking, rendered only on rejection. *)
type site =
  | At_params
  | At_phi of Ir.phi
  | At_instr of Ir.instr
  | At_term of Ir.terminator

let reject (f : Ir.func) site =
  let what =
    match site with
    | At_params -> "the parameter list"
    | At_phi p -> Printer.phi_to_string p
    | At_instr i -> Printer.instr_to_string i
    | At_term t -> Printer.term_to_string t
  in
  raise (Not_bankable (f.Ir.fname, what))

type kbank = KI | KF

type kfinfo = {
  fi_regbank : kbank array;
  fi_parbank : kbank array;
  fi_ret : kret;  (* uniform across every [Ret] in the function *)
}

(* Lowering only asks for the bank of types [analyze] accepted. *)
let bank_of_ty (t : Ir.ty) : kbank =
  match t with Ir.F64 -> KF | Ir.Void -> assert false | _ -> KI

(* Pass 1: assign a bank to every register from its defining
   instruction/phi type, and derive the function's return shape. *)
let analyze_banks (f : Ir.func) : kfinfo =
  let here = ref At_params in
  let rej () = reject f !here in
  let bank (t : Ir.ty) = if t = Ir.Void then rej () else bank_of_ty t in
  let nregs = f.Ir.next_reg in
  let rb = Array.make (max 1 nregs) KI in
  let assigned = Array.make (max 1 nregs) false in
  let parbank = Array.of_list (List.map (fun (_, t) -> bank t) f.Ir.params) in
  let def r b =
    if r < 0 || r >= nregs then rej ();
    if assigned.(r) then begin
      if rb.(r) <> b then rej ()
    end
    else begin
      assigned.(r) <- true;
      rb.(r) <- b
    end
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          here := At_phi p;
          def p.Ir.pid (bank p.Ir.pty))
        b.Ir.phis;
      List.iter
        (fun (i : Ir.instr) ->
          here := At_instr i;
          match i.Ir.kind with
          | Ir.Store _ -> ()
          | Ir.Call _ -> if i.Ir.ity <> Ir.Void then def i.Ir.id (bank i.Ir.ity)
          | _ -> def i.Ir.id (bank i.Ir.ity))
        b.Ir.insts)
    f.Ir.blocks;
  (* a register read before any definition keeps the bank's zero, like
     the reference's [VI 0L] initialization *)
  let opbank (v : Ir.value) : kbank =
    match v with
    | Ir.Const (Ir.Cfloat _) -> KF
    | Ir.Const _ -> KI
    | Ir.Reg r -> if r < 0 || r >= nregs then rej () else rb.(r)
    | Ir.Arg i -> if i < 0 || i >= Array.length parbank then rej () else parbank.(i)
    | Ir.Global _ -> KI
    | Ir.Funcref _ -> rej ()
  in
  let ret = ref None in
  let meet shape =
    match !ret with
    | None -> ret := Some shape
    | Some s -> if s <> shape then rej ()
  in
  List.iter
    (fun (b : Ir.block) ->
      here := At_term b.Ir.term;
      match b.Ir.term with
      | Ir.Ret None -> meet KRnone
      | Ir.Ret (Some v) -> meet (match opbank v with KI -> KRint | KF -> KRfloat)
      | _ -> ())
    f.Ir.blocks;
  { fi_regbank = rb;
    fi_parbank = parbank;
    fi_ret = (match !ret with Some s -> s | None -> KRnone) }

(* Pass 2: check every operand position against its required bank. *)
let check_func (ftab : (string, kfinfo) Hashtbl.t) (f : Ir.func) (fi : kfinfo) :
    unit =
  let here = ref At_params in
  let rej () = reject f !here in
  let nregs = f.Ir.next_reg in
  let opbank (v : Ir.value) : kbank =
    match v with
    | Ir.Const (Ir.Cfloat _) -> KF
    | Ir.Const _ -> KI
    | Ir.Reg r -> if r < 0 || r >= nregs then rej () else fi.fi_regbank.(r)
    | Ir.Arg i ->
      if i < 0 || i >= Array.length fi.fi_parbank then rej ()
      else fi.fi_parbank.(i)
    | Ir.Global _ -> KI
    | Ir.Funcref _ -> rej ()
  in
  let want b v = if opbank v <> b then rej () in
  let dbank (i : Ir.instr) = bank_of_ty i.Ir.ity in
  let dst b (i : Ir.instr) = if dbank i <> b then rej () in
  let ck operands n b =
    match List.nth_opt operands n with Some v -> want b v | None -> ()
  in
  let ck_any operands n =
    match List.nth_opt operands n with
    | Some v -> ignore (opbank v)
    | None -> ()
  in
  let check_runtime (i : Ir.instr) fn operands =
    let dst_i () = if i.Ir.ity <> Ir.Void then dst KI i in
    let dst_f () = if i.Ir.ity <> Ir.Void then dst KF i in
    match (fn : Ir.runtime_fn) with
    | Ir.Rt_get_cpu ->
      ck operands 0 KI;
      ck operands 1 KI;
      dst_i ()
    | Ir.Rt_set_fork_reg ->
      ck operands 0 KI;
      ck operands 1 KI;
      ck_any operands 2
    | Ir.Rt_set_fork_addr | Ir.Rt_save_stackvar | Ir.Rt_restore_stackvar ->
      ck operands 0 KI;
      ck operands 1 KI;
      ck operands 2 KI
    | Ir.Rt_validate_local ->
      ck operands 0 KI;
      ck operands 1 KI;
      ck operands 2 KI;
      ck_any operands 3
    | Ir.Rt_speculate ->
      (* operand 2 is the funcref, resolved at lowering; a non-funcref
         traps at run time *)
      ck operands 0 KI;
      ck operands 1 KI
    | Ir.Rt_entry_counter | Ir.Rt_sync_counter | Ir.Rt_sync_rank
    | Ir.Rt_sync_entry ->
      dst_i ()
    | Ir.Rt_get_fork_reg | Ir.Rt_restore_regvar _ ->
      (* transfer value coerced into the destination bank at the write *)
      ck operands 0 KI
    | Ir.Rt_pick_stackaddr ->
      ck operands 0 KI;
      ck operands 1 KI;
      ck operands 2 KI;
      dst_i ()
    | Ir.Rt_load _ ->
      ck operands 0 KI;
      dst_i ()
    | Ir.Rt_load_f64 ->
      ck operands 0 KI;
      dst_f ()
    | Ir.Rt_store _ | Ir.Rt_ptr_int_cast ->
      ck operands 0 KI;
      ck operands 1 KI
    | Ir.Rt_store_f64 ->
      ck operands 0 KF;
      ck operands 1 KI
    | Ir.Rt_save_regvar ->
      ck operands 0 KI;
      ck_any operands 1
    | Ir.Rt_check_point | Ir.Rt_synchronize ->
      ck operands 0 KI;
      ck operands 1 KI;
      dst_i ()
    | Ir.Rt_commit | Ir.Rt_terminate_point | Ir.Rt_barrier_point
    | Ir.Rt_return_point | Ir.Rt_enter_point | Ir.Rt_bad_sync ->
      ck operands 0 KI
  in
  let check_instr (i : Ir.instr) =
    match i.Ir.kind with
    | Ir.Binop (op, _, a, b) -> (
      match op with
      | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv ->
        want KF a;
        want KF b;
        dst KF i
      | _ ->
        want KI a;
        want KI b;
        dst KI i)
    | Ir.Icmp (_, _, a, b) ->
      want KI a;
      want KI b;
      dst KI i
    | Ir.Fcmp (_, a, b) ->
      want KF a;
      want KF b;
      dst KI i
    | Ir.Alloca _ -> dst KI i
    | Ir.Load (ty, a) -> (
      match ty with
      | Ir.Void -> () (* compiles to a trap closure, operand unused *)
      | _ ->
        want KI a;
        dst (bank_of_ty ty) i)
    | Ir.Store (ty, v, a) -> (
      match ty with
      | Ir.Void -> () (* trap closure, operands unused *)
      | Ir.F64 ->
        want KF v;
        want KI a
      | _ ->
        want KI v;
        want KI a)
    | Ir.Ptradd (a, o) ->
      want KI a;
      want KI o;
      dst KI i
    | Ir.Select (c, a, b) ->
      let db = dbank i in
      want KI c;
      want db a;
      want db b
    | Ir.Cast (c, t1, t2, v) -> (
      match c with
      | Ir.Trunc | Ir.Zext | Ir.Sext | Ir.Ptrtoint | Ir.Inttoptr ->
        want KI v;
        dst KI i
      | Ir.Fptosi ->
        want KF v;
        dst KI i
      | Ir.Sitofp ->
        want KI v;
        dst KF i
      | Ir.Bitcast -> (
        match (t1, t2) with
        | Ir.F64, _ ->
          want KF v;
          dst KI i
        | _, Ir.F64 ->
          want KI v;
          dst KF i
        | _, _ -> want (dbank i) v))
    | Ir.Call (name, operands) -> (
      match Ir.classify_callee name with
      | Ir.Runtime fn -> check_runtime i fn operands
      | Ir.Runtime_unknown -> () (* trap closure *)
      | Ir.Intrinsic -> ()
      | Ir.Other -> (
        match Hashtbl.find_opt ftab name with
        | Some ci ->
          if List.length operands <> Array.length ci.fi_parbank then rej ();
          List.iteri (fun k v -> want ci.fi_parbank.(k) v) operands;
          if i.Ir.ity <> Ir.Void then (
            match ci.fi_ret with
            | KRnone -> () (* destination stays unwritten, like the reference *)
            | KRint -> dst KI i
            | KRfloat -> dst KF i)
        | None ->
          (* extern/builtin: operands evaluate boxed; any bank works,
             but [opbank] still rejects funcrefs and bad registers.
             The result is coerced into the destination bank. *)
          List.iter (fun v -> ignore (opbank v)) operands))
  in
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (p : Ir.phi) ->
          here := At_phi p;
          let pb = bank_of_ty p.Ir.pty in
          List.iter (fun (_, v) -> want pb v) p.Ir.incoming)
        b.Ir.phis;
      List.iter
        (fun i ->
          here := At_instr i;
          check_instr i)
        b.Ir.insts;
      here := At_term b.Ir.term;
      match b.Ir.term with
      | Ir.Cbr (c, _, _) -> want KI c
      | Ir.Switch (v, _, _) -> want KI v
      | _ -> () (* [Ret] shapes were met in pass 1 *))
    f.Ir.blocks

(* Every function's bank assignment, or the first construct that has
   none.  All or nothing per module: internal calls marshal arguments
   straight into the callee's banks. *)
let analyze (modul : Ir.modul) : kfinfo array =
  let infos = List.map analyze_banks modul.Ir.funcs in
  let ftab = Hashtbl.create 32 in
  (* last binding wins, like [st_func_ids] *)
  List.iter2
    (fun (f : Ir.func) fi -> Hashtbl.replace ftab f.Ir.fname fi)
    modul.Ir.funcs infos;
  List.iter2 (check_func ftab) modul.Ir.funcs infos;
  Array.of_list infos

(* --- register-bank layout --------------------------------------------- *)

(* Frame layout, in slots: [0] = return value, then registers, then
   arguments; phi scratch and interned constants are appended during
   lowering.  Computed for every function before any body is lowered,
   because call sites marshal arguments directly into the callee's
   slots. *)
type klayout = {
  kl_ireg : int array; (* reg -> int-bank byte offset, or -1 *)
  kl_freg : int array; (* reg -> float-bank index, or -1 *)
  kl_akind : int array; (* param -> 0 (int) / 1 (float) *)
  kl_aslot : int array; (* param -> byte offset / index, by kind *)
  kl_ni : int; (* int slots used so far *)
  kl_nf : int;
  kl_ret : kret;
}

let layout_of (f : Ir.func) (fi : kfinfo) : klayout =
  let nregs = f.Ir.next_reg in
  let ni = ref 1 and nf = ref 1 in
  let ireg = Array.make (max 1 nregs) (-1) in
  let freg = Array.make (max 1 nregs) (-1) in
  for r = 0 to nregs - 1 do
    match fi.fi_regbank.(r) with
    | KI ->
      ireg.(r) <- !ni * 8;
      incr ni
    | KF ->
      freg.(r) <- !nf;
      incr nf
  done;
  let np = Array.length fi.fi_parbank in
  let akind = Array.make np 0 and aslot = Array.make np 0 in
  for k = 0 to np - 1 do
    match fi.fi_parbank.(k) with
    | KI ->
      akind.(k) <- 0;
      aslot.(k) <- !ni * 8;
      incr ni
    | KF ->
      akind.(k) <- 1;
      aslot.(k) <- !nf;
      incr nf
  done;
  { kl_ireg = ireg;
    kl_freg = freg;
    kl_akind = akind;
    kl_aslot = aslot;
    kl_ni = !ni;
    kl_nf = !nf;
    kl_ret = fi.fi_ret }

(* --- register-bank function lowering ----------------------------------- *)

let compile_kfunc st (cost : Config.cost) (layouts : klayout array)
    (f : Ir.func) (fi : kfinfo) (kl : klayout) : kfunc =
  let barr = Ir.block_array f in
  let bidx = Ir.block_index_map f in
  let ni = ref kl.kl_ni and nf = ref kl.kl_nf in
  (* phi scratch: one slot per phi of the densest block, per bank *)
  let maxip = ref 0 and maxfp = ref 0 in
  List.iter
    (fun (b : Ir.block) ->
      let nip = ref 0 and nfp = ref 0 in
      List.iter
        (fun (p : Ir.phi) ->
          match bank_of_ty p.Ir.pty with KI -> incr nip | KF -> incr nfp)
        b.Ir.phis;
      maxip := max !maxip !nip;
      maxfp := max !maxfp !nfp)
    f.Ir.blocks;
  let iscr =
    Array.init !maxip (fun _ ->
        let o = !ni * 8 in
        incr ni;
        o)
  in
  let fscr =
    Array.init !maxfp (fun _ ->
        let o = !nf in
        incr nf;
        o)
  in
  (* constants are interned into the frame image *)
  let iconsts = Hashtbl.create 16 and fconsts = Hashtbl.create 16 in
  let iinit = ref [] and finit = ref [] in
  let iconst (x : int64) : int =
    match Hashtbl.find_opt iconsts x with
    | Some off -> off
    | None ->
      let off = !ni * 8 in
      incr ni;
      Hashtbl.add iconsts x off;
      if x <> 0L then iinit := (off, x) :: !iinit;
      off
  in
  let fconst (x : float) : int =
    let bits = Int64.bits_of_float x in
    match Hashtbl.find_opt fconsts bits with
    | Some idx -> idx
    | None ->
      let idx = !nf in
      incr nf;
      Hashtbl.add fconsts bits idx;
      if bits <> 0L then finit := (idx, x) :: !finit;
      idx
  in
  let opbank (v : Ir.value) : kbank =
    match v with
    | Ir.Const (Ir.Cfloat _) -> KF
    | Ir.Const _ -> KI
    | Ir.Reg r -> fi.fi_regbank.(r)
    | Ir.Arg k -> fi.fi_parbank.(k)
    | Ir.Global _ -> KI
    | Ir.Funcref _ -> assert false (* rejected by [check_func] *)
  in
  let icode (v : Ir.value) : int =
    match v with
    | Ir.Const c -> iconst (to_i64 (of_const c))
    | Ir.Reg r -> kl.kl_ireg.(r)
    | Ir.Arg k -> kl.kl_aslot.(k)
    | Ir.Global g -> -global_id st g - 1
    | Ir.Funcref _ -> assert false
  in
  let fidx (v : Ir.value) : int =
    match v with
    | Ir.Const (Ir.Cfloat x) -> fconst x
    | Ir.Reg r -> kl.kl_freg.(r)
    | Ir.Arg k -> kl.kl_aslot.(k)
    | _ -> assert false
  in
  (* boxed-value slot, for the extern boundary only *)
  let kslot (v : Ir.value) : kframe -> v =
    match v with
    | Ir.Const c ->
      let k = of_const c in
      fun _ -> k
    | Ir.Global g ->
      let gi = global_id st g in
      fun kf -> VI (Int64.of_int (kglobal kf gi))
    | (Ir.Reg _ | Ir.Arg _) as v -> (
      match opbank v with
      | KI ->
        let c = icode v in
        fun kf -> VI (iget kf c)
      | KF ->
        let ix = fidx v in
        fun kf -> VF (fget kf ix))
    | Ir.Funcref _ -> fun _ -> Ops.trap "function reference in value position"
  in
  (* runtime-call operand getters; a missing operand raises the
     reference's [Failure "nth"] at its evaluation point *)
  let kint operands n : kframe -> int =
    match List.nth_opt operands n with
    | Some v ->
      let c = icode v in
      fun kf -> igeta kf c
    | None -> fun _ -> raise (Failure "nth")
  in
  let ki64 operands n : kframe -> int64 =
    match List.nth_opt operands n with
    | Some v ->
      let c = icode v in
      fun kf -> iget kf c
    | None -> fun _ -> raise (Failure "nth")
  in
  let kf64 operands n : kframe -> float =
    match List.nth_opt operands n with
    | Some v ->
      let ix = fidx v in
      fun kf -> fget kf ix
    | None -> fun _ -> raise (Failure "nth")
  in
  let krt operands n : kframe -> Local_buffer.v =
    match List.nth_opt operands n with
    | Some v -> (
      match opbank v with
      | KI ->
        let c = icode v in
        fun kf -> Local_buffer.Vi (iget kf c)
      | KF ->
        let ix = fidx v in
        fun kf -> Local_buffer.Vf (fget kf ix))
    | None -> fun _ -> raise (Failure "nth")
  in
  (* destination of instruction [i]: kind (-1 none / 0 int / 1 float)
     and slot *)
  let kdst (i : Ir.instr) : int * int =
    if i.Ir.ity = Ir.Void then (-1, 0)
    else
      match bank_of_ty i.Ir.ity with
      | KI -> (0, kl.kl_ireg.(i.Ir.id))
      | KF -> (1, kl.kl_freg.(i.Ir.id))
  in
  (* One closure per runtime call site, mirroring
     [Reference.exec_runtime_call]: mode check first, then arguments,
     then the Thread_manager entry.  Runtime calls charge their own
     model costs — no instr tick. *)
  let compile_kruntime fn (operands : Ir.value list) (i : Ir.instr) :
      kframe -> unit =
    let dk, ds = kdst i in
    let put_i kf n = if dk >= 0 then iset kf ds (Int64.of_int n) in
    let put_b kf b = if dk >= 0 then iset kf ds (if b then 1L else 0L) in
    (* transfer value coerced into the statically chosen bank; a kind
       mismatch trips the same [Invalid_argument] as [to_i64]/[to_f64]
       would in the reference, eagerly at the write instead of at the
       first use (only ill-typed IR can tell the difference) *)
    let put_rt kf (r : Local_buffer.v) =
      if dk >= 0 then
        match r with
        | Local_buffer.Vi n ->
          if dk = 0 then iset kf ds n else invalid_arg "Value.to_f64: int"
        | Local_buffer.Vf x ->
          if dk = 1 then fset kf ds x else invalid_arg "Value.to_i64: float"
    in
    match (fn : Ir.runtime_fn) with
    | Ir.Rt_get_cpu ->
      let g0 = kint operands 0 and g1 = kint operands 1 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        (* bits 0-1: fork model; bit 2: store-free (expandable) flag *)
        let mi = g0 kf in
        let model = Config.model_of_int (mi land 3) in
        put_i kf
          (Thread_manager.get_cpu mgr td ~model ~expandable:(mi land 4 <> 0)
             ~point:(g1 kf))
    | Ir.Rt_set_fork_reg ->
      let g0 = kint operands 0
      and g1 = kint operands 1
      and g2 = krt operands 2 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.set_fork_reg mgr td ~rank:(g0 kf) ~off:(g1 kf) (g2 kf)
    | Ir.Rt_set_fork_addr ->
      let g0 = kint operands 0
      and g1 = kint operands 1
      and g2 = kint operands 2 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.set_fork_addr mgr td ~rank:(g0 kf) ~off:(g1 kf) (g2 kf)
    | Ir.Rt_validate_local ->
      let g0 = kint operands 0
      and g1 = kint operands 1
      and g2 = kint operands 2
      and g3 = krt operands 3 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.validate_local mgr td ~rank:(g0 kf) ~point:(g1 kf)
          ~off:(g2 kf) (g3 kf)
    | Ir.Rt_speculate ->
      let g0 = kint operands 0 and g1 = kint operands 1 in
      let stub =
        match List.nth_opt operands 2 with
        | Some (Ir.Funcref f) -> (
          match Hashtbl.find_opt st.st_func_ids f with
          | Some id -> Sok id
          | None -> Sunknown f)
        | Some _ -> Sbadop
        | None -> Snth
      in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        let rank = g0 kf and counter = g1 kf in
        (match stub with
        | Sok _ | Sunknown _ -> ()
        | Sbadop -> Ops.trap "MUTLS_speculate: expected a function reference"
        | Snth -> raise (Failure "nth"));
        Thread_manager.speculate mgr td ~rank ~counter (fun child ->
            run_speculative kf.kec child stub)
    | Ir.Rt_entry_counter ->
      fun kf ->
        let _, td = emgr_td kf.kec in
        put_i kf td.Thread_data.entry_counter
    | Ir.Rt_get_fork_reg ->
      let g0 = kint operands 0 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        put_rt kf (Thread_manager.get_fork_reg mgr td ~off:(g0 kf))
    | Ir.Rt_pick_stackaddr ->
      let g0 = kint operands 0
      and g1 = kint operands 1
      and g2 = kint operands 2 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        put_i kf
          (Thread_manager.pick_stackaddr mgr td ~counter:(g0 kf) ~off:(g1 kf)
             ~own_addr:(g2 kf))
    | Ir.Rt_load size ->
      (* hot path: the mode match is inlined to avoid [emgr_td]'s
         tuple, and the result goes straight into the int bank *)
      let g0 = kint operands 0 in
      fun kf -> (
        match kf.kec.mode with
        | Tls (mgr, td) ->
          let x = Thread_manager.spec_load mgr td ~addr:(g0 kf) ~size in
          if dk >= 0 then iset kf ds x
        | Seq _ -> Ops.trap "TLS runtime call in sequential mode")
    | Ir.Rt_load_f64 ->
      let g0 = kint operands 0 in
      fun kf -> (
        match kf.kec.mode with
        | Tls (mgr, td) ->
          let x =
            Int64.float_of_bits
              (Thread_manager.spec_load mgr td ~addr:(g0 kf) ~size:8)
          in
          if dk >= 0 then fset kf ds x
        | Seq _ -> Ops.trap "TLS runtime call in sequential mode")
    | Ir.Rt_store size ->
      let g0 = ki64 operands 0 and g1 = kint operands 1 in
      fun kf -> (
        match kf.kec.mode with
        | Tls (mgr, td) ->
          Thread_manager.spec_store mgr td ~addr:(g1 kf) ~size (g0 kf)
        | Seq _ -> Ops.trap "TLS runtime call in sequential mode")
    | Ir.Rt_store_f64 ->
      let g0 = kf64 operands 0 and g1 = kint operands 1 in
      fun kf -> (
        match kf.kec.mode with
        | Tls (mgr, td) ->
          Thread_manager.spec_store mgr td ~addr:(g1 kf) ~size:8
            (Int64.bits_of_float (g0 kf))
        | Seq _ -> Ops.trap "TLS runtime call in sequential mode")
    | Ir.Rt_save_regvar ->
      let g0 = kint operands 0 and g1 = krt operands 1 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.save_regvar mgr td ~off:(g0 kf) (g1 kf)
    | Ir.Rt_save_stackvar ->
      let g0 = kint operands 0
      and g1 = kint operands 1
      and g2 = kint operands 2 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.save_stackvar mgr td ~off:(g0 kf) ~addr:(g1 kf)
          ~size:(g2 kf)
    | Ir.Rt_check_point ->
      let g0 = kint operands 0 in
      fun kf -> (
        match kf.kec.mode with
        | Tls (mgr, td) ->
          let b = Thread_manager.check_point mgr td ~counter:(g0 kf) in
          if dk >= 0 then iset kf ds (if b then 1L else 0L)
        | Seq _ -> Ops.trap "TLS runtime call in sequential mode")
    | Ir.Rt_commit ->
      let g0 = kint operands 0 in
      fun kf -> (
        match kf.kec.mode with
        | Tls (mgr, td) -> Thread_manager.commit mgr td ~counter:(g0 kf)
        | Seq _ -> Ops.trap "TLS runtime call in sequential mode")
    | Ir.Rt_terminate_point ->
      let g0 = kint operands 0 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.terminate_point mgr td ~counter:(g0 kf)
    | Ir.Rt_barrier_point ->
      let g0 = kint operands 0 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.barrier_point mgr td ~counter:(g0 kf)
    | Ir.Rt_return_point ->
      let g0 = kint operands 0 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.return_point mgr td ~counter:(g0 kf)
    | Ir.Rt_enter_point ->
      let g0 = kint operands 0 in
      fun kf -> (
        match kf.kec.mode with
        | Tls (mgr, td) -> Thread_manager.enter_point mgr td ~counter:(g0 kf)
        | Seq _ -> Ops.trap "TLS runtime call in sequential mode")
    | Ir.Rt_ptr_int_cast ->
      let g0 = kint operands 0 and g1 = kint operands 1 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.ptr_int_cast mgr td ~counter:(g0 kf) (g1 kf)
    | Ir.Rt_synchronize ->
      let g0 = kint operands 0 and g1 = kint operands 1 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        put_b kf
          (Thread_manager.synchronize mgr td ~point:(g0 kf) ~rank:(g1 kf))
    | Ir.Rt_sync_counter ->
      fun kf ->
        let _, td = emgr_td kf.kec in
        put_i kf td.Thread_data.last_sync_counter
    | Ir.Rt_sync_rank ->
      fun kf ->
        let _, td = emgr_td kf.kec in
        put_i kf td.Thread_data.last_sync_rank
    | Ir.Rt_sync_entry ->
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        put_i kf (Thread_manager.sync_entry mgr td)
    | Ir.Rt_bad_sync ->
      let g0 = kint operands 0 in
      fun kf ->
        let _, td = emgr_td kf.kec in
        Ops.trap "synchronization counter %d has no restore target (rank %d)"
          (g0 kf) td.Thread_data.rank
    | Ir.Rt_restore_regvar is_ptr ->
      let g0 = kint operands 0 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        put_rt kf
          (Thread_manager.restore_regvar mgr td ~off:(g0 kf) ~is_ptr)
    | Ir.Rt_restore_stackvar ->
      let g0 = kint operands 0
      and g1 = kint operands 1
      and g2 = kint operands 2 in
      fun kf ->
        let mgr, td = emgr_td kf.kec in
        Thread_manager.restore_stackvar mgr td ~off:(g0 kf) ~addr:(g1 kf)
          ~size:(g2 kf)
  in
  (* Reference order for an internal call: instr tick, call tick,
     arguments, callee.  For an extern: instr tick, arguments, call
     tick, action. *)
  let compile_kcall name (operands : Ir.value list) (i : Ir.instr) :
      kframe -> unit =
    let ci = cost.Config.instr and cc = cost.Config.call in
    let dk, ds = kdst i in
    match Hashtbl.find_opt st.st_func_ids name with
    | Some callee_id ->
      (* [check_func] guarantees arity and banks match the callee's
         layout, so arguments marshal unboxed into its slots *)
      let clay = layouts.(callee_id) in
      let n = List.length operands in
      let akind = Array.make (max 1 n) 0 in
      let asrc = Array.make (max 1 n) 0 in
      List.iteri
        (fun k v ->
          match opbank v with
          | KI ->
            akind.(k) <- 0;
            asrc.(k) <- icode v
          | KF ->
            akind.(k) <- 1;
            asrc.(k) <- fidx v)
        operands;
      let adst = clay.kl_aslot in
      let retk = clay.kl_ret in
      fun kf ->
        let ec = kf.kec in
        etick ec ci;
        etick ec cc;
        let callee = Array.unsafe_get ec.prog.kfuncs callee_id in
        let cfr = kframe_of ec callee in
        for k = 0 to n - 1 do
          if Array.unsafe_get akind k = 0 then
            Bytes.set_int64_le cfr.kib
              (Array.unsafe_get adst k)
              (iget kf (Array.unsafe_get asrc k))
          else
            Array.unsafe_set cfr.kfb
              (Array.unsafe_get adst k)
              (fget kf (Array.unsafe_get asrc k))
        done;
        exec_kframe ec callee cfr;
        (match retk with
        | KRint -> if dk >= 0 then iset kf ds (Bytes.get_int64_le cfr.kib 0)
        | KRfloat -> if dk >= 0 then fset kf ds cfr.kfb.(0)
        | KRnone -> ())
    | None ->
      (* externs and builtins take boxed arguments, as in the
         reference; the result is coerced into the destination bank (eager trap
         on a kind mismatch — see the boundary note above) *)
      let slots = Array.of_list (List.map kslot operands) in
      let put_v kf (x : v) =
        if dk >= 0 then
          match x with
          | VI n ->
            if dk = 0 then iset kf ds n else invalid_arg "Value.to_f64: int"
          | VF x ->
            if dk = 1 then fset kf ds x else invalid_arg "Value.to_i64: float"
      in
      (match name with
      | "print_int" ->
        fun kf ->
          let ec = kf.kec in
          etick ec ci;
          let args = evals slots kf in
          etick ec cc;
          Buffer.add_string ec.out (Int64.to_string (to_i64 (List.hd args)))
      | "print_float" ->
        fun kf ->
          let ec = kf.kec in
          etick ec ci;
          let args = evals slots kf in
          etick ec cc;
          Buffer.add_string ec.out (Printf.sprintf "%.6g" (to_f64 (List.hd args)))
      | "print_char" ->
        fun kf ->
          let ec = kf.kec in
          etick ec ci;
          let args = evals slots kf in
          etick ec cc;
          Buffer.add_char ec.out
            (Char.chr (Int64.to_int (to_i64 (List.hd args)) land 0xff))
      | "print_newline" ->
        fun kf ->
          let ec = kf.kec in
          etick ec ci;
          let args = evals slots kf in
          etick ec cc;
          ignore args;
          Buffer.add_char ec.out '\n'
      | "malloc" ->
        fun kf ->
          let ec = kf.kec in
          etick ec ci;
          let args = evals slots kf in
          etick ec cc;
          let size = Int64.to_int (to_i64 (List.hd args)) in
          let addr = Memory.malloc ec.mem size in
          (match ec.mode with
          | Tls (mgr, _) ->
            Thread_manager.register_range mgr addr (Memory.align8 (max 8 size))
          | Seq _ -> ());
          put_v kf (VI (Int64.of_int addr))
      | "free" ->
        fun kf ->
          let ec = kf.kec in
          etick ec ci;
          let args = evals slots kf in
          etick ec cc;
          let addr = to_addr (List.hd args) in
          (match Memory.free ec.mem addr with
          | Some size -> (
            match ec.mode with
            | Tls (mgr, _) -> Thread_manager.unregister_range mgr addr size
            | Seq _ -> ())
          | None -> ())
      | _ -> (
        match Externs.lookup name with
        | Some f ->
          fun kf ->
            let ec = kf.kec in
            etick ec ci;
            let args = evals slots kf in
            etick ec cc;
            (match f args with
            | Some (Externs.Ret v) -> put_v kf v
            | Some Externs.Ret_void -> ()
            | None -> Ops.trap "call to unknown extern @%s" name)
        | None ->
          fun kf ->
            let ec = kf.kec in
            etick ec ci;
            let args = evals slots kf in
            etick ec cc;
            ignore args;
            Ops.trap "call to unknown extern @%s" name))
  in
  let compile_kop (i : Ir.instr) : kframe -> unit =
    match i.Ir.kind with
    | Ir.Binop (op, ty, a, b) -> (
      match op with
      | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv ->
        let d = kl.kl_freg.(i.Ir.id) and xa = fidx a and xb = fidx b in
        (match op with
        | Ir.Fadd -> fun kf -> fset kf d (fget kf xa +. fget kf xb)
        | Ir.Fsub -> fun kf -> fset kf d (fget kf xa -. fget kf xb)
        | Ir.Fmul -> fun kf -> fset kf d (fget kf xa *. fget kf xb)
        | Ir.Fdiv -> fun kf -> fset kf d (fget kf xa /. fget kf xb)
        | _ -> assert false)
      | _ -> (
        (* one body per opcode, parameterized on the truncation mask
           and sign-extension shift; semantics are [Ops.binop_i]'s,
           inlined so the int64s stay unboxed.  The second operand
           evaluates first, like the reference's right-to-left
           application. *)
        let d = kl.kl_ireg.(i.Ir.id) and ca = icode a and cb = icode b in
        let m = Ops.mask_of ty and s = Ops.sshift_of ty in
        ignore s;
        match op with
        | Ir.Add ->
          fun kf ->
            iset kf d (Int64.logand m (Int64.add (iget kf ca) (iget kf cb)))
        | Ir.Sub ->
          fun kf ->
            iset kf d (Int64.logand m (Int64.sub (iget kf ca) (iget kf cb)))
        | Ir.Mul ->
          fun kf ->
            iset kf d (Int64.logand m (Int64.mul (iget kf ca) (iget kf cb)))
        | Ir.Sdiv ->
          fun kf ->
            let y = iget kf cb in
            let x = iget kf ca in
            if y = 0L then raise (Ops.Trap "division by zero")
            else
              iset kf d
                (Int64.logand m
                   (Int64.div
                      (Int64.shift_right (Int64.shift_left x s) s)
                      (Int64.shift_right (Int64.shift_left y s) s)))
        | Ir.Srem ->
          fun kf ->
            let y = iget kf cb in
            let x = iget kf ca in
            if y = 0L then raise (Ops.Trap "remainder by zero")
            else
              iset kf d
                (Int64.logand m
                   (Int64.rem
                      (Int64.shift_right (Int64.shift_left x s) s)
                      (Int64.shift_right (Int64.shift_left y s) s)))
        | Ir.And ->
          fun kf -> iset kf d (Int64.logand (iget kf ca) (iget kf cb))
        | Ir.Or ->
          fun kf ->
            iset kf d (Int64.logand m (Int64.logor (iget kf ca) (iget kf cb)))
        | Ir.Xor ->
          fun kf ->
            iset kf d (Int64.logand m (Int64.logxor (iget kf ca) (iget kf cb)))
        | Ir.Shl ->
          fun kf ->
            let y = iget kf cb in
            let x = iget kf ca in
            iset kf d
              (Int64.logand m (Int64.shift_left x (Int64.to_int y land 63)))
        | Ir.Lshr ->
          fun kf ->
            let y = iget kf cb in
            let x = iget kf ca in
            iset kf d
              (Int64.logand m
                 (Int64.shift_right_logical x (Int64.to_int y land 63)))
        | Ir.Ashr ->
          fun kf ->
            let y = iget kf cb in
            let x = iget kf ca in
            iset kf d
              (Int64.logand m
                 (Int64.shift_right
                    (Int64.shift_right (Int64.shift_left x s) s)
                    (Int64.to_int y land 63)))
        | Ir.Fadd | Ir.Fsub | Ir.Fmul | Ir.Fdiv -> assert false))
    | Ir.Icmp (op, ty, a, b) -> (
      let d = kl.kl_ireg.(i.Ir.id) and ca = icode a and cb = icode b in
      let s = Ops.sshift_of ty in
      match op with
      | Ir.Ieq ->
        fun kf ->
          let y = iget kf cb in
          let x = iget kf ca in
          iset kf d (if x = y then 1L else 0L)
      | Ir.Ine ->
        fun kf ->
          let y = iget kf cb in
          let x = iget kf ca in
          iset kf d (if x <> y then 1L else 0L)
      | Ir.Islt ->
        fun kf ->
          let y = Int64.shift_right (Int64.shift_left (iget kf cb) s) s in
          let x = Int64.shift_right (Int64.shift_left (iget kf ca) s) s in
          iset kf d (if x < y then 1L else 0L)
      | Ir.Isle ->
        fun kf ->
          let y = Int64.shift_right (Int64.shift_left (iget kf cb) s) s in
          let x = Int64.shift_right (Int64.shift_left (iget kf ca) s) s in
          iset kf d (if x <= y then 1L else 0L)
      | Ir.Isgt ->
        fun kf ->
          let y = Int64.shift_right (Int64.shift_left (iget kf cb) s) s in
          let x = Int64.shift_right (Int64.shift_left (iget kf ca) s) s in
          iset kf d (if x > y then 1L else 0L)
      | Ir.Isge ->
        fun kf ->
          let y = Int64.shift_right (Int64.shift_left (iget kf cb) s) s in
          let x = Int64.shift_right (Int64.shift_left (iget kf ca) s) s in
          iset kf d (if x >= y then 1L else 0L))
    | Ir.Fcmp (op, a, b) -> (
      let d = kl.kl_ireg.(i.Ir.id) and xa = fidx a and xb = fidx b in
      match op with
      | Ir.Feq ->
        fun kf -> iset kf d (if fget kf xa = fget kf xb then 1L else 0L)
      | Ir.Fne ->
        fun kf -> iset kf d (if fget kf xa <> fget kf xb then 1L else 0L)
      | Ir.Flt ->
        fun kf -> iset kf d (if fget kf xa < fget kf xb then 1L else 0L)
      | Ir.Fle ->
        fun kf -> iset kf d (if fget kf xa <= fget kf xb then 1L else 0L)
      | Ir.Fgt ->
        fun kf -> iset kf d (if fget kf xa > fget kf xb then 1L else 0L)
      | Ir.Fge ->
        fun kf -> iset kf d (if fget kf xa >= fget kf xb then 1L else 0L))
    | Ir.Alloca size ->
      let d = kl.kl_ireg.(i.Ir.id) in
      let asize = Memory.align8 size in
      fun kf ->
        let ec = kf.kec in
        let addr = Memory.align8 ec.sp in
        if addr + size > ec.stack_limit then
          Ops.trap "stack overflow in @%s" f.Ir.fname;
        ec.sp <- addr + asize;
        iset kf d (Int64.of_int addr)
    | Ir.Load (ty, a) -> (
      match ty with
      | Ir.I64 | Ir.Ptr ->
        let d = kl.kl_ireg.(i.Ir.id) and ca = icode a in
        fun kf -> iset kf d (Memory.read_i64 kf.kec.mem (igeta kf ca))
      | Ir.F64 ->
        let d = kl.kl_freg.(i.Ir.id) and ca = icode a in
        fun kf -> fset kf d (Memory.read_f64 kf.kec.mem (igeta kf ca))
      | Ir.I32 ->
        let d = kl.kl_ireg.(i.Ir.id) and ca = icode a in
        fun kf -> iset kf d (Memory.read_i32 kf.kec.mem (igeta kf ca))
      | Ir.I8 | Ir.I1 ->
        let d = kl.kl_ireg.(i.Ir.id) and ca = icode a in
        fun kf -> iset kf d (Memory.read_i8 kf.kec.mem (igeta kf ca))
      | Ir.Void -> fun _ -> Ops.trap "load void")
    | Ir.Store (ty, v, a) -> (
      (* value before address, like the reference *)
      match ty with
      | Ir.I64 | Ir.Ptr ->
        let cv = icode v and ca = icode a in
        fun kf ->
          let x = iget kf cv in
          Memory.write_i64 kf.kec.mem (igeta kf ca) x
      | Ir.F64 ->
        let xv = fidx v and ca = icode a in
        fun kf ->
          let x = fget kf xv in
          Memory.write_f64 kf.kec.mem (igeta kf ca) x
      | Ir.I32 ->
        let cv = icode v and ca = icode a in
        fun kf ->
          let x = iget kf cv in
          Memory.write_i32 kf.kec.mem (igeta kf ca) x
      | Ir.I8 | Ir.I1 ->
        let cv = icode v and ca = icode a in
        fun kf ->
          let x = iget kf cv in
          Memory.write_i8 kf.kec.mem (igeta kf ca) x
      | Ir.Void -> fun _ -> Ops.trap "store void")
    | Ir.Ptradd (a, o) ->
      let d = kl.kl_ireg.(i.Ir.id) and ca = icode a and co = icode o in
      fun kf ->
        let y = iget kf co in
        let x = iget kf ca in
        iset kf d (Int64.add x y)
    | Ir.Select (c, a, b) -> (
      let cc = icode c in
      match bank_of_ty i.Ir.ity with
      | KI ->
        let d = kl.kl_ireg.(i.Ir.id) and ca = icode a and cb = icode b in
        fun kf ->
          iset kf d (if iget kf cc <> 0L then iget kf ca else iget kf cb)
      | KF ->
        let d = kl.kl_freg.(i.Ir.id) and xa = fidx a and xb = fidx b in
        fun kf ->
          fset kf d (if iget kf cc <> 0L then fget kf xa else fget kf xb))
    | Ir.Cast (c, t1, t2, v) -> (
      match c with
      | Ir.Trunc ->
        let d = kl.kl_ireg.(i.Ir.id) and cv = icode v in
        let m = Ops.mask_of t2 in
        fun kf -> iset kf d (Int64.logand m (iget kf cv))
      | Ir.Zext | Ir.Ptrtoint | Ir.Inttoptr ->
        let d = kl.kl_ireg.(i.Ir.id) and cv = icode v in
        fun kf -> iset kf d (iget kf cv)
      | Ir.Sext ->
        let d = kl.kl_ireg.(i.Ir.id) and cv = icode v in
        let m = Ops.mask_of t2 and s = Ops.sshift_of t1 in
        fun kf ->
          iset kf d
            (Int64.logand m
               (Int64.shift_right (Int64.shift_left (iget kf cv) s) s))
      | Ir.Fptosi ->
        let d = kl.kl_ireg.(i.Ir.id) and xv = fidx v in
        let m = Ops.mask_of t2 in
        fun kf -> iset kf d (Int64.logand m (Int64.of_float (fget kf xv)))
      | Ir.Sitofp ->
        let d = kl.kl_freg.(i.Ir.id) and cv = icode v in
        let s = Ops.sshift_of t1 in
        fun kf ->
          fset kf d
            (Int64.to_float
               (Int64.shift_right (Int64.shift_left (iget kf cv) s) s))
      | Ir.Bitcast -> (
        match (t1, t2) with
        | Ir.F64, _ ->
          let d = kl.kl_ireg.(i.Ir.id) and xv = fidx v in
          fun kf -> iset kf d (Int64.bits_of_float (fget kf xv))
        | _, Ir.F64 ->
          let d = kl.kl_freg.(i.Ir.id) and cv = icode v in
          fun kf -> fset kf d (Int64.float_of_bits (iget kf cv))
        | _, _ -> (
          match bank_of_ty i.Ir.ity with
          | KI ->
            let d = kl.kl_ireg.(i.Ir.id) and cv = icode v in
            fun kf -> iset kf d (iget kf cv)
          | KF ->
            let d = kl.kl_freg.(i.Ir.id) and xv = fidx v in
            fun kf -> fset kf d (fget kf xv))))
    | Ir.Call _ -> assert false (* handled by the block compiler *)
  in
  let kedge_to pred_name ti =
    let tb = barr.(ti) in
    match tb.Ir.phis with
    | [] -> KEok { ktgt = ti; kmoves = [||]; kwrites = [||] }
    | [ p ] -> (
      (* single phi: no parallel-move hazard, move directly *)
      match List.assoc_opt pred_name p.Ir.incoming with
      | Some v ->
        let mv =
          match bank_of_ty p.Ir.pty with
          | KI ->
            let d = kl.kl_ireg.(p.Ir.pid) and c = icode v in
            fun kf -> iset kf d (iget kf c)
          | KF ->
            let d = kl.kl_freg.(p.Ir.pid) and x = fidx v in
            fun kf -> fset kf d (fget kf x)
        in
        KEok { ktgt = ti; kmoves = [| mv |]; kwrites = [||] }
      | None ->
        KEtrap
          { kpre = [||];
            kmsg =
              Printf.sprintf "phi in %s has no incoming for %s" tb.Ir.bname
                pred_name })
    | phis ->
      let rec build nri nrf moves writes = function
        | [] ->
          KEok
            { ktgt = ti;
              kmoves = Array.of_list (List.rev moves);
              kwrites = Array.of_list (List.rev writes) }
        | (p : Ir.phi) :: rest -> (
          match List.assoc_opt pred_name p.Ir.incoming with
          | Some v -> (
            match bank_of_ty p.Ir.pty with
            | KI ->
              let sc = iscr.(nri)
              and d = kl.kl_ireg.(p.Ir.pid)
              and c = icode v in
              build (nri + 1) nrf
                ((fun kf -> iset kf sc (iget kf c)) :: moves)
                ((fun kf -> iset kf d (iget kf sc)) :: writes)
                rest
            | KF ->
              let sc = fscr.(nrf)
              and d = kl.kl_freg.(p.Ir.pid)
              and x = fidx v in
              build nri (nrf + 1)
                ((fun kf -> fset kf sc (fget kf x)) :: moves)
                ((fun kf -> fset kf d (fget kf sc)) :: writes)
                rest)
          | None ->
            KEtrap
              { kpre = Array.of_list (List.rev moves);
                kmsg =
                  Printf.sprintf "phi in %s has no incoming for %s" tb.Ir.bname
                    pred_name })
      in
      build 0 0 [] [] phis
  in
  let kedge pred_name tname =
    match Hashtbl.find_opt bidx tname with
    | Some ti -> kedge_to pred_name ti
    | None ->
      KEtrap
        { kpre = [||];
          kmsg = Printf.sprintf "unknown block %s in @%s" tname f.Ir.fname }
  in
  let compile_kblock (b : Ir.block) : kblock =
    let items_rev = ref [] in
    let ops_rev = ref [] and nops = ref 0 in
    let ticks_rev = ref [] and nticks = ref 0 in
    let counts_rev = ref [] in
    let push_tick c =
      ticks_rev := c :: !ticks_rev;
      incr nticks
    in
    let add_op op ticks =
      List.iter push_tick ticks;
      ops_rev := op :: !ops_rev;
      incr nops;
      counts_rev := List.length ticks :: !counts_rev
    in
    let flush_seg () =
      if !nops > 0 || !nticks > 0 then begin
        items_rev :=
          Kseg
            { kops = Array.of_list (List.rev !ops_rev);
              kticks = Array.of_list (List.rev !ticks_rev);
              kcounts = Array.of_list (List.rev !counts_rev) }
          :: !items_rev;
        ops_rev := [];
        nops := 0;
        ticks_rev := [];
        nticks := 0;
        counts_rev := []
      end
    in
    List.iter
      (fun (i : Ir.instr) ->
        match i.Ir.kind with
        | Ir.Call (name, operands) -> (
          match Ir.classify_callee name with
          | Ir.Runtime fn ->
            flush_seg ();
            items_rev :=
              Kcall (compile_kruntime fn operands i) :: !items_rev
          | Ir.Runtime_unknown ->
            flush_seg ();
            items_rev :=
              Kcall
                (fun kf ->
                  let _ = emgr_td kf.kec in
                  Ops.trap "unknown runtime call @%s" name)
              :: !items_rev
          | Ir.Intrinsic ->
            (* sequential no-op, but it costs one instr tick *)
            add_op (fun _ -> ()) [ cost.Config.instr ]
          | Ir.Other ->
            flush_seg ();
            items_rev := Kcall (compile_kcall name operands i) :: !items_rev)
        | Ir.Load _ | Ir.Store _ ->
          add_op (compile_kop i) [ cost.Config.instr; cost.Config.mem ]
        | _ -> add_op (compile_kop i) [ cost.Config.instr ])
      b.Ir.insts;
    (* the terminator's tick is the segment's trailing tick *)
    push_tick cost.Config.instr;
    flush_seg ();
    let kterm =
      match b.Ir.term with
      | Ir.Ret None -> KTret_void
      | Ir.Ret (Some v) -> (
        match opbank v with
        | KI -> KTret_i (icode v)
        | KF -> KTret_f (fidx v))
      | Ir.Br l -> KTbr (kedge b.Ir.bname l)
      | Ir.Cbr (c, l1, l2) ->
        KTcbr (icode c, kedge b.Ir.bname l1, kedge b.Ir.bname l2)
      | Ir.Switch (v, d, cases) ->
        let seen = Hashtbl.create 16 in
        let uniq =
          List.filter
            (fun (k, _) ->
              if Hashtbl.mem seen k then false
              else begin
                Hashtbl.add seen k ();
                true
              end)
            cases
        in
        let arr = Array.of_list uniq in
        Array.sort (fun (a, _) (b, _) -> Int64.compare a b) arr;
        KTswitch
          ( icode v,
            Array.map fst arr,
            Array.map (fun (_, l) -> kedge b.Ir.bname l) arr,
            kedge b.Ir.bname d )
      | Ir.Unreachable ->
        KTunreachable
          (Printf.sprintf "unreachable executed in @%s/%s" f.Ir.fname
             b.Ir.bname)
    in
    { kitems = Array.of_list (List.rev !items_rev); kterm }
  in
  let k_blocks = Array.map compile_kblock barr in
  let k_entry =
    if Array.length barr > 0 && barr.(0).Ir.phis <> [] then
      Some (kedge_to "" 0)
    else None
  in
  let image = Bytes.make (!ni * 8) '\000' in
  List.iter (fun (off, x) -> Bytes.set_int64_le image off x) !iinit;
  let fimage =
    (* slot 0 is the float return; a function with no float slots
       beyond it touches no floats at all (a float return operand
       would have allocated one), so the frame shares [empty_floats] *)
    if !nf <= 1 then [||]
    else begin
      let a = Array.make !nf 0.0 in
      List.iter (fun (ix, x) -> a.(ix) <- x) !finit;
      a
    end
  in
  { k_name = f.Ir.fname;
    k_image = image;
    k_fimage = fimage;
    k_akind = kl.kl_akind;
    k_aslot = kl.kl_aslot;
    k_ret = kl.kl_ret;
    k_entry;
    k_blocks }

let compile ?(cost = Config.default_cost) (modul : Ir.modul) : prog =
  let st =
    { st_func_ids = Hashtbl.create 32;
      st_globals = Hashtbl.create 32;
      st_nglobals = 0 }
  in
  (* ids first: bodies resolve callees against the final table, and a
     duplicate name resolves to its last binding (as with hash-based
     name lookup in the reference) *)
  List.iteri
    (fun i (f : Ir.func) -> Hashtbl.replace st.st_func_ids f.Ir.fname i)
    modul.Ir.funcs;
  (* lowering interns globals through [st], so it must run before
     global names are materialized *)
  let kfuncs, rejected =
    match analyze modul with
    | infos ->
      let funcs = Array.of_list modul.Ir.funcs in
      let layouts = Array.map2 layout_of funcs infos in
      ( Array.init (Array.length funcs) (fun i ->
            compile_kfunc st cost layouts funcs.(i) infos.(i) layouts.(i)),
        None )
    | exception Not_bankable (fname, what) ->
      ( [||],
        Some
          (Printf.sprintf "cannot lower @%s onto register banks: %s" fname
             what) )
  in
  let gnames = Array.make (max 1 st.st_nglobals) "" in
  Hashtbl.iter (fun g i -> gnames.(i) <- g) st.st_globals;
  { modul;
    cost;
    kfuncs;
    rejected;
    func_ids = st.st_func_ids;
    nglobals = st.st_nglobals;
    gnames }

(* --- running a compiled program --------------------------------------- *)

let cost_of prog = prog.cost
let modul_of prog = prog.modul
let nglobals prog = prog.nglobals

let make_ectx prog ~mem ~mode ~out ~sp ~stack_limit =
  { prog;
    mem;
    mode;
    out;
    gcache = Array.make (max 1 prog.nglobals) (-1);
    sp;
    stack_limit }

let call ec name (args : v array) =
  let prog = ec.prog in
  match prog.rejected with
  | Some msg -> raise (Ops.Trap msg)
  | None -> (
    match Hashtbl.find_opt prog.func_ids name with
    | Some id -> exec_kfunc_boxed ec prog.kfuncs.(id) args
    | None -> Ops.trap "call to unknown function @%s" name)
