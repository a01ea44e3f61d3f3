(* Promotion of entry-block allocas to SSA registers (LLVM's mem2reg).
   Front-ends emit every local variable as an alloca + load/store; this
   pass rewrites scalar locals into SSA form with phi nodes so that the
   speculator pass sees "register variables" exactly as the paper's
   LLVM-based implementation does.  Allocas whose address escapes
   (passed to a call, offset with ptradd, stored, cast) are left in
   place — those are the paper's "stack variables". *)

open Ir

type alloca_info = {
  a_reg : reg;
  mutable a_ty : ty option; (* uniform access type, if any *)
  mutable a_promotable : bool;
  a_size : int;
}

let collect_allocas (f : func) =
  let infos = Hashtbl.create 16 in
  let entry = entry_block f in
  List.iter
    (fun i ->
      match i.kind with
      | Alloca n when n = 1 || n = 4 || n = 8 ->
        Hashtbl.replace infos i.id
          { a_reg = i.id; a_ty = None; a_promotable = true; a_size = n }
      | _ -> ())
    entry.insts;
  (* Scan all uses; disqualify escapes and mixed-type accesses. *)
  let note_access info t =
    if ty_size t <> info.a_size then info.a_promotable <- false
    else
      match info.a_ty with
      | None -> info.a_ty <- Some t
      | Some t0 -> if t0 <> t then info.a_promotable <- false
  in
  let check_value_escape v =
    match v with
    | Reg r -> (
      match Hashtbl.find_opt infos r with
      | Some info -> info.a_promotable <- false
      | None -> ())
    | _ -> ()
  in
  List.iter
    (fun b ->
      List.iter
        (fun p -> List.iter (fun (_, v) -> check_value_escape v) p.incoming)
        b.phis;
      List.iter
        (fun i ->
          match i.kind with
          | Load (t, Reg r) -> (
            match Hashtbl.find_opt infos r with
            | Some info -> note_access info t
            | None -> ())
          | Store (t, v, Reg r) -> (
            check_value_escape v;
            match Hashtbl.find_opt infos r with
            | Some info -> note_access info t
            | None -> ())
          | _ -> List.iter check_value_escape (instr_uses i.kind))
        b.insts;
      List.iter check_value_escape (term_uses b.term))
    f.blocks;
  Hashtbl.fold
    (fun _ info acc ->
      if info.a_promotable && info.a_ty <> None then info :: acc else acc)
    infos []

let default_value = function
  | F64 -> Const (Cfloat 0.0)
  | Ptr -> Const Cnull
  | t -> Const (Cint (0L, t))

(* Per-block liveness of candidate allocas (upward-exposed loads), for
   pruned phi placement.  Unpruned SSA would create dead phis whose
   demotion later makes dead variables look live at synchronization
   blocks — inflating the speculator pass's save/validate sets and
   causing systematic misprediction rollbacks. *)
let alloca_liveness (cfg : Cfg.t) (targets : (reg, alloca_info) Hashtbl.t) =
  let n = Cfg.nblocks cfg in
  let module IS = Set.Make (Int) in
  let gen = Array.make n IS.empty in
  let kill = Array.make n IS.empty in
  Array.iteri
    (fun bi b ->
      let stored = ref IS.empty in
      List.iter
        (fun i ->
          match i.kind with
          | Load (_, Reg a) when Hashtbl.mem targets a ->
            if not (IS.mem a !stored) then gen.(bi) <- IS.add a gen.(bi)
          | Store (_, _, Reg a) when Hashtbl.mem targets a ->
            stored := IS.add a !stored
          | _ -> ())
        b.insts;
      kill.(bi) <- !stored)
    cfg.Cfg.blocks;
  let live_in = Array.make n IS.empty in
  let changed = ref true in
  let order = Cfg.postorder cfg in
  while !changed do
    changed := false;
    List.iter
      (fun bi ->
        let out =
          List.fold_left
            (fun acc si -> IS.union acc live_in.(si))
            IS.empty cfg.Cfg.succs.(bi)
        in
        let inn = IS.union gen.(bi) (IS.diff out kill.(bi)) in
        if not (IS.equal inn live_in.(bi)) then begin
          live_in.(bi) <- inn;
          changed := true
        end)
      order
  done;
  fun bi a -> IS.mem a live_in.(bi)

let run (f : func) =
  let promote = collect_allocas f in
  if promote = [] then ()
  else begin
    let cfg = Cfg.of_func f in
    let dom = Dom.compute cfg in
    let nb = Cfg.nblocks cfg in
    let is_target = Hashtbl.create 16 in
    List.iter (fun info -> Hashtbl.replace is_target info.a_reg info) promote;
    let live_at = alloca_liveness cfg is_target in
    (* 1. Pruned phi placement at iterated dominance frontiers of defs. *)
    (* Blocks that store to each target, in ascending block order. *)
    let def_lists : (reg, int list) Hashtbl.t = Hashtbl.create 16 in
    Array.iteri
      (fun bi b ->
        List.iter
          (fun i ->
            match i.kind with
            | Store (_, _, Reg r) when Hashtbl.mem is_target r -> (
              match Hashtbl.find_opt def_lists r with
              | Some (bj :: _) when bj = bi -> ()
              | Some l -> Hashtbl.replace def_lists r (bi :: l)
              | None -> Hashtbl.replace def_lists r [ bi ])
            | _ -> ())
          b.insts)
      cfg.Cfg.blocks;
    (* Per block, the phis placed there with their alloca.  [def_mark]/[phi_mark] hold the index of the alloca that
       last set them, so they need no clearing between allocas. *)
    let placed = Array.make nb [] in
    let def_mark = Array.make nb (-1) in
    let phi_mark = Array.make nb (-1) in
    List.iteri
      (fun k info ->
        let ty = Option.get info.a_ty in
        let defs =
          List.rev (Option.value ~default:[] (Hashtbl.find_opt def_lists info.a_reg))
        in
        List.iter (fun bi -> def_mark.(bi) <- k) defs;
        let work = Queue.create () in
        List.iter (fun bi -> Queue.add bi work) defs;
        while not (Queue.is_empty work) do
          let bi = Queue.pop work in
          List.iter
            (fun fr ->
              if phi_mark.(fr) <> k && live_at fr info.a_reg then begin
                phi_mark.(fr) <- k;
                let p = { pid = fresh_reg f ty; pty = ty; incoming = [] } in
                cfg.Cfg.blocks.(fr).phis <- cfg.Cfg.blocks.(fr).phis @ [ p ];
                placed.(fr) <- (info.a_reg, p) :: placed.(fr);
                if def_mark.(fr) <> k then Queue.add fr work
              end)
            dom.Dom.frontiers.(bi)
        done)
      promote;
    (* 2. Renaming pass over the dominator tree. *)
    let module Env = Map.Make (Int) in
    let subst : (reg, value) Hashtbl.t = Hashtbl.create 64 in
    let rec resolve v =
      match v with
      | Reg r -> (
        match Hashtbl.find_opt subst r with Some v' -> resolve v' | None -> v)
      | _ -> v
    in
    let rec rename bi (env : value Env.t) =
      let b = cfg.Cfg.blocks.(bi) in
      let env = ref env in
      let set_cur a v = env := Env.add a v !env in
      let cur a =
        match Env.find_opt a !env with
        | Some v -> v
        | None -> default_value (Option.get (Hashtbl.find is_target a).a_ty)
      in
      (* Phis placed for an alloca define its current value here. *)
      List.iter (fun (a, p) -> set_cur a (Reg p.pid)) placed.(bi);
      let keep = ref [] in
      List.iter
        (fun i ->
          match i.kind with
          | Alloca _ when Hashtbl.mem is_target i.id -> () (* drop *)
          | Load (_, Reg r) when Hashtbl.mem is_target r ->
            Hashtbl.replace subst i.id (cur r)
          | Store (_, v, Reg r) when Hashtbl.mem is_target r ->
            set_cur r (resolve v)
          | k ->
            let k' = map_instr_values resolve k in
            keep := { i with kind = k' } :: !keep)
        b.insts;
      b.insts <- List.rev !keep;
      b.term <- map_term_values resolve b.term;
      (* Also rewrite pre-existing phi incomings now (they reference
         values from predecessors; those were resolved when the
         predecessor was processed via fill-in below, but non-promoted
         uses still need subst chasing at the end). *)
      (* Fill in successor phis for promoted allocas. *)
      List.iter
        (fun si ->
          List.iter
            (fun (a, p) -> p.incoming <- (b.bname, cur a) :: p.incoming)
            placed.(si))
        cfg.Cfg.succs.(bi);
      List.iter (fun child -> rename child !env) dom.Dom.children.(bi)
    in
    rename 0 Env.empty;
    (* 3. Final cleanup: chase substitutions in any remaining operand
       (e.g. phis created earlier, or blocks visited before a load's
       definition was replaced — SSA dominance makes this safe). *)
    List.iter
      (fun b ->
        List.iter
          (fun p ->
            p.incoming <- List.map (fun (l, v) -> (l, resolve v)) p.incoming)
          b.phis;
        b.insts <-
          List.map (fun i -> { i with kind = map_instr_values resolve i.kind }) b.insts;
        b.term <- map_term_values resolve b.term)
      f.blocks
  end

let run_module (m : modul) = List.iter run m.funcs
