(* Classic scalar optimizations over MIR: constant folding with
   algebraic simplification, dead code elimination, and CFG
   simplification (constant branches, unreachable blocks, linear block
   merging).  Optional in the MUTLS pipeline (mutlsc -O): TLS is
   orthogonal to classical optimization, but the paper's LLVM context
   runs these before the speculator pass, and they exercise the IR
   infrastructure from another angle. *)

open Ir

(* ------------------------------------------------------------------ *)
(* Constant folding                                                    *)
(* ------------------------------------------------------------------ *)

let mask_of = function
  | I1 -> 1L
  | I8 -> 0xFFL
  | I32 -> 0xFFFFFFFFL
  | _ -> -1L

let sext ty v =
  match ty with
  | I1 -> if Int64.logand v 1L = 1L then -1L else 0L
  | I8 -> Int64.shift_right (Int64.shift_left v 56) 56
  | I32 -> Int64.shift_right (Int64.shift_left v 32) 32
  | _ -> v

let as_const = function Const c -> Some c | _ -> None

let fold_binop op ty a b =
  match (a, b) with
  | Cint (x, _), Cint (y, _) -> (
    let wrap v = Some (Cint (Int64.logand v (mask_of ty), ty)) in
    match op with
    | Add -> wrap (Int64.add x y)
    | Sub -> wrap (Int64.sub x y)
    | Mul -> wrap (Int64.mul x y)
    | Sdiv -> if y = 0L then None else wrap (Int64.div (sext ty x) (sext ty y))
    | Srem -> if y = 0L then None else wrap (Int64.rem (sext ty x) (sext ty y))
    | And -> wrap (Int64.logand x y)
    | Or -> wrap (Int64.logor x y)
    | Xor -> wrap (Int64.logxor x y)
    | Shl -> wrap (Int64.shift_left x (Int64.to_int y land 63))
    | Lshr -> wrap (Int64.shift_right_logical x (Int64.to_int y land 63))
    | Ashr -> wrap (Int64.shift_right (sext ty x) (Int64.to_int y land 63))
    | Fadd | Fsub | Fmul | Fdiv -> None)
  | Cfloat x, Cfloat y -> (
    match op with
    | Fadd -> Some (Cfloat (x +. y))
    | Fsub -> Some (Cfloat (x -. y))
    | Fmul -> Some (Cfloat (x *. y))
    | Fdiv -> Some (Cfloat (x /. y))
    | _ -> None)
  | _ -> None

let fold_icmp op ty a b =
  match (a, b) with
  | Cint (x, _), Cint (y, _) ->
    let x = sext ty x and y = sext ty y in
    let r =
      match op with
      | Ieq -> x = y
      | Ine -> x <> y
      | Islt -> x < y
      | Isle -> x <= y
      | Isgt -> x > y
      | Isge -> x >= y
    in
    Some (Cint ((if r then 1L else 0L), I1))
  | _ -> None

let fold_fcmp op a b =
  match (a, b) with
  | Cfloat x, Cfloat y ->
    let r =
      match op with
      | Feq -> x = y
      | Fne -> x <> y
      | Flt -> x < y
      | Fle -> x <= y
      | Fgt -> x > y
      | Fge -> x >= y
    in
    Some (Cint ((if r then 1L else 0L), I1))
  | _ -> None

let fold_cast c from_ty to_ty v =
  match v with
  | Cint (x, _) -> (
    match c with
    | Trunc -> Some (Cint (Int64.logand x (mask_of to_ty), to_ty))
    | Zext -> Some (Cint (x, to_ty))
    | Sext -> Some (Cint (Int64.logand (sext from_ty x) (mask_of to_ty), to_ty))
    | Sitofp -> Some (Cfloat (Int64.to_float (sext from_ty x)))
    | Ptrtoint | Inttoptr | Bitcast -> Some (Cint (x, to_ty))
    | Fptosi -> None)
  | Cfloat x -> (
    match c with
    | Fptosi -> Some (Cint (Int64.logand (Int64.of_float x) (mask_of to_ty), to_ty))
    | Bitcast -> Some (Cint (Int64.bits_of_float x, to_ty))
    | _ -> None)
  | Cnull -> Some Cnull

(* Algebraic identities that need no constant operands on both sides. *)
let simplify_binop op _ty a b =
  let is_zero v = match v with Const (Cint (0L, _)) -> true | _ -> false in
  let is_one v = match v with Const (Cint (1L, _)) -> true | _ -> false in
  match op with
  | Add when is_zero b -> Some a
  | Add when is_zero a -> Some b
  | Sub when is_zero b -> Some a
  | Mul when is_one b -> Some a
  | Mul when is_one a -> Some b
  | Or when is_zero b -> Some a
  | Or when is_zero a -> Some b
  | Xor when is_zero b -> Some a
  | Shl when is_zero b -> Some a
  | Lshr when is_zero b -> Some a
  | Ashr when is_zero b -> Some a
  | _ -> None

(* One folding sweep; returns true if anything changed. *)
let fold_once (f : func) =
  let subst : (reg, value) Hashtbl.t = Hashtbl.create 16 in
  let rec resolve v =
    match v with
    | Reg r -> (
      match Hashtbl.find_opt subst r with Some v' -> resolve v' | None -> v)
    | _ -> v
  in
  let changed = ref false in
  List.iter
    (fun b ->
      let keep = ref [] in
      List.iter
        (fun i ->
          let k = map_instr_values resolve i.kind in
          let folded =
            match k with
            | Binop (op, ty, a, bb) -> (
              match (as_const a, as_const bb) with
              | Some ca, Some cb -> (
                match fold_binop op ty ca cb with
                | Some c -> Some (Const c)
                | None -> None)
              | _ -> simplify_binop op ty a bb)
            | Icmp (op, ty, a, bb) -> (
              match (as_const a, as_const bb) with
              | Some ca, Some cb ->
                Option.map (fun c -> Const c) (fold_icmp op ty ca cb)
              | _ -> None)
            | Fcmp (op, a, bb) -> (
              match (as_const a, as_const bb) with
              | Some ca, Some cb ->
                Option.map (fun c -> Const c) (fold_fcmp op ca cb)
              | _ -> None)
            | Cast (c, t1, t2, v) -> (
              match as_const v with
              | Some cv -> Option.map (fun c' -> Const c') (fold_cast c t1 t2 cv)
              | None -> None)
            | Select (c, a, bb) -> (
              match as_const c with
              | Some (Cint (1L, _)) -> Some a
              | Some (Cint (0L, _)) -> Some bb
              | _ -> None)
            | Ptradd (p, o) when o = i64 0 -> Some p
            | _ -> None
          in
          match folded with
          | Some v when i.ity <> Void ->
            Hashtbl.replace subst i.id v;
            changed := true
          | _ -> keep := { i with kind = k } :: !keep)
        b.insts;
      b.insts <- List.rev !keep;
      b.term <- map_term_values resolve b.term;
      List.iter
        (fun p ->
          p.incoming <- List.map (fun (l, v) -> (l, resolve v)) p.incoming)
        b.phis)
    f.blocks;
  (* a second resolve pass catches uses that were visited before their
     definition was folded (back edges) *)
  if Hashtbl.length subst > 0 then
    List.iter
      (fun b ->
        b.insts <-
          List.map (fun i -> { i with kind = map_instr_values resolve i.kind }) b.insts;
        b.term <- map_term_values resolve b.term;
        List.iter
          (fun p ->
            p.incoming <- List.map (fun (l, v) -> (l, resolve v)) p.incoming)
          b.phis)
      f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Dead code elimination                                                *)
(* ------------------------------------------------------------------ *)

let has_side_effects = function
  | Store (_, _, _) | Call (_, _) -> true
  | Alloca _ -> false (* dead only if unused, like any value *)
  | _ -> false

let dce_once (f : func) =
  let used : (reg, unit) Hashtbl.t = Hashtbl.create 64 in
  let mark v = match v with Reg r -> Hashtbl.replace used r () | _ -> () in
  List.iter
    (fun b ->
      List.iter
        (fun i ->
          if has_side_effects i.kind then List.iter mark (instr_uses i.kind))
        b.insts;
      List.iter mark (term_uses b.term);
      List.iter (fun p -> List.iter (fun (_, v) -> mark v) p.incoming) b.phis)
    f.blocks;
  (* transitively mark operands of used pure instructions: each register
     is pushed once, when first marked, and its definition's operands
     are marked in turn *)
  let operands : (reg, value list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun b ->
      List.iter
        (fun i -> if i.ity <> Void then Hashtbl.add operands i.id (instr_uses i.kind))
        b.insts;
      List.iter
        (fun p -> Hashtbl.add operands p.pid (List.map snd p.incoming))
        b.phis)
    f.blocks;
  let work = Stack.create () in
  Hashtbl.iter (fun r () -> Stack.push r work) used;
  let rec drain () =
    match Stack.pop_opt work with
    | None -> ()
    | Some r ->
      List.iter
        (List.iter (fun v ->
             match v with
             | Reg r' when not (Hashtbl.mem used r') ->
               Hashtbl.replace used r' ();
               Stack.push r' work
             | _ -> ()))
        (Hashtbl.find_all operands r);
      drain ()
  in
  drain ();
  let changed = ref false in
  List.iter
    (fun b ->
      let n0 = List.length b.insts in
      b.insts <-
        List.filter
          (fun i ->
            has_side_effects i.kind || i.ity = Void || Hashtbl.mem used i.id)
          b.insts;
      if List.length b.insts <> n0 then changed := true;
      let p0 = List.length b.phis in
      b.phis <- List.filter (fun p -> Hashtbl.mem used p.pid) b.phis;
      if List.length b.phis <> p0 then changed := true)
    f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* CFG simplification                                                   *)
(* ------------------------------------------------------------------ *)

(* Remove an edge's phi incoming when a predecessor goes away. *)
let prune_phi_incoming (f : func) =
  let cfg = Cfg.of_func f in
  Array.iteri
    (fun bi b ->
      let pred_names =
        List.map (fun pi -> cfg.Cfg.blocks.(pi).bname) cfg.Cfg.preds.(bi)
      in
      List.iter
        (fun p ->
          p.incoming <-
            List.filter (fun (l, _) -> List.mem l pred_names) p.incoming)
        b.phis)
    cfg.Cfg.blocks

let simplify_cfg_once (f : func) =
  let changed = ref false in
  (* 1. constant conditional branches *)
  List.iter
    (fun b ->
      match b.term with
      | Cbr (Const (Cint (1L, _)), l, _) ->
        b.term <- Br l;
        changed := true
      | Cbr (Const (Cint (0L, _)), _, l) ->
        b.term <- Br l;
        changed := true
      | Cbr (c, l1, l2) when l1 = l2 ->
        ignore c;
        b.term <- Br l1;
        (* the target's phis held two incomings from this block *)
        let t = find_block_exn f l1 in
        List.iter
          (fun p ->
            let seen = Hashtbl.create 4 in
            p.incoming <-
              List.filter
                (fun (l, _) ->
                  if Hashtbl.mem seen l then false
                  else begin
                    Hashtbl.replace seen l ();
                    true
                  end)
                p.incoming)
          t.phis;
        changed := true
      | Switch (Const (Cint (v, _)), d, cases) ->
        let target =
          match List.assoc_opt v cases with Some l -> l | None -> d
        in
        b.term <- Br target;
        changed := true
      | _ -> ())
    f.blocks;
  (* 2. drop unreachable blocks *)
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun b -> if not (Hashtbl.mem by_name b.bname) then Hashtbl.add by_name b.bname b)
    f.blocks;
  let find name =
    match Hashtbl.find_opt by_name name with
    | Some b -> b
    | None -> find_block_exn f name
  in
  let reachable = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.replace reachable name ();
      List.iter visit (term_succs (find name).term)
    end
  in
  (match f.blocks with b :: _ -> visit b.bname | [] -> ());
  let n0 = List.length f.blocks in
  f.blocks <- List.filter (fun b -> Hashtbl.mem reachable b.bname) f.blocks;
  if List.length f.blocks <> n0 then changed := true;
  prune_phi_incoming f;
  (* 3. merge a block into its unique successor when it is that
     successor's unique predecessor and the successor has no phis *)
  let cfg = Cfg.of_func f in
  let merged = Hashtbl.create 8 in
  Array.iteri
    (fun bi b ->
      match (b.term, cfg.Cfg.succs.(bi)) with
      | Br _, [ si ]
        when (not (Hashtbl.mem merged b.bname))
             && (not (Hashtbl.mem merged cfg.Cfg.blocks.(si).bname))
             && si <> bi
             && List.length cfg.Cfg.preds.(si) = 1
             && cfg.Cfg.blocks.(si).phis = []
             && si <> 0 ->
        let s = cfg.Cfg.blocks.(si) in
        b.insts <- b.insts @ s.insts;
        b.term <- s.term;
        (* successors of s may have phis naming s: relabel to b *)
        List.iter
          (fun l ->
            let t = find l in
            List.iter
              (fun p ->
                p.incoming <-
                  List.map
                    (fun (pl, v) -> if pl = s.bname then (b.bname, v) else (pl, v))
                    p.incoming)
              t.phis)
          (term_succs s.term);
        Hashtbl.replace merged s.bname ();
        changed := true
      | _ -> ())
    cfg.Cfg.blocks;
  if Hashtbl.length merged > 0 then
    f.blocks <- List.filter (fun b -> not (Hashtbl.mem merged b.bname)) f.blocks;
  !changed

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let run_func (f : func) =
  let rec iterate budget =
    if budget > 0 then begin
      let c1 = fold_once f in
      let c2 = dce_once f in
      let c3 = simplify_cfg_once f in
      if c1 || c2 || c3 then iterate (budget - 1)
    end
  in
  iterate 8

(* Optimize every function; the module stays verified. *)
let run_module (m : modul) =
  List.iter run_func m.funcs;
  Verify.check_module m
