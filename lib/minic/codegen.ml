(* MiniC -> MIR code generation.  Clang -O0 style: every local lives in
   an alloca and is promoted to SSA registers by a final mem2reg pass,
   exactly the pipeline the paper's LLVM front-ends produce. *)

open Ast
module I = Mutls_mir.Ir

exception Error of string

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "line %d: %s" line s))) fmt

let rec sizeof = function
  | Tint -> 8
  | Tint32 -> 4
  | Tchar -> 1
  | Tdouble -> 8
  | Tvoid -> 0
  | Tptr _ -> 8
  | Tarray (t, n) -> n * sizeof t

let rec ir_ty = function
  | Tint -> I.I64
  | Tint32 -> I.I32
  | Tchar -> I.I8
  | Tdouble -> I.F64
  | Tvoid -> I.Void
  | Tptr _ -> I.Ptr
  | Tarray (t, _) ->
    ignore (ir_ty t);
    I.Ptr

(* Expression values are normalised: integers to I64, floats to F64,
   pointers to Ptr (with their pointee type for arithmetic). *)
type vty = Vint | Vfloat | Vptr of cty

type fsig = { fs_ret : cty; fs_params : cty list }

type env = {
  m : I.modul;
  globals : (string, cty) Hashtbl.t;
  funcs : (string, fsig) Hashtbl.t;
  mutable locals : (string * (I.reg * cty)) list;
  f : I.func;
  entry : I.block;
  mutable cur : I.block;
  mutable label_counter : int;
  mutable loop_stack : (string * string) list; (* break, continue targets *)
}

let fresh_label env stem =
  let n = env.label_counter in
  env.label_counter <- n + 1;
  Printf.sprintf "%s.%d" stem n

(* While a function body is generated, its block list and every
   block's instruction list are kept newest-first, so appending is O(1);
   [finish_func] restores program order once the body is done. *)
let add_block env stem =
  let b =
    { I.bname = fresh_label env stem; phis = []; insts = []; term = I.Unreachable }
  in
  env.f.I.blocks <- b :: env.f.I.blocks;
  b

let emit env ity kind =
  let id = if ity = I.Void then -1 else I.fresh_reg env.f ity in
  env.cur.I.insts <- { I.id; ity; kind } :: env.cur.I.insts;
  if ity = I.Void then I.i64 0 else I.Reg id

let set_term env t = env.cur.I.term <- t

let alloca_in_entry env size =
  let id = I.fresh_reg env.f I.Ptr in
  env.entry.I.insts <- { I.id; ity = I.Ptr; kind = I.Alloca size } :: env.entry.I.insts;
  id

let finish_func (f : I.func) =
  f.I.blocks <- List.rev f.I.blocks;
  List.iter (fun (b : I.block) -> b.I.insts <- List.rev b.I.insts) f.I.blocks

(* --- conversions ------------------------------------------------------ *)

let normalise env (v : I.value) (t : cty) =
  match t with
  | Tint | Tdouble | Tvoid | Tptr _ | Tarray _ -> v
  | Tint32 -> emit env I.I64 (I.Cast (I.Sext, I.I32, I.I64, v))
  | Tchar -> emit env I.I64 (I.Cast (I.Sext, I.I8, I.I64, v))

let vty_of (t : cty) =
  match t with
  | Tint | Tint32 | Tchar -> Vint
  | Tdouble -> Vfloat
  | Tptr p -> Vptr p
  | Tarray (e, _) -> Vptr e
  | Tvoid -> Vint

let to_float env v = function
  | Vfloat -> v
  | Vint -> emit env I.F64 (I.Cast (I.Sitofp, I.I64, I.F64, v))
  | Vptr _ -> invalid_arg "pointer to float"

let as_i64 env v = function
  | Vint -> v
  | Vfloat -> emit env I.I64 (I.Cast (I.Fptosi, I.F64, I.I64, v))
  | Vptr _ -> emit env I.I64 (I.Cast (I.Ptrtoint, I.Ptr, I.I64, v))

let to_int env v vt = as_i64 env v vt

(* Denormalise to the memory representation of [t] for a store or an
   argument of declared type [t]. *)
let denormalise env (v : I.value) vt (t : cty) =
  match t with
  | Tint -> to_int env v vt
  | Tint32 -> emit env I.I32 (I.Cast (I.Trunc, I.I64, I.I32, to_int env v vt))
  | Tchar -> emit env I.I8 (I.Cast (I.Trunc, I.I64, I.I8, to_int env v vt))
  | Tdouble -> to_float env v vt
  | Tptr _ | Tarray _ -> (
    match vt with
    | Vptr _ -> v
    | Vint -> emit env I.Ptr (I.Cast (I.Inttoptr, I.I64, I.Ptr, v))
    | Vfloat -> invalid_arg "float to pointer")
  | Tvoid -> v

(* --- lvalues / rvalues ------------------------------------------------- *)

let find_local env name = List.assoc_opt name env.locals

let rec lvalue env (e : expr) : I.value * cty =
  match e.desc with
  | Var name -> (
    match find_local env name with
    | Some (a, t) -> (I.Reg a, t)
    | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some t -> (I.Global name, t)
      | None -> fail e.eline "unknown variable %s" name))
  | Index (base, idx) -> index_address env base idx
  | Deref p -> (
    let v, vt = rvalue env p in
    match vt with
    | Vptr pointee -> (v, pointee)
    | Vint -> (emit env I.Ptr (I.Cast (I.Inttoptr, I.I64, I.Ptr, v)), Tint)
    | Vfloat -> fail e.eline "cannot dereference a float")
  | _ -> fail e.eline "expression is not an lvalue"

and index_address env (base : expr) (idx : expr) : I.value * cty =
  let bv, elem =
    match base.desc with
    | Var _ | Index (_, _) | Deref _ -> (
      let addr, t = lvalue env base in
      match t with
      | Tarray (elem, _) -> (addr, elem)
      | Tptr elem ->
        let p = emit env I.Ptr (I.Load (I.Ptr, addr)) in
        (p, elem)
      | _ -> fail base.eline "indexing a non-array value")
    | _ -> (
      let v, vt = rvalue env base in
      match vt with
      | Vptr elem -> (v, elem)
      | _ -> fail base.eline "indexing a non-pointer value")
  in
  let iv, it = rvalue env idx in
  let i = to_int env iv it in
  let off = emit env I.I64 (I.Binop (I.Mul, I.I64, i, I.i64 (sizeof elem))) in
  (emit env I.Ptr (I.Ptradd (bv, off)), elem)

and load_lvalue env addr (t : cty) : I.value * vty =
  match t with
  | Tarray (e, _) -> (addr, Vptr e) (* arrays decay to their address *)
  | Tvoid -> (addr, Vint)
  | _ ->
    let raw = emit env (ir_ty t) (I.Load (ir_ty t, addr)) in
    (normalise env raw t, vty_of t)

and condition env (v, vt) =
  match vt with
  | Vfloat -> emit env I.I1 (I.Fcmp (I.Fne, v, I.f64 0.0))
  | Vint | Vptr _ -> emit env I.I1 (I.Icmp (I.Ine, I.I64, as_i64 env v vt, I.i64 0))

and rvalue env (e : expr) : I.value * vty =
  match e.desc with
  | Int_lit n -> (I.i64' n, Vint)
  | Float_lit x -> (I.f64 x, Vfloat)
  | Char_lit c -> (I.i64 (Char.code c), Vint)
  | Var _ | Index (_, _) | Deref _ ->
    let addr, t = lvalue env e in
    load_lvalue env addr t
  | Addr_of inner ->
    let addr, t = lvalue env inner in
    (addr, Vptr t)
  | Unop (op, a) -> (
    let v, vt = rvalue env a in
    match (op, vt) with
    | Neg, Vfloat -> (emit env I.F64 (I.Binop (I.Fsub, I.F64, I.f64 0.0, v)), Vfloat)
    | Neg, _ ->
      (emit env I.I64 (I.Binop (I.Sub, I.I64, I.i64 0, as_i64 env v vt)), Vint)
    | Not, _ ->
      let c = condition env (v, vt) in
      let z = emit env I.I1 (I.Binop (I.Xor, I.I1, c, I.i1 true)) in
      (emit env I.I64 (I.Cast (I.Zext, I.I1, I.I64, z)), Vint)
    | Bnot, _ ->
      (emit env I.I64 (I.Binop (I.Xor, I.I64, as_i64 env v vt, I.i64' (-1L))), Vint))
  | Binop ((Land | Lor) as op, a, b) -> short_circuit env op a b
  | Binop (op, a, b) ->
    apply_binop env e.eline op (rvalue env a) (rvalue env b)
  | Assign (lhs, rhs) ->
    let addr, t = lvalue env lhs in
    let v, vt = rvalue env rhs in
    let stored = denormalise env v vt t in
    ignore (emit env I.Void (I.Store (ir_ty t, stored, addr)));
    (v, vt)
  | Op_assign (op, lhs, rhs) ->
    let addr, t = lvalue env lhs in
    let cur = load_lvalue env addr t in
    let v, vt = apply_binop env e.eline op cur (rvalue env rhs) in
    let stored = denormalise env v vt t in
    ignore (emit env I.Void (I.Store (ir_ty t, stored, addr)));
    (v, vt)
  | Incr (prefix, lhs) -> incr_decr env prefix lhs 1
  | Decr (prefix, lhs) -> incr_decr env prefix lhs (-1)
  | Cast (t, inner) -> (
    let v, vt = rvalue env inner in
    match t with
    | Tdouble -> (to_float env v vt, Vfloat)
    | Tint -> (as_i64 env v vt, Vint)
    | Tint32 ->
      let tr = emit env I.I32 (I.Cast (I.Trunc, I.I64, I.I32, as_i64 env v vt)) in
      (emit env I.I64 (I.Cast (I.Sext, I.I32, I.I64, tr)), Vint)
    | Tchar ->
      let tr = emit env I.I8 (I.Cast (I.Trunc, I.I64, I.I8, as_i64 env v vt)) in
      (emit env I.I64 (I.Cast (I.Sext, I.I8, I.I64, tr)), Vint)
    | Tptr p -> (
      match vt with
      | Vptr _ -> (v, Vptr p)
      | Vint -> (emit env I.Ptr (I.Cast (I.Inttoptr, I.I64, I.Ptr, v)), Vptr p)
      | Vfloat -> fail e.eline "cannot cast float to pointer")
    | Tarray (_, _) | Tvoid -> fail e.eline "invalid cast")
  | Ternary (c, a, b) ->
    let res = alloca_in_entry env 8 in
    let cv = condition env (rvalue env c) in
    let thn = add_block env "tern.t" in
    let els = add_block env "tern.f" in
    let fin = add_block env "tern.end" in
    set_term env (I.Cbr (cv, thn.I.bname, els.I.bname));
    env.cur <- thn;
    let av, avt = rvalue env a in
    let is_float = avt = Vfloat in
    let sty = if is_float then I.F64 else I.I64 in
    let av = if is_float then to_float env av avt else as_i64 env av avt in
    ignore (emit env I.Void (I.Store (sty, av, I.Reg res)));
    set_term env (I.Br fin.I.bname);
    env.cur <- els;
    let bv, bvt = rvalue env b in
    let bv = if is_float then to_float env bv bvt else as_i64 env bv bvt in
    ignore (emit env I.Void (I.Store (sty, bv, I.Reg res)));
    set_term env (I.Br fin.I.bname);
    env.cur <- fin;
    (emit env sty (I.Load (sty, I.Reg res)), if is_float then Vfloat else Vint)
  | Call (name, args) -> call env e.eline name args

and incr_decr env prefix lhs delta =
  let addr, t = lvalue env lhs in
  let cur, curvt = load_lvalue env addr t in
  let next, nvt =
    match t with
    | Tdouble ->
      (emit env I.F64 (I.Binop (I.Fadd, I.F64, cur, I.f64 (float_of_int delta))),
       Vfloat)
    | Tptr p -> (emit env I.Ptr (I.Ptradd (cur, I.i64 (delta * sizeof p))), curvt)
    | _ -> (emit env I.I64 (I.Binop (I.Add, I.I64, cur, I.i64 delta)), Vint)
  in
  let stored = denormalise env next nvt t in
  ignore (emit env I.Void (I.Store (ir_ty t, stored, addr)));
  if prefix then (next, nvt) else (cur, curvt)

and short_circuit env op a b =
  let res = alloca_in_entry env 1 in
  let av = condition env (rvalue env a) in
  let more = add_block env "sc.more" in
  let fin = add_block env "sc.end" in
  ignore (emit env I.Void (I.Store (I.I1, av, I.Reg res)));
  (match op with
  | Land -> set_term env (I.Cbr (av, more.I.bname, fin.I.bname))
  | Lor -> set_term env (I.Cbr (av, fin.I.bname, more.I.bname))
  | _ -> assert false);
  env.cur <- more;
  let bv = condition env (rvalue env b) in
  ignore (emit env I.Void (I.Store (I.I1, bv, I.Reg res)));
  set_term env (I.Br fin.I.bname);
  env.cur <- fin;
  let c = emit env I.I1 (I.Load (I.I1, I.Reg res)) in
  (emit env I.I64 (I.Cast (I.Zext, I.I1, I.I64, c)), Vint)

and apply_binop env line op (av, avt) (bv, bvt) : I.value * vty =
  let is_cmp = match op with Lt | Gt | Le | Ge | Eq | Ne -> true | _ -> false in
  match (op, avt, bvt) with
  | Add, Vptr p, (Vint | Vfloat) ->
    let off = emit env I.I64 (I.Binop (I.Mul, I.I64, to_int env bv bvt, I.i64 (sizeof p))) in
    (emit env I.Ptr (I.Ptradd (av, off)), Vptr p)
  | Add, (Vint | Vfloat), Vptr p ->
    let off = emit env I.I64 (I.Binop (I.Mul, I.I64, to_int env av avt, I.i64 (sizeof p))) in
    (emit env I.Ptr (I.Ptradd (bv, off)), Vptr p)
  | Sub, Vptr p, (Vint | Vfloat) ->
    let neg = emit env I.I64 (I.Binop (I.Sub, I.I64, I.i64 0, to_int env bv bvt)) in
    let off = emit env I.I64 (I.Binop (I.Mul, I.I64, neg, I.i64 (sizeof p))) in
    (emit env I.Ptr (I.Ptradd (av, off)), Vptr p)
  | _ ->
    let bit_op = match op with Band | Bor | Bxor | Shl | Shr -> true | _ -> false in
    let float_op = (avt = Vfloat || bvt = Vfloat) && not bit_op in
    if float_op then
      let a = to_float env av avt and b = to_float env bv bvt in
      if is_cmp then begin
        let fop =
          match op with
          | Lt -> I.Flt | Gt -> I.Fgt | Le -> I.Fle | Ge -> I.Fge
          | Eq -> I.Feq | Ne -> I.Fne
          | _ -> assert false
        in
        let c = emit env I.I1 (I.Fcmp (fop, a, b)) in
        (emit env I.I64 (I.Cast (I.Zext, I.I1, I.I64, c)), Vint)
      end
      else begin
        let fop =
          match op with
          | Add -> I.Fadd | Sub -> I.Fsub | Mul -> I.Fmul | Div -> I.Fdiv
          | Mod -> fail line "%% on floats (use fmod)"
          | _ -> fail line "invalid float operation"
        in
        (emit env I.F64 (I.Binop (fop, I.F64, a, b)), Vfloat)
      end
    else
      let a = as_i64 env av avt and b = as_i64 env bv bvt in
      if is_cmp then begin
        let iop =
          match op with
          | Lt -> I.Islt | Gt -> I.Isgt | Le -> I.Isle | Ge -> I.Isge
          | Eq -> I.Ieq | Ne -> I.Ine
          | _ -> assert false
        in
        let c = emit env I.I1 (I.Icmp (iop, I.I64, a, b)) in
        (emit env I.I64 (I.Cast (I.Zext, I.I1, I.I64, c)), Vint)
      end
      else begin
        let iop =
          match op with
          | Add -> I.Add | Sub -> I.Sub | Mul -> I.Mul | Div -> I.Sdiv
          | Mod -> I.Srem | Band -> I.And | Bor -> I.Or | Bxor -> I.Xor
          | Shl -> I.Shl | Shr -> I.Ashr
          | _ -> fail line "invalid integer operation"
        in
        (emit env I.I64 (I.Binop (iop, I.I64, a, b)), Vint)
      end

and call env line name args : I.value * vty =
  match Hashtbl.find_opt env.funcs name with
  | Some fs ->
    if List.length args <> List.length fs.fs_params then
      fail line "call to %s with %d args, expected %d" name (List.length args)
        (List.length fs.fs_params);
    let vs =
      List.map2
        (fun a pt ->
          let v, vt = rvalue env a in
          denormalise env v vt pt)
        args fs.fs_params
    in
    let r = emit env (ir_ty fs.fs_ret) (I.Call (name, vs)) in
    if fs.fs_ret = Tvoid then (I.i64 0, Vint)
    else (normalise env r fs.fs_ret, vty_of fs.fs_ret)
  | None -> (
    match List.find_opt (fun (e : I.edecl) -> e.I.ename = name) env.m.I.externs with
    | Some decl ->
      let vs =
        List.mapi
          (fun k a ->
            let v, vt = rvalue env a in
            let want = try List.nth decl.I.eparams k with _ -> I.I64 in
            match want with
            | I.F64 -> to_float env v vt
            | I.Ptr -> denormalise env v vt (Tptr Tvoid)
            | _ -> as_i64 env v vt)
          args
      in
      let r = emit env decl.I.eret (I.Call (name, vs)) in
      (match decl.I.eret with
      | I.Void -> (I.i64 0, Vint)
      | I.F64 -> (r, Vfloat)
      | I.Ptr -> (r, Vptr Tvoid)
      | _ -> (r, Vint))
    | None -> fail line "call to unknown function %s" name)

(* --- statements --------------------------------------------------------- *)

let rec gen_stmt env (s : stmt) =
  match s.sdesc with
  | Expr e -> ignore (rvalue env e)
  | Decl (t, name, init) ->
    let size = max 1 (sizeof t) in
    let a = alloca_in_entry env size in
    env.locals <- (name, (a, t)) :: env.locals;
    (match init with
    | Some e ->
      let v, vt = rvalue env e in
      let stored = denormalise env v vt t in
      ignore (emit env I.Void (I.Store (ir_ty t, stored, I.Reg a)))
    | None -> ())
  | If (c, thn, els) ->
    let cv = condition env (rvalue env c) in
    let bt = add_block env "if.t" in
    let bf = add_block env "if.f" in
    let fin = add_block env "if.end" in
    set_term env (I.Cbr (cv, bt.I.bname, (if els = [] then fin else bf).I.bname));
    env.cur <- bt;
    gen_stmts env thn;
    set_term env (I.Br fin.I.bname);
    if els <> [] then begin
      env.cur <- bf;
      gen_stmts env els;
      set_term env (I.Br fin.I.bname)
    end
    else bf.I.term <- I.Br fin.I.bname (* unreachable placeholder *);
    env.cur <- fin
  | While (c, body) ->
    let hdr = add_block env "while.hdr" in
    let bdy = add_block env "while.body" in
    let fin = add_block env "while.end" in
    set_term env (I.Br hdr.I.bname);
    env.cur <- hdr;
    let cv = condition env (rvalue env c) in
    set_term env (I.Cbr (cv, bdy.I.bname, fin.I.bname));
    env.cur <- bdy;
    env.loop_stack <- (fin.I.bname, hdr.I.bname) :: env.loop_stack;
    gen_stmts env body;
    env.loop_stack <- List.tl env.loop_stack;
    set_term env (I.Br hdr.I.bname);
    env.cur <- fin
  | For (init, cond, step, body) ->
    let saved_locals = env.locals in
    (match init with Some s0 -> gen_stmt env s0 | None -> ());
    let hdr = add_block env "for.hdr" in
    let bdy = add_block env "for.body" in
    let stp = add_block env "for.step" in
    let fin = add_block env "for.end" in
    set_term env (I.Br hdr.I.bname);
    env.cur <- hdr;
    (match cond with
    | Some c ->
      let cv = condition env (rvalue env c) in
      set_term env (I.Cbr (cv, bdy.I.bname, fin.I.bname))
    | None -> set_term env (I.Br bdy.I.bname));
    env.cur <- bdy;
    env.loop_stack <- (fin.I.bname, stp.I.bname) :: env.loop_stack;
    gen_stmts env body;
    env.loop_stack <- List.tl env.loop_stack;
    set_term env (I.Br stp.I.bname);
    env.cur <- stp;
    (match step with Some s1 -> gen_stmt env s1 | None -> ());
    set_term env (I.Br hdr.I.bname);
    env.cur <- fin;
    env.locals <- saved_locals
  | Return v ->
    (match v with
    | Some e ->
      let ret_t =
        match Hashtbl.find_opt env.funcs env.f.I.fname with
        | Some fs -> fs.fs_ret
        | None -> Tint
      in
      let value, vt = rvalue env e in
      let rv = denormalise env value vt ret_t in
      set_term env (I.Ret (Some rv))
    | None -> set_term env (I.Ret None));
    env.cur <- add_block env "dead"
  | Break -> (
    match env.loop_stack with
    | (brk, _) :: _ ->
      set_term env (I.Br brk);
      env.cur <- add_block env "dead"
    | [] -> fail s.sline "break outside a loop")
  | Continue -> (
    match env.loop_stack with
    | (_, cont) :: _ ->
      set_term env (I.Br cont);
      env.cur <- add_block env "dead"
    | [] -> fail s.sline "continue outside a loop")
  | Block body ->
    let saved = env.locals in
    gen_stmts env body;
    env.locals <- saved
  | Fork (p, model) ->
    ignore
      (emit env I.Void (I.Call (I.fork_intrinsic, [ I.i64 p; I.i64 model ])))
  | Join p -> ignore (emit env I.Void (I.Call (I.join_intrinsic, [ I.i64 p ])))
  | Barrier p ->
    ignore (emit env I.Void (I.Call (I.barrier_intrinsic, [ I.i64 p ])))

and gen_stmts env stmts = List.iter (gen_stmt env) stmts

(* --- reachability pruning ---------------------------------------------- *)

(* Drop unreachable blocks ("dead" continuations after return/break);
   mem2reg's renaming only visits the dominator tree from the entry, so
   unreachable loads would keep demoted allocas alive incorrectly. *)
let prune_unreachable (f : I.func) =
  let by_name = Hashtbl.create 64 in
  List.iter (fun (b : I.block) -> Hashtbl.replace by_name b.I.bname b) f.I.blocks;
  let reachable = Hashtbl.create 64 in
  let rec visit name =
    if not (Hashtbl.mem reachable name) then begin
      Hashtbl.replace reachable name ();
      let b = Hashtbl.find by_name name in
      List.iter visit (I.term_succs b.I.term)
    end
  in
  (match f.I.blocks with b :: _ -> visit b.I.bname | [] -> ());
  f.I.blocks <- List.filter (fun b -> Hashtbl.mem reachable b.I.bname) f.I.blocks

(* --- top level ----------------------------------------------------------- *)

let const_value (e : expr) =
  match e.desc with
  | Int_lit n -> `Int n
  | Float_lit x -> `Float x
  | Unop (Neg, { desc = Int_lit n; _ }) -> `Int (Int64.neg n)
  | Unop (Neg, { desc = Float_lit x; _ }) -> `Float (-.x)
  | Char_lit c -> `Int (Int64.of_int (Char.code c))
  | _ -> fail e.eline "global initialisers must be constants"

let global_init (g : global) =
  match g.g_init with
  | None -> I.Zero
  | Some (Init_scalar e) -> (
    match (g.g_ty, const_value e) with
    | Tdouble, `Float x -> I.Floats_init [| x |]
    | Tdouble, `Int n -> I.Floats_init [| Int64.to_float n |]
    | _, `Int n -> I.Words_init [| n |]
    | _, `Float _ -> fail e.eline "float initialiser for integer global")
  | Some (Init_list es) -> (
    let elem = match g.g_ty with Tarray (t, _) -> t | t -> t in
    match elem with
    | Tdouble ->
      I.Floats_init
        (Array.of_list
           (List.map
              (fun e ->
                match const_value e with
                | `Float x -> x
                | `Int n -> Int64.to_float n)
              es))
    | _ ->
      I.Words_init
        (Array.of_list
           (List.map
              (fun e ->
                match const_value e with
                | `Int n -> n
                | `Float _ -> fail e.eline "float in integer initialiser")
              es)))

(* Compile a MiniC source string into a verified MIR module. *)
let compile src : I.modul =
  let prog = Parser.parse_program src in
  let m = I.create_module () in
  List.iter (I.add_extern m) Mutls_interp.Externs.declarations;
  let globals = Hashtbl.create 16 in
  let funcs = Hashtbl.create 16 in
  (* first pass: collect signatures and globals *)
  List.iter
    (function
      | Global g ->
        Hashtbl.replace globals g.g_name g.g_ty;
        I.add_global m
          { I.gname = g.g_name; gsize = max 1 (sizeof g.g_ty); ginit = global_init g }
      | Function fd ->
        Hashtbl.replace funcs fd.f_name
          { fs_ret = fd.f_ret; fs_params = List.map fst fd.f_params })
    prog;
  (* second pass: function bodies *)
  List.iter
    (function
      | Global _ -> ()
      | Function fd ->
        let f =
          { I.fname = fd.f_name;
            params = List.map (fun (t, n) -> (n, ir_ty t)) fd.f_params;
            ret = ir_ty fd.f_ret;
            blocks = [];
            next_reg = 0;
            reg_tys = Hashtbl.create 32 }
        in
        m.I.funcs <- m.I.funcs @ [ f ];
        let entry = { I.bname = "entry"; phis = []; insts = []; term = I.Unreachable } in
        let body0 = { I.bname = "body"; phis = []; insts = []; term = I.Unreachable } in
        f.I.blocks <- [ body0; entry ];
        entry.I.term <- I.Br "body";
        let env =
          { m; globals; funcs; locals = []; f; entry; cur = body0;
            label_counter = 0; loop_stack = [] }
        in
        (* parameters are copied into allocas so they are addressable *)
        List.iteri
          (fun i (t, n) ->
            let a = alloca_in_entry env (max 1 (sizeof t)) in
            env.locals <- (n, (a, t)) :: env.locals;
            ignore (emit env I.Void (I.Store (ir_ty t, I.Arg i, I.Reg a))))
          fd.f_params;
        gen_stmts env fd.f_body;
        (* implicit return *)
        (match env.cur.I.term with
        | I.Unreachable ->
          if fd.f_ret = Tvoid then env.cur.I.term <- I.Ret None
          else if fd.f_name = "main" then env.cur.I.term <- I.Ret (Some (I.i64 0))
          else env.cur.I.term <- I.Ret (Some (I.Const (I.Cint (0L, ir_ty fd.f_ret))))
        | _ -> ());
        finish_func f;
        prune_unreachable f)
    prog;
  Mutls_mir.Mem2reg.run_module m;
  (match Mutls_mir.Verify.check_module m with
  | () -> ()
  | exception Mutls_mir.Verify.Invalid msg ->
    raise (Error ("internal: generated IR does not verify: " ^ msg)));
  m
