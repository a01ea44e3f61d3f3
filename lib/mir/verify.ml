(* Structural and SSA well-formedness checks.  Run after every
   front-end and after the speculator pass; errors here indicate a
   compiler bug, so messages are precise about location. *)

open Ir
module IntSet = Set.Make (Int)

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let check_func (m : modul) (f : func) =
  let cfg =
    try Cfg.of_func f
    with Invalid_argument msg -> fail "%s: %s" f.fname msg
  in
  let dom = Dom.compute cfg in
  (* 1. Single assignment; collect definition site of each reg. *)
  let def_site : (reg, int * int) Hashtbl.t = Hashtbl.create 64 in
  (* reg -> (block index, position); phis are position -1 *)
  Array.iteri
    (fun bi b ->
      List.iter
        (fun p ->
          if Hashtbl.mem def_site p.pid then
            fail "%s: register %%%d multiply defined" f.fname p.pid;
          Hashtbl.replace def_site p.pid (bi, -1))
        b.phis;
      List.iteri
        (fun pos i ->
          if i.ity <> Void then begin
            if Hashtbl.mem def_site i.id then
              fail "%s: register %%%d multiply defined" f.fname i.id;
            Hashtbl.replace def_site i.id (bi, pos)
          end)
        b.insts)
    cfg.Cfg.blocks;
  (* 2. Types and dominance of uses. *)
  let vty v = value_ty m f v in
  let check_use ~bi ~pos v =
    match v with
    | Reg r -> (
      match Hashtbl.find_opt def_site r with
      | None -> fail "%s: use of undefined register %%%d" f.fname r
      | Some (dbi, dpos) ->
        if dbi = bi then begin
          if dpos >= pos then
            fail "%s/%s: register %%%d used before definition" f.fname
              cfg.Cfg.blocks.(bi).bname r
        end
        else if not (Dom.dominates dom dbi bi) then
          fail "%s/%s: use of %%%d not dominated by its definition" f.fname
            cfg.Cfg.blocks.(bi).bname r)
    | Arg i ->
      if i < 0 || i >= List.length f.params then
        fail "%s: reference to argument %d out of range" f.fname i
    | Global g ->
      if find_global m g = None then fail "%s: unknown global @%s" f.fname g
    | Funcref fn ->
      if find_func m fn = None && find_extern m fn = None then
        fail "%s: reference to unknown function @%s" f.fname fn
    | Const _ -> ()
  in
  let expect what t1 t2 =
    if t1 <> t2 then
      fail "%s: %s: expected %s, got %s" f.fname what (ty_to_string t1)
        (ty_to_string t2)
  in
  Array.iteri
    (fun bi b ->
      (* Phi incoming labels must match predecessors exactly. *)
      let pred_names =
        List.map (fun pi -> cfg.Cfg.blocks.(pi).bname) cfg.Cfg.preds.(bi)
        |> List.sort compare
      in
      List.iter
        (fun p ->
          let labels = List.map fst p.incoming |> List.sort compare in
          if labels <> pred_names then
            fail "%s/%s: phi %%%d incoming %s do not match predecessors %s"
              f.fname b.bname p.pid
              (String.concat "," labels)
              (String.concat "," pred_names);
          List.iter
            (fun (_, v) ->
              match v with
              | Reg r ->
                if not (Hashtbl.mem def_site r) then
                  fail "%s: phi %%%d uses undefined %%%d" f.fname p.pid r
              | _ -> ())
            p.incoming)
        b.phis;
      List.iteri
        (fun pos i ->
          List.iter (check_use ~bi ~pos) (instr_uses i.kind);
          match i.kind with
          | Binop (op, t, a, c) ->
            let float_op = match op with Fadd | Fsub | Fmul | Fdiv -> true | _ -> false in
            if float_op then expect "fbinop type" F64 t
            else if t = F64 || t = Void || t = Ptr then
              fail "%s: integer binop at %s type" f.fname (ty_to_string t);
            expect "binop lhs" t (vty a);
            expect "binop rhs" t (vty c);
            expect "binop result" t i.ity
          | Icmp (_, t, a, c) ->
            expect "icmp lhs" t (vty a);
            expect "icmp rhs" t (vty c);
            expect "icmp result" I1 i.ity
          | Fcmp (_, a, c) ->
            expect "fcmp lhs" F64 (vty a);
            expect "fcmp rhs" F64 (vty c);
            expect "fcmp result" I1 i.ity
          | Alloca n ->
            if n <= 0 then fail "%s: alloca of size %d" f.fname n;
            if bi <> 0 then fail "%s: alloca outside entry block" f.fname;
            expect "alloca result" Ptr i.ity
          | Load (t, a) ->
            expect "load address" Ptr (vty a);
            expect "load result" t i.ity
          | Store (t, v, a) ->
            expect "store value" t (vty v);
            expect "store address" Ptr (vty a);
            expect "store result" Void i.ity
          | Ptradd (a, o) ->
            expect "ptradd base" Ptr (vty a);
            expect "ptradd offset" I64 (vty o);
            expect "ptradd result" Ptr i.ity
          | Call (name, args) ->
            if is_source_intrinsic name || is_runtime_call name then ()
            else (
              match (find_func m name, find_extern m name) with
              | Some callee, _ ->
                if List.length args <> List.length callee.params then
                  fail "%s: call @%s with %d args, expected %d" f.fname name
                    (List.length args)
                    (List.length callee.params);
                List.iteri
                  (fun k a ->
                    expect
                      (Printf.sprintf "call @%s arg %d" name k)
                      (snd (List.nth callee.params k))
                      (vty a))
                  args;
                expect ("call @" ^ name ^ " result") callee.ret i.ity
              | None, Some e ->
                if e.eparams <> [] && List.length args <> List.length e.eparams
                then
                  fail "%s: call extern @%s with %d args, expected %d" f.fname
                    name (List.length args) (List.length e.eparams);
                expect ("call @" ^ name ^ " result") e.eret i.ity
              | None, None -> fail "%s: call to unknown function @%s" f.fname name)
          | Cast (c, t1, t2, v) -> (
            expect "cast operand" t1 (vty v);
            expect "cast result" t2 i.ity;
            match c with
            | Trunc ->
              if ty_size t2 >= ty_size t1 then fail "%s: widening trunc" f.fname
            | Zext | Sext ->
              if ty_size t2 < ty_size t1 then fail "%s: narrowing ext" f.fname
            | Fptosi -> expect "fptosi source" F64 t1
            | Sitofp -> expect "sitofp result" F64 t2
            | Ptrtoint -> expect "ptrtoint source" Ptr t1
            | Inttoptr -> expect "inttoptr result" Ptr t2
            | Bitcast ->
              if ty_size t1 <> ty_size t2 then fail "%s: bitcast size" f.fname)
          | Select (c, a, d) ->
            expect "select cond" I1 (vty c);
            expect "select lhs" i.ity (vty a);
            expect "select rhs" i.ity (vty d))
        b.insts;
      List.iter (check_use ~bi ~pos:max_int) (term_uses b.term);
      (match b.term with
      | Ret (Some v) -> expect "return value" f.ret (vty v)
      | Ret None ->
        if f.ret <> Void then fail "%s: ret void from non-void" f.fname
      | Cbr (c, _, _) -> expect "cbr condition" I1 (vty c)
      | Switch (v, _, _) ->
        let t = vty v in
        if t <> I64 && t <> I32 then fail "%s: switch on %s" f.fname (ty_to_string t)
      | Br _ | Unreachable -> ());
      List.iter
        (fun l ->
          if not (Hashtbl.mem cfg.Cfg.index l) then
            fail "%s/%s: branch to unknown block %s" f.fname b.bname l)
        (term_succs b.term))
    cfg.Cfg.blocks;
  if (entry_block f).phis <> [] then fail "%s: entry block has phis" f.fname

let check_module (m : modul) =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (f : func) ->
      if Hashtbl.mem seen f.fname then fail "duplicate function @%s" f.fname;
      Hashtbl.replace seen f.fname ())
    m.funcs;
  List.iter (check_func m) m.funcs

let check_module_result m =
  match check_module m with
  | () -> Ok ()
  | exception Invalid msg -> Error msg
