(* The compiled execution engine (Compile, behind Eval) versus the
   retained tree-walking reference interpreter (Reference): shared
   scalar semantics, agreement on random programs, and the crown
   invariant — same-seed runs produce identical outputs, bit-identical
   virtual times and byte-identical traces across the engine swap. *)

module Ir = Mutls_mir.Ir
module V = Mutls_interp.Value
module Ops = Mutls_interp.Ops
module Eval = Mutls_interp.Eval
module Reference = Mutls_interp.Reference
module Stats = Mutls_runtime.Stats
module Config = Mutls_runtime.Config
module Trace = Mutls_obs.Trace
module Report = Mutls_obs.Report

(* --- Ops: specializers agree pointwise with direct evaluation ---------- *)

let int_tys = [ Ir.I1; Ir.I8; Ir.I32; Ir.I64; Ir.Ptr ]
let all_tys = [ Ir.I1; Ir.I8; Ir.I32; Ir.I64; Ir.F64; Ir.Ptr ]

let int_binops =
  [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Sdiv; Ir.Srem; Ir.And; Ir.Or; Ir.Xor;
    Ir.Shl; Ir.Lshr; Ir.Ashr ]

let float_binops = [ Ir.Fadd; Ir.Fsub; Ir.Fmul; Ir.Fdiv ]
let icmps = [ Ir.Ieq; Ir.Ine; Ir.Islt; Ir.Isle; Ir.Isgt; Ir.Isge ]
let fcmps = [ Ir.Feq; Ir.Fne; Ir.Flt; Ir.Fle; Ir.Fgt; Ir.Fge ]

let casts =
  [ Ir.Trunc; Ir.Zext; Ir.Sext; Ir.Fptosi; Ir.Sitofp; Ir.Ptrtoint;
    Ir.Inttoptr; Ir.Bitcast ]

let raw_ints =
  [ 0L; 1L; 2L; 3L; 7L; 63L; 64L; 127L; 128L; 255L; 256L; 0x7FFFFFFFL;
    0x80000000L; 0xFFFFFFFFL; 0x100000000L; -1L; -128L; -12345L;
    Int64.max_int; Int64.min_int ]

let floats =
  [ 0.0; -0.0; 1.0; -1.5; 3.25; 1e300; -1e-300; infinity; neg_infinity; nan ]

(* Both engines keep sub-word payloads canonical (zero-extended), so
   pointwise agreement is over canonical representations. *)
let canon ty n = V.truncate_to ty n

let outcome f =
  match f () with v -> Ok v | exception Ops.Trap m -> Error m

let same_outcome what a b =
  let show = function
    | Ok v -> "Ok " ^ V.to_string v
    | Error m -> "Trap " ^ m
  in
  if compare a b <> 0 then
    Alcotest.failf "%s: %s <> %s" what (show a) (show b)

let test_binop_specializers () =
  List.iter
    (fun op ->
      List.iter
        (fun ty ->
          let f = Ops.binop_fn op ty in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let x = V.VI (canon ty a) and y = V.VI (canon ty b) in
                  same_outcome "binop"
                    (outcome (fun () -> Ops.eval_binop op ty x y))
                    (outcome (fun () -> f x y)))
                raw_ints)
            raw_ints)
        int_tys)
    int_binops;
  List.iter
    (fun op ->
      let f = Ops.binop_fn op Ir.F64 in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let x = V.VF a and y = V.VF b in
              same_outcome "float binop"
                (outcome (fun () -> Ops.eval_binop op Ir.F64 x y))
                (outcome (fun () -> f x y)))
            floats)
        floats)
    float_binops

let test_icmp_fcmp_specializers () =
  List.iter
    (fun op ->
      List.iter
        (fun ty ->
          let f = Ops.icmp_fn op ty in
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let x = V.VI (canon ty a) and y = V.VI (canon ty b) in
                  same_outcome "icmp"
                    (outcome (fun () -> Ops.eval_icmp op ty x y))
                    (outcome (fun () -> f x y)))
                raw_ints)
            raw_ints)
        int_tys)
    icmps;
  List.iter
    (fun op ->
      let f = Ops.fcmp_fn op in
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              let x = V.VF a and y = V.VF b in
              same_outcome "fcmp"
                (outcome (fun () -> Ops.eval_fcmp op x y))
                (outcome (fun () -> f x y)))
            floats)
        floats)
    fcmps

let test_cast_specializers () =
  List.iter
    (fun c ->
      List.iter
        (fun from_ty ->
          List.iter
            (fun to_ty ->
              let f = Ops.cast_fn c from_ty to_ty in
              let wants_float =
                c = Ir.Fptosi || (c = Ir.Bitcast && from_ty = Ir.F64)
              in
              let inputs =
                if wants_float then
                  (* keep NaN out of Fptosi: Int64.of_float nan is
                     unspecified, not a semantics we pin down *)
                  List.map (fun x -> V.VF x)
                    (List.filter (fun x -> x = x) floats)
                else List.map (fun n -> V.VI (canon from_ty n)) raw_ints
              in
              List.iter
                (fun v ->
                  same_outcome "cast"
                    (outcome (fun () -> Ops.eval_cast c from_ty to_ty v))
                    (outcome (fun () -> f v)))
                inputs)
            all_tys)
        all_tys)
    casts

(* --- widened (unboxed) specializers agree with direct evaluation ------- *)

(* The register-bank engine inlines [binop_i]/[icmp_i]/[fcmp_f]
   semantics; this pins the raw int64/float variants to [eval_*]
   pointwise, traps included, on canonical inputs. *)
let test_widened_specializers () =
  List.iter
    (fun op ->
      List.iter
        (fun ty ->
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let x = canon ty a and y = canon ty b in
                  same_outcome "binop_i"
                    (outcome (fun () -> Ops.eval_binop op ty (V.VI x) (V.VI y)))
                    (outcome (fun () -> V.VI (Ops.binop_i op ty x y))))
                raw_ints)
            raw_ints)
        int_tys)
    int_binops;
  List.iter
    (fun op ->
      List.iter
        (fun ty ->
          List.iter
            (fun a ->
              List.iter
                (fun b ->
                  let x = canon ty a and y = canon ty b in
                  same_outcome "icmp_i"
                    (outcome (fun () -> Ops.eval_icmp op ty (V.VI x) (V.VI y)))
                    (outcome (fun () -> V.VI (Ops.icmp_i op ty x y))))
                raw_ints)
            raw_ints)
        int_tys)
    icmps;
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              same_outcome "fcmp_f"
                (outcome (fun () -> Ops.eval_fcmp op (V.VF a) (V.VF b)))
                (outcome (fun () -> V.VI (Ops.fcmp_f op a b))))
            floats)
        floats)
    fcmps;
  List.iter
    (fun op ->
      List.iter
        (fun a ->
          List.iter
            (fun b ->
              same_outcome "binop_f"
                (outcome (fun () -> Ops.eval_binop op Ir.F64 (V.VF a) (V.VF b)))
                (outcome (fun () -> V.VF (Ops.binop_f op a b))))
            floats)
        floats)
    float_binops

(* --- sub-word truncation of Lshr/And/Or (the historic gap) ------------- *)

let vi = function
  | V.VI n -> n
  | V.VF _ -> Alcotest.fail "expected an integer"

let check_i64 what expected got =
  Alcotest.(check int64) what expected (vi got)

let test_subword_truncation () =
  (* results must come out canonical even from non-canonical payloads *)
  check_i64 "i8 and" 0xFFL (Ops.eval_binop Ir.And Ir.I8 (V.VI 0x1FFL) (V.VI 0x1FFL));
  check_i64 "i32 or" 3L
    (Ops.eval_binop Ir.Or Ir.I32 (V.VI 0x100000001L) (V.VI 2L));
  check_i64 "i8 lshr" 0L (Ops.eval_binop Ir.Lshr Ir.I8 (V.VI 0xF00L) (V.VI 0L));
  check_i64 "i32 lshr" 0x7FFFFFFFL
    (Ops.eval_binop Ir.Lshr Ir.I32 (V.VI 0xFFFFFFFFL) (V.VI 1L));
  (* canonical-input shift/bitwise behaviour on i32/i8 *)
  check_i64 "i32 shl wraps" 0L
    (Ops.eval_binop Ir.Shl Ir.I32 (V.VI 0x80000000L) (V.VI 1L));
  check_i64 "i32 ashr sign-fills" 0xFFFFFFFFL
    (Ops.eval_binop Ir.Ashr Ir.I32 (V.VI 0x80000000L) (V.VI 31L));
  check_i64 "i8 shl wraps" 0x54L
    (Ops.eval_binop Ir.Shl Ir.I8 (V.VI 0xAAL) (V.VI 1L));
  check_i64 "i8 ashr sign-fills" 0xFEL
    (Ops.eval_binop Ir.Ashr Ir.I8 (V.VI 0x80L) (V.VI 6L));
  check_i64 "i32 xor stays canonical" 0xFFFFFFFFL
    (Ops.eval_binop Ir.Xor Ir.I32 (V.VI 0x55555555L) (V.VI 0xAAAAAAAAL))

(* --- malformed programs trap cleanly in both engines ------------------- *)

let empty_func term insts =
  let f =
    { Ir.fname = "main"; params = []; ret = Ir.I64; blocks = [];
      next_reg = 1; reg_tys = Hashtbl.create 4 }
  in
  f.Ir.blocks <- [ { Ir.bname = "entry"; phis = []; insts; term } ];
  let m = Ir.create_module () in
  m.Ir.funcs <- [ f ];
  m

let expect_trap msg run =
  Alcotest.check_raises msg (Ops.Trap msg) (fun () -> ignore (run ()))

let test_trap_unknown_function () =
  let m = Ir.create_module () in
  expect_trap "call to unknown function @main" (fun () ->
      Eval.run_sequential m);
  expect_trap "call to unknown function @main" (fun () ->
      Reference.run_sequential m)

let test_trap_unknown_callee () =
  let m =
    empty_func
      (Ir.Ret (Some (Ir.i64 0)))
      [ { Ir.id = 0; ity = Ir.I64; kind = Ir.Call ("nosuch", []) } ]
  in
  expect_trap "call to unknown extern @nosuch" (fun () ->
      Eval.run_sequential m);
  expect_trap "call to unknown extern @nosuch" (fun () ->
      Reference.run_sequential m)

let test_trap_unknown_block () =
  let m = empty_func (Ir.Br "nowhere") [] in
  expect_trap "unknown block nowhere in @main" (fun () ->
      Eval.run_sequential m);
  expect_trap "unknown block nowhere in @main" (fun () ->
      Reference.run_sequential m)

(* Verify-valid IR with no register-bank lowering: a function
   reference as the [Ptradd] base.  The compiled engine refuses the
   whole module with a trap naming the function; the reference rejects
   the operand when it evaluates it. *)
let test_trap_unbankable () =
  let m =
    empty_func
      (Ir.Ret (Some (Ir.i64 0)))
      [ { Ir.id = 0; ity = Ir.Ptr; kind = Ir.Ptradd (Ir.Funcref "main", Ir.i64 0) } ]
  in
  Mutls_mir.Verify.check_module m;
  let names_main run =
    match run () with
    | _ -> Alcotest.fail "expected a trap"
    | exception Ops.Trap msg ->
      Alcotest.(check bool)
        (Printf.sprintf "trap names @main: %s" msg)
        true
        (Astring_contains.contains msg "@main")
  in
  names_main (fun () -> ignore (Eval.run_sequential m));
  names_main (fun () -> ignore (Eval.run_tls Config.default m));
  expect_trap "function reference in value position" (fun () ->
      Reference.run_sequential m)

(* --- random programs: compiled == reference, including total cost ------ *)

let test_random_agreement =
  QCheck.Test.make ~name:"compiled == reference on random programs" ~count:60
    (QCheck.pair Test_properties.arb_expr
       (QCheck.quad (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50)
          (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50)))
    (fun (expr, (a, b, c, d)) ->
      let src =
        Printf.sprintf
          "int main() { int v0 = %d; int v1 = %d; int v2 = %d; int v3 = %d;\n\
          \  int r = %s; print_int(r); print_newline(); return r; }" a b c d
          (Test_properties.pp expr)
      in
      let m = Mutls_minic.Codegen.compile src in
      let r1 = Eval.run_sequential m in
      let r2 = Reference.run_sequential m in
      r1.Eval.sret = r2.Eval.sret
      && r1.Eval.soutput = r2.Eval.soutput
      && r1.Eval.scost = r2.Eval.scost)
  |> QCheck_alcotest.to_alcotest

(* --- random programs biased at the bank boundaries --------------------- *)

(* The register banks split values by static type: i8/i32 sub-word
   arithmetic (masking and sign-extension on the int bank) and double
   bodies (the float bank, plus the casts that cross over) are exactly
   where a banked lowering can diverge from the boxed reference — so
   bias generation toward them. *)
let gen_typed_stmt =
  let open QCheck.Gen in
  let v = int_range 0 2 in
  oneof
    [ map3 (fun i j k -> Printf.sprintf "c%d = c%d + %d;" i j k) v v
        (int_range (-300) 300);
      map3 (fun i j k -> Printf.sprintf "c%d = c%d * c%d;" i j k) v v v;
      map3 (fun i j k -> Printf.sprintf "c%d = (char)(w%d ^ c%d);" i j k) v v v;
      map3 (fun i j k -> Printf.sprintf "w%d = w%d + w%d;" i j k) v v v;
      map3 (fun i j k -> Printf.sprintf "w%d = w%d * %d;" i j k) v v
        (int_range (-100000) 100000);
      map3 (fun i j s -> Printf.sprintf "w%d = w%d << %d;" i j s) v v
        (int_range 0 7);
      map3 (fun i j k -> Printf.sprintf "w%d = (int32)(c%d - w%d);" i j k) v v v;
      map3 (fun i j k -> Printf.sprintf "d%d = d%d * d%d;" i j k) v v v;
      map3 (fun i j k -> Printf.sprintf "d%d = d%d - d%d;" i j k) v v v;
      map2 (fun i j -> Printf.sprintf "d%d = d%d + 0.125;" i j) v v;
      map3 (fun i j k -> Printf.sprintf "d%d = (double)(c%d + w%d);" i j k) v v v;
      map3 (fun i j k -> Printf.sprintf "v0 = v0 + w%d * c%d + %d;" i j k) v v
        (int_range (-50) 50);
      map2 (fun i j -> Printf.sprintf "v0 = v0 ^ (c%d < w%d);" i j) v v ]

let arb_typed_body =
  QCheck.make
    ~print:(fun l -> String.concat "\n" l)
    QCheck.Gen.(list_size (int_range 5 30) gen_typed_stmt)

let test_random_bank_boundaries =
  QCheck.Test.make
    ~name:"compiled == reference on sub-word/float-heavy programs" ~count:60
    arb_typed_body
    (fun stmts ->
      let src =
        Printf.sprintf
          "int main() {\n\
          \  char c0 = 'a'; char c1 = 'M'; char c2 = 7;\n\
          \  int32 w0 = 123; int32 w1 = -45; int32 w2 = 2147480001;\n\
          \  double d0 = 1.5; double d1 = -2.25; double d2 = 0.5;\n\
          \  int v0 = 9;\n\
          \  %s\n\
          \  print_int(v0); print_int(c0 + c1 + c2); print_int(w0 + w1 + w2);\n\
          \  print_float(d0); print_float(d1); print_float(d2);\n\
          \  print_newline(); return v0; }"
          (String.concat "\n  " stmts)
      in
      let m = Mutls_minic.Codegen.compile src in
      let r1 = Eval.run_sequential m in
      let r2 = Reference.run_sequential m in
      r1.Eval.sret = r2.Eval.sret
      && r1.Eval.soutput = r2.Eval.soutput
      && r1.Eval.scost = r2.Eval.scost)
  |> QCheck_alcotest.to_alcotest

(* --- the unboxed hot path really does not allocate --------------------- *)

(* A straight-line integer loop body runs entirely in the register
   banks: beyond the fixed per-run setup (frame image, memory, output
   buffer) it must allocate ~0 minor words per executed instruction.
   A boxed [Value.v] costs 2+ words per arithmetic result, so this
   fails loudly if any boxing creeps into the banked path. *)
let test_allocation_budget () =
  let iters = 20000 in
  let src =
    Printf.sprintf
      "int main() { int v = 1; int a = 3; int i = 0;\n\
      \  while (i < %d) {\n\
      \    v = v * 3 + 1; a = (a ^ v) + 7; v = v - (a & 1023);\n\
      \    a = a * 5 + v; v = v | 1; i = i + 1;\n\
      \  }\n\
      \  print_int(v); print_newline(); return 0; }"
      iters
  in
  let m = Mutls_minic.Codegen.compile src in
  let p = Eval.prepare m in
  ignore (Eval.run_sequential_prepared p) (* warm-up *);
  let w0 = Gc.minor_words () in
  ignore (Eval.run_sequential_prepared p);
  let w1 = Gc.minor_words () in
  (* ~9 executed instructions per iteration; generous fixed allowance
     for the per-run setup *)
  let per_instr = (w1 -. w0) /. float_of_int (iters * 9) in
  if per_instr > 0.25 then
    Alcotest.failf "hot path allocates %.3f minor words per instruction"
      per_instr

(* --- engine swap is unobservable on the paper's workloads -------------- *)

let transformed_workload name =
  let w = Mutls_workloads.Workloads.find name in
  let m = Mutls_minic.Codegen.compile (w.Mutls_workloads.Workloads.c_source ()) in
  (m, Mutls_speculator.Pass.run m)

let check_tls_equivalent ~ncpus name =
  let _, t = transformed_workload name in
  let cfg = { Config.default with ncpus } in
  let r1 = Eval.run_tls cfg t in
  let r2 = Reference.run_tls cfg t in
  Alcotest.(check string) (name ^ " output") r2.Eval.toutput r1.Eval.toutput;
  Alcotest.(check (float 0.0)) (name ^ " finish time (bit-identical)")
    r2.Eval.tfinish r1.Eval.tfinish;
  Alcotest.(check int) (name ^ " retired threads")
    (List.length r2.Eval.tretired)
    (List.length r1.Eval.tretired);
  Alcotest.(check (list (pair string (float 0.0))))
    (name ^ " main stats (bit-identical)")
    (Stats.to_assoc r2.Eval.tmain_stats)
    (Stats.to_assoc r1.Eval.tmain_stats)

let test_tls_equivalence_3x1 () = check_tls_equivalent ~ncpus:4 "3x+1"
let test_tls_equivalence_fft () = check_tls_equivalent ~ncpus:8 "fft"

let test_seq_cost_identical () =
  let m, _ = transformed_workload "3x+1" in
  let r1 = Eval.run_sequential m in
  let r2 = Reference.run_sequential m in
  Alcotest.(check (float 0.0)) "sequential cost (bit-identical)"
    r2.Eval.scost r1.Eval.scost

(* Same seed, same program: the JSONL trace streams of the two engines
   must be byte-identical — every Charge flush, fork, commit and
   rollback lands at the same virtual time in the same order. *)
let traced_run run_tls t ncpus =
  let b = Buffer.create 65536 in
  let sink = Trace.jsonl (Buffer.add_string b) in
  let cfg = { Config.default with ncpus; trace_sink = sink } in
  let r = run_tls cfg t in
  Trace.close sink;
  (r, Buffer.contents b)

let test_trace_byte_identical () =
  let _, t = transformed_workload "3x+1" in
  let _, tr1 = traced_run (fun cfg t -> Eval.run_tls cfg t) t 4 in
  let _, tr2 = traced_run (fun cfg t -> Reference.run_tls cfg t) t 4 in
  Alcotest.(check bool) "trace non-empty" true (String.length tr1 > 0);
  Alcotest.(check string) "engine swap leaves trace byte-identical" tr2 tr1

(* Fig. 8/9 regression: a Report folded from the compiled engine's
   trace still reproduces the in-process Stats accounting. *)
let test_report_matches_stats_compiled () =
  let _, t = transformed_workload "3x+1" in
  let r, tr = traced_run (fun cfg t -> Eval.run_tls cfg t) t 4 in
  let rep = Report.of_jsonl tr in
  let close_enough what a b =
    let tol = 1e-6 *. (1.0 +. abs_float a +. abs_float b) in
    if abs_float (a -. b) > tol then Alcotest.failf "%s: %g <> %g" what a b
  in
  close_enough "crit_total" (Stats.total r.Eval.tmain_stats)
    rep.Report.crit_total;
  close_enough "runtime" r.Eval.tfinish rep.Report.runtime

(* --- prepared programs: prepare once, run many ------------------------- *)

let test_prepared_reuse () =
  let m, t = transformed_workload "3x+1" in
  let p = Eval.prepare m in
  let direct = Eval.run_sequential m in
  let prepared = Eval.run_sequential_prepared p in
  Alcotest.(check string) "prepared seq output" direct.Eval.soutput
    prepared.Eval.soutput;
  Alcotest.(check (float 0.0)) "prepared seq cost" direct.Eval.scost
    prepared.Eval.scost;
  let pt = Eval.prepare t in
  List.iter
    (fun ncpus ->
      let cfg = { Config.default with ncpus } in
      let r1 = Eval.run_tls cfg t in
      let r2 = Eval.run_tls_prepared cfg pt in
      Alcotest.(check string)
        (Printf.sprintf "prepared tls output @%d" ncpus)
        r1.Eval.toutput r2.Eval.toutput;
      Alcotest.(check (float 0.0))
        (Printf.sprintf "prepared tls finish @%d" ncpus)
        r1.Eval.tfinish r2.Eval.tfinish)
    [ 1; 4 ]

let tests =
  [
    Alcotest.test_case "binop specializers == direct eval" `Quick
      test_binop_specializers;
    Alcotest.test_case "icmp/fcmp specializers == direct eval" `Quick
      test_icmp_fcmp_specializers;
    Alcotest.test_case "cast specializers == direct eval" `Quick
      test_cast_specializers;
    Alcotest.test_case "widened specializers == direct eval" `Quick
      test_widened_specializers;
    Alcotest.test_case "sub-word lshr/and/or truncate" `Quick
      test_subword_truncation;
    Alcotest.test_case "unknown function traps cleanly" `Quick
      test_trap_unknown_function;
    Alcotest.test_case "unknown callee traps cleanly" `Quick
      test_trap_unknown_callee;
    Alcotest.test_case "unknown block traps cleanly" `Quick
      test_trap_unknown_block;
    Alcotest.test_case "unbankable module traps cleanly" `Quick
      test_trap_unbankable;
    test_random_agreement;
    test_random_bank_boundaries;
    Alcotest.test_case "hot path allocation budget" `Quick
      test_allocation_budget;
    Alcotest.test_case "sequential cost bit-identical" `Quick
      test_seq_cost_identical;
    Alcotest.test_case "TLS equivalence (3x+1)" `Quick
      test_tls_equivalence_3x1;
    Alcotest.test_case "TLS equivalence (fft)" `Quick test_tls_equivalence_fft;
    Alcotest.test_case "trace byte-identical across engines" `Quick
      test_trace_byte_identical;
    Alcotest.test_case "report matches stats (compiled)" `Quick
      test_report_matches_stats_compiled;
    Alcotest.test_case "prepared programs reusable" `Quick test_prepared_reuse;
  ]
