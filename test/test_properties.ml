(* Property-based tests: randomly generated MiniC expressions evaluated
   by the full compile+interpret pipeline must agree with a reference
   evaluator, and random annotated programs must be TLS-equivalent. *)

module V = Mutls_interp.Value

(* --- random integer expressions ---------------------------------------- *)

(* Expression AST mirrored in OCaml, printable as MiniC and evaluable
   with two's-complement int64 semantics.  Division/modulo guard their
   denominators to stay trap-free. *)
type e =
  | Lit of int
  | Var of int (* v0..v3 *)
  | Add of e * e
  | Sub of e * e
  | Mul of e * e
  | Div of e * e
  | Mod of e * e
  | Neg of e
  | Band of e * e
  | Bor of e * e
  | Bxor of e * e
  | Shl of e * e
  | Cmp of e * e
  | Ternary of e * e * e

let rec pp = function
  | Lit n -> string_of_int n
  | Var k -> Printf.sprintf "v%d" k
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (pp a) (pp b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (pp a) (pp b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (pp a) (pp b)
  | Div (a, b) -> Printf.sprintf "(%s / (%s == 0 ? 7 : %s))" (pp a) (pp b) (pp b)
  | Mod (a, b) -> Printf.sprintf "(%s %% (%s == 0 ? 7 : %s))" (pp a) (pp b) (pp b)
  | Neg a -> Printf.sprintf "(- %s)" (pp a)
  | Band (a, b) -> Printf.sprintf "(%s & %s)" (pp a) (pp b)
  | Bor (a, b) -> Printf.sprintf "(%s | %s)" (pp a) (pp b)
  | Bxor (a, b) -> Printf.sprintf "(%s ^ %s)" (pp a) (pp b)
  | Shl (a, b) -> Printf.sprintf "(%s << (%s & 7))" (pp a) (pp b)
  | Cmp (a, b) -> Printf.sprintf "(%s < %s)" (pp a) (pp b)
  | Ternary (c, a, b) -> Printf.sprintf "(%s ? %s : %s)" (pp c) (pp a) (pp b)

let rec eval env = function
  | Lit n -> Int64.of_int n
  | Var k -> env.(k)
  | Add (a, b) -> Int64.add (eval env a) (eval env b)
  | Sub (a, b) -> Int64.sub (eval env a) (eval env b)
  | Mul (a, b) -> Int64.mul (eval env a) (eval env b)
  | Div (a, b) ->
    let d = eval env b in
    Int64.div (eval env a) (if d = 0L then 7L else d)
  | Mod (a, b) ->
    let d = eval env b in
    Int64.rem (eval env a) (if d = 0L then 7L else d)
  | Neg a -> Int64.neg (eval env a)
  | Band (a, b) -> Int64.logand (eval env a) (eval env b)
  | Bor (a, b) -> Int64.logor (eval env a) (eval env b)
  | Bxor (a, b) -> Int64.logxor (eval env a) (eval env b)
  | Shl (a, b) ->
    Int64.shift_left (eval env a) (Int64.to_int (Int64.logand (eval env b) 7L))
  | Cmp (a, b) -> if eval env a < eval env b then 1L else 0L
  | Ternary (c, a, b) -> if eval env c <> 0L then eval env a else eval env b

let gen_expr =
  let open QCheck.Gen in
  sized @@ fix (fun self n ->
      if n <= 0 then
        oneof [ map (fun i -> Lit i) (int_range (-100) 100);
                map (fun k -> Var k) (int_range 0 3) ]
      else
        let sub = self (n / 2) in
        oneof
          [ map2 (fun a b -> Add (a, b)) sub sub;
            map2 (fun a b -> Sub (a, b)) sub sub;
            map2 (fun a b -> Mul (a, b)) sub sub;
            map2 (fun a b -> Div (a, b)) sub sub;
            map2 (fun a b -> Mod (a, b)) sub sub;
            map (fun a -> Neg a) sub;
            map2 (fun a b -> Band (a, b)) sub sub;
            map2 (fun a b -> Bor (a, b)) sub sub;
            map2 (fun a b -> Bxor (a, b)) sub sub;
            map2 (fun a b -> Shl (a, b)) sub sub;
            map2 (fun a b -> Cmp (a, b)) sub sub;
            map3 (fun c a b -> Ternary (c, a, b)) sub sub sub ])

let arb_expr = QCheck.make ~print:pp gen_expr

(* small variant for whole-program TLS tests: very large expression
   trees legitimately overflow the RegisterBuffer (a documented pass
   error), which is not what this property is about *)
let arb_expr_small =
  QCheck.make ~print:pp QCheck.Gen.(sized_size (int_bound 5) (fix (fun self n ->
      if n <= 0 then
        oneof [ map (fun i -> Lit i) (int_range (-100) 100);
                map (fun k -> Var k) (int_range 0 3) ]
      else
        let sub = self (n / 2) in
        oneof
          [ map2 (fun a b -> Add (a, b)) sub sub;
            map2 (fun a b -> Mul (a, b)) sub sub;
            map2 (fun a b -> Div (a, b)) sub sub;
            map2 (fun a b -> Bxor (a, b)) sub sub;
            map2 (fun a b -> Shl (a, b)) sub sub;
            map2 (fun a b -> Cmp (a, b)) sub sub;
            map3 (fun c a b -> Ternary (c, a, b)) sub sub sub ])))

let compile_and_run expr env =
  let src =
    Printf.sprintf
      "int main() { int v0 = %Ld; int v1 = %Ld; int v2 = %Ld; int v3 = %Ld;\n\
      \  return %s; }"
      env.(0) env.(1) env.(2) env.(3) (pp expr)
  in
  let m = Mutls_minic.Codegen.compile src in
  match (Mutls_interp.Eval.run_sequential m).Mutls_interp.Eval.sret with
  | Some (V.VI v) -> v
  | _ -> failwith "no integer result"

let test_expr_semantics =
  QCheck.Test.make ~name:"MiniC expressions vs reference evaluator" ~count:120
    (QCheck.pair arb_expr
       (QCheck.quad (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50)
          (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50)))
    (fun (expr, (a, b, c, d)) ->
      let env = [| Int64.of_int a; Int64.of_int b; Int64.of_int c; Int64.of_int d |] in
      compile_and_run expr env = eval env expr)
  |> QCheck_alcotest.to_alcotest

(* --- random chunked loops are TLS-equivalent --------------------------- *)

(* A random per-chunk expression over the chunk index: the classic
   chained speculation pattern, randomly generated. *)
let test_random_tls_equivalence =
  QCheck.Test.make ~name:"random chunked loops TLS == sequential" ~count:20
    arb_expr_small
    (fun expr ->
      let src =
        Printf.sprintf
          {|
int out[16];
int main() {
  for (int c = 0; c < 16; c++) {
    __builtin_MUTLS_fork(0, mixed);
    int v0 = c; int v1 = c + 1; int v2 = c * 2; int v3 = 7 - c;
    int r = %s;
    for (int k = 0; k < 20; k++) r = r + k * c;
    out[c] = r;
    __builtin_MUTLS_join(0);
  }
  int t = 0;
  for (int c = 0; c < 16; c++) t = t + out[c] %% 100000;
  print_int(t);
  print_newline();
  return 0;
}
|}
          (pp expr)
      in
      let m = Mutls_minic.Codegen.compile src in
      let seq = Mutls_interp.Eval.run_sequential m in
      let t = Mutls_speculator.Pass.run m in
      let cfg = { Mutls_runtime.Config.default with ncpus = 4 } in
      let r = Mutls_interp.Eval.run_tls cfg t in
      r.Mutls_interp.Eval.toutput = seq.Mutls_interp.Eval.soutput)
  |> QCheck_alcotest.to_alcotest

(* --- memory-pressure resilience ----------------------------------------- *)

(* Enabling the spill tier must be free until pressure: for a program
   whose per-thread footprint fits the home slots without hash
   conflicts (park-free by construction: a small contiguous array),
   output AND virtual time are identical with the tier off and on. *)
let test_spill_tier_free =
  QCheck.Test.make
    ~name:"spill tier free for park-free programs (output and cycles)"
    ~count:8 arb_expr_small
    (fun expr ->
      let src =
        Printf.sprintf
          {|
int out[16];
int main() {
  for (int c = 0; c < 8; c++) {
    __builtin_MUTLS_fork(0, mixed);
    int v0 = c; int v1 = c + 1; int v2 = c * 2; int v3 = 7 - c;
    int r = %s;
    for (int k = 0; k < 12; k++) r = r + k * c;
    out[c] = r;
    __builtin_MUTLS_join(0);
  }
  int t = 0;
  for (int c = 0; c < 8; c++) t = t + out[c] %% 100000;
  print_int(t);
  print_newline();
  return 0;
}
|}
          (pp expr)
      in
      let m = Mutls_minic.Codegen.compile src in
      let t = Mutls_speculator.Pass.run m in
      let run buffers =
        let cfg = { Mutls_runtime.Config.default with ncpus = 4; buffers } in
        Mutls_interp.Eval.run_tls cfg t
      in
      let off = run Mutls_runtime.Config.Buffers.default in
      let on_ =
        run
          { Mutls_runtime.Config.Buffers.default with
            Mutls_runtime.Config.Buffers.spill_slots = 4096
          }
      in
      off.Mutls_interp.Eval.toutput = on_.Mutls_interp.Eval.toutput
      && off.Mutls_interp.Eval.tfinish = on_.Mutls_interp.Eval.tfinish)
  |> QCheck_alcotest.to_alcotest

(* Forced overflow pressure: home slots far smaller than the scattered
   per-chunk footprint, so every speculative thread spills (and
   cross-chunk aliasing forces genuine rollbacks too).  Whatever the
   memory system does under pressure, TLS output must equal
   sequential. *)
let test_pressure_tls_equivalence =
  QCheck.Test.make
    ~name:"random loops TLS == sequential under overflow pressure" ~count:6
    arb_expr_small
    (fun expr ->
      let src =
        Printf.sprintf
          {|
int out[16];
int A[512];
int main() {
  for (int c = 0; c < 12; c++) {
    __builtin_MUTLS_fork(0, mixed);
    int v0 = c; int v1 = c + 1; int v2 = c * 2; int v3 = 7 - c;
    int r = %s;
    for (int k = 0; k < 40; k++) {
      int i = (c * 97 + k * 31) %% 512;
      A[i] = A[i] + r + k;
    }
    out[c] = r;
    __builtin_MUTLS_join(0);
  }
  int t = 0;
  for (int c = 0; c < 12; c++) t = t + out[c] %% 100000;
  for (int i = 0; i < 512; i++) t = t + A[i] %% 1000;
  print_int(t);
  print_newline();
  return 0;
}
|}
          (pp expr)
      in
      let m = Mutls_minic.Codegen.compile src in
      let seq = Mutls_interp.Eval.run_sequential m in
      let t = Mutls_speculator.Pass.run m in
      let cfg =
        { Mutls_runtime.Config.default with
          ncpus = 4;
          buffers =
            Mutls_runtime.Config.Buffers.make ~slots:16 ~temp_slots:2
              ~spill_slots:128 ()
        }
      in
      let r = Mutls_interp.Eval.run_tls cfg t in
      r.Mutls_interp.Eval.toutput = seq.Mutls_interp.Eval.soutput)
  |> QCheck_alcotest.to_alcotest

(* --- trace serialisation properties ------------------------------------- *)

module Trace = Mutls_obs.Trace

let all_reasons =
  Trace.[ Conflict; Stale_local; Abandoned; Buffer_overflow; Bad_access ]

let test_reason_round_trip () =
  List.iter
    (fun r ->
      match Trace.rollback_reason_of_string (Trace.rollback_reason_to_string r) with
      | Some r' ->
        Alcotest.(check bool)
          ("round trip " ^ Trace.rollback_reason_to_string r)
          true (r = r')
      | None ->
        Alcotest.failf "%s did not parse back"
          (Trace.rollback_reason_to_string r))
    all_reasons;
  Alcotest.(check bool) "unknown reason is None" true
    (Trace.rollback_reason_of_string "bogus" = None)

(* Random records over every event variant.  Costs and times are exact
   binary fractions so float round trips are never the failure cause —
   the property targets the schema, not IEEE printing. *)
let gen_record =
  let open QCheck.Gen in
  let cost = map (fun n -> float_of_int n /. 4.0) (int_range 0 10_000_000) in
  let id = int_range (-1) 5000 in
  let reason = oneofl all_reasons in
  let category =
    oneofl
      [ "work"; "join"; "idle"; "fork"; "find CPU"; "validation"; "commit";
        "finalize"; "wasted work"; "overflow" ]
  in
  let stats = list_size (int_bound 5) (pair category cost) in
  let event =
    oneof
      [
        map3 (fun child child_rank point -> Trace.Fork { child; child_rank; point })
          id id id;
        map2 (fun child_rank counter -> Trace.Speculate { child_rank; counter })
          id small_nat;
        map2 (fun counter stop -> Trace.Check { counter; stop }) small_nat bool;
        map3 (fun words ok addr -> Trace.Validate { words; ok; addr })
          small_nat bool (opt (int_range 0 0xFFFFFF));
        map2 (fun words counter -> Trace.Commit { words; counter }) small_nat
          small_nat;
        map2 (fun reason point -> Trace.Rollback { reason; point }) reason id;
        map (fun point -> Trace.Nosync { point }) id;
        (* -1/0 both serialise argless and parse back as -1, so the
           line-level round trip stays byte-stable for all three *)
        map (fun spill_cap -> Trace.Overflow { spill_cap })
          (oneofl [ -1; 0; 16; 4096 ]);
        map2 (fun child committed -> Trace.Join { child; committed }) id bool;
        map (fun counter -> Trace.Barrier { counter }) small_nat;
        map3 (fun committed runtime stats -> Trace.Retire { committed; runtime; stats })
          bool cost stats;
        map2 (fun category cost -> Trace.Charge { category; cost }) category cost;
        map (fun addr -> Trace.Spill { addr }) (int_range 0 0xFFFFFF);
        map (fun addr -> Trace.Park { addr }) (int_range 0 0xFFFFFF);
        map2 (fun push depth -> Trace.Frame { push; depth }) bool small_nat;
        map2 (fun what info -> Trace.Sched { what; info })
          (oneofl [ "wake"; "sleep"; "schedule" ]) id;
        return Trace.Run_end;
      ]
  in
  map2
    (fun (time, thread) (rank, (main, event)) ->
      { Trace.time; thread; rank; main; event })
    (pair cost id)
    (pair id (pair bool event))

let arb_record =
  QCheck.make ~print:Trace.record_to_jsonl gen_record

(* encode -> parse -> re-encode must be byte-stable for every variant,
   including the enriched Validate.addr / Rollback.point fields. *)
let test_jsonl_byte_stable =
  QCheck.Test.make ~name:"trace jsonl encode/parse/re-encode byte-stable"
    ~count:500 arb_record (fun r ->
      let line = Trace.record_to_jsonl r in
      let r' = Trace.record_of_jsonl line in
      Trace.record_to_jsonl r' = line)
  |> QCheck_alcotest.to_alcotest

let tests =
  [
    test_expr_semantics;
    test_random_tls_equivalence;
    test_spill_tier_free;
    test_pressure_tls_equivalence;
    Alcotest.test_case "rollback_reason string round trip" `Quick
      test_reason_round_trip;
    test_jsonl_byte_stable;
  ]
