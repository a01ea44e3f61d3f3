(* Chaos harness: randomized robustness campaigns for the TLS runtime.

   Each case is a random annotated MiniC program crossed with a random
   fault schedule (Mutls_runtime.Fault), random CPU count and
   deliberately shrunken buffer capacities.  The case runs sequentially
   and under TLS with the invariant oracle (Mutls_obs.Oracle) attached
   as the trace sink, and fails if the outputs diverge, the oracle
   finds a protocol violation, or the runtime crashes.  Everything —
   program, schedule, engine interleaving — derives from one seed, so
   `mutlsc chaos --seed S` replays bit-identically, and a failing case
   shrinks greedily (zero fault sites, grow buffers back, halve the
   program) to a minimal repro that serialises to JSON for CI artifact
   upload and `mutlsc chaos --replay`. *)

module Rng = Mutls_sim.Rng
module Config = Mutls_runtime.Config
module Fault = Mutls_runtime.Fault
module Thread_manager = Mutls_runtime.Thread_manager
module Oracle = Mutls_obs.Oracle
module Json = Mutls_obs.Json
module Eval = Mutls_interp.Eval

(* --- random annotated programs --------------------------------------- *)

(* Small guarded-arithmetic expression language over v0..v3, as in the
   property tests but generated from our own SplitMix64 stream so the
   harness is seed-replayable without QCheck. *)
type e =
  | Lit of int
  | Var of int
  | Add of e * e
  | Sub of e * e
  | Mul of e * e
  | Div of e * e
  | Xor of e * e
  | Shl of e * e
  | Cmp of e * e
  | Tern of e * e * e

let rec pp_expr = function
  | Lit n -> string_of_int n
  | Var k -> Printf.sprintf "v%d" k
  | Add (a, b) -> Printf.sprintf "(%s + %s)" (pp_expr a) (pp_expr b)
  | Sub (a, b) -> Printf.sprintf "(%s - %s)" (pp_expr a) (pp_expr b)
  | Mul (a, b) -> Printf.sprintf "(%s * %s)" (pp_expr a) (pp_expr b)
  | Div (a, b) ->
    (* denominator guarded against zero, exactly like the reference *)
    Printf.sprintf "(%s / (%s == 0 ? 7 : %s))" (pp_expr a) (pp_expr b)
      (pp_expr b)
  | Xor (a, b) -> Printf.sprintf "(%s ^ %s)" (pp_expr a) (pp_expr b)
  | Shl (a, b) -> Printf.sprintf "(%s << (%s & 7))" (pp_expr a) (pp_expr b)
  | Cmp (a, b) -> Printf.sprintf "(%s < %s)" (pp_expr a) (pp_expr b)
  | Tern (c, a, b) ->
    Printf.sprintf "(%s ? %s : %s)" (pp_expr c) (pp_expr a) (pp_expr b)

let rec gen_expr rng n =
  if n <= 0 then
    if Rng.next_int rng 2 = 0 then Lit (Rng.next_int rng 201 - 100)
    else Var (Rng.next_int rng 4)
  else
    let sub () = gen_expr rng (n / 2) in
    match Rng.next_int rng 9 with
    | 0 -> Add (sub (), sub ())
    | 1 -> Sub (sub (), sub ())
    | 2 -> Mul (sub (), sub ())
    | 3 -> Div (sub (), sub ())
    | 4 -> Xor (sub (), sub ())
    | 5 -> Shl (sub (), sub ())
    | 6 -> Cmp (sub (), sub ())
    | 7 -> Tern (sub (), sub (), sub ())
    | _ -> Mul (sub (), Lit (1 + Rng.next_int rng 9))

(* The program space: three templates covering the runtime's distinct
   speculation shapes.  [expr_seed]/[expr_size] regenerate the same
   random expression; [chunks]/[inner] size the work. *)
type shape = {
  template : int; (* 0 chain, 1 shared-accumulator conflicts, 2 tree *)
  expr_seed : int;
  expr_size : int;
  chunks : int;
  inner : int;
}

let n_templates = 4

let template_name = function
  | 0 -> "chain"
  | 1 -> "conflict"
  | 2 -> "tree"
  | _ -> "storm"

let source_of_shape s =
  let expr = pp_expr (gen_expr (Rng.create s.expr_seed) s.expr_size) in
  match s.template with
  | 0 ->
    (* independent chunks: the classic chained-speculation pattern,
       mostly commits unless faults are injected *)
    Printf.sprintf
      {|
int out[%d];
int main() {
  for (int c = 0; c < %d; c++) {
    __builtin_MUTLS_fork(0, mixed);
    int v0 = c; int v1 = c + 1; int v2 = c * 2; int v3 = 7 - c;
    int r = %s;
    for (int k = 0; k < %d; k++) r = r + k * c;
    out[c] = r;
    __builtin_MUTLS_join(0);
  }
  int t = 0;
  for (int c = 0; c < %d; c++) t = t + out[c] %% 100000;
  print_int(t);
  print_newline();
  return 0;
}
|}
      s.chunks s.chunks expr s.inner s.chunks
  | 1 ->
    (* read-modify-write of a shared accumulator across chunks: genuine
       cross-thread conflicts and rollbacks without any injection *)
    Printf.sprintf
      {|
int acc[4];
int out[%d];
int main() {
  for (int c = 0; c < %d; c++) {
    __builtin_MUTLS_fork(0, mixed);
    int v0 = c; int v1 = acc[c %% 4]; int v2 = c * 3; int v3 = 5 - c;
    int r = %s;
    for (int k = 0; k < %d; k++) r = r + k;
    acc[c %% 4] = acc[c %% 4] + (r %% 1000);
    out[c] = acc[c %% 4];
    __builtin_MUTLS_join(0);
  }
  int t = 0;
  for (int c = 0; c < %d; c++) t = t + out[c] %% 100000;
  print_int(t + acc[0] + acc[1] + acc[2] + acc[3]);
  print_newline();
  return 0;
}
|}
      s.chunks s.chunks expr s.inner s.chunks
  | 3 ->
    (* overflow-pressure storm: every chunk writes a skewed hot/cold
       mix over a working set far larger than the shrunken buffers —
       parks, spill-tier traffic and genuine Overflow rollbacks arise
       from capacity alone, no injection needed *)
    let size = 512 + (64 * s.chunks) in
    Printf.sprintf
      {|
int A[%d];
int N = %d;
int out[%d];
int main() {
  for (int c = 0; c < %d; c++) {
    __builtin_MUTLS_fork(0, mixed);
    int v0 = c; int v1 = c * 5; int v2 = 11 - c; int v3 = c + 2;
    int r = %s;
    for (int k = 0; k < %d; k++) {
      int idx = ((k %% 3 == 0) ? (k %% 8) : ((c * 97 + k * 31) %% N));
      A[idx] = A[idx] + (r %% 50) + k;
    }
    out[c] = A[c %% N] + A[c %% 8];
    __builtin_MUTLS_join(0);
  }
  int t = 0;
  for (int c = 0; c < %d; c++) t = t + out[c] %% 100000;
  for (int i = 0; i < 8; i++) t = t + A[i] %% 1000;
  print_int(t);
  print_newline();
  return 0;
}
|}
      size size s.chunks s.chunks expr
      (32 + (8 * s.inner))
      s.chunks
  | _ ->
    (* recursive divide and conquer: tree-form forking, stale-local
       validation at every join, NOSYNC cascades under injection *)
    let size = 8 + (2 * s.chunks) in
    Printf.sprintf
      {|
int A[%d];
int N = %d;
int sum(int lo, int n) {
  if (n <= 4) {
    int s = 0;
    for (int i = 0; i < n; i++) s = s + A[lo + i] * ((i & 3) + 1);
    return s;
  }
  int h = n / 2;
  int a = 0;
  __builtin_MUTLS_fork(0, mixed);
  a = sum(lo, h);
  __builtin_MUTLS_join(0);
  int b = sum(lo + h, n - h);
  return a + b;
}
int main() {
  for (int i = 0; i < N; i++) A[i] = (i * 7 + %d) %% 100;
  int v0 = 1; int v1 = 2; int v2 = 3; int v3 = 4;
  print_int(sum(0, N) + (%s) %% 1000);
  print_newline();
  return 0;
}
|}
      size size (s.inner + 1) expr

(* --- cases ------------------------------------------------------------ *)

type case = {
  label : int; (* index within its campaign, for reporting *)
  run_seed : int; (* Config.seed: engine + fault streams *)
  ncpus : int;
  buffer_slots : int;
  temp_slots : int;
  shards : int; (* GlobalBuffer shard count *)
  spill_slots : int; (* spill-tier capacity; 0 = seed-era behaviour *)
  line_words : int; (* validation/commit granularity (1 or 8) *)
  plan : Fault.plan;
  backoff : bool;
  degrade_after : int;
  policy : Config.Policy.kind;
  shape : shape;
}

let rates = [| 0.02; 0.1; 0.3; 1.0 |]

let gen_rate rng =
  if Rng.next_float rng < 0.5 then 0.0
  else rates.(Rng.next_int rng (Array.length rates))

(* Case [i] of campaign [seed]; the golden-ratio multiplier decorrelates
   neighbouring indices, as in Fault's per-site streams. *)
let gen_case ~seed i =
  let rng = Rng.create (seed + ((i + 1) * 0x9E3779B9)) in
  let pick a = a.(Rng.next_int rng (Array.length a)) in
  let base =
    {
      label = i;
      run_seed = Rng.next_int rng 0x3FFFFFFF;
      ncpus = 1 + Rng.next_int rng 8;
      buffer_slots = pick [| 256; 1024; 65536 |];
      temp_slots = pick [| 0; 2; 8; 64 |];
      (* Seed-era geometry; the memory-band draws below override. *)
      shards = 1;
      spill_slots = 0;
      line_words = 1;
      plan =
        {
          Fault.validation = gen_rate rng;
          overflow = gen_rate rng;
          spurious = gen_rate rng;
          nosync = gen_rate rng;
          deny = gen_rate rng;
          spill_exhaust = 0.0;
        };
      backoff = Rng.next_float rng < 0.5;
      degrade_after =
        (if Rng.next_float rng < 0.5 then 0 else 2 + Rng.next_int rng 6);
      (* Generated Static (no RNG draw, so pre-policy campaigns replay
         bit-identically); campaigns override post-generation. *)
      policy = Config.Policy.Static;
      shape =
        {
          (* Bound 3, not [n_templates]: the draw values for the three
             seed-era templates must not shift.  The storm template is
             chosen by a dedicated draw below. *)
          template = Rng.next_int rng 3;
          expr_seed = Rng.next_int rng 0x3FFFFFFF;
          expr_size = Rng.next_int rng 6;
          chunks = 4 + Rng.next_int rng 13;
          inner = Rng.next_int rng 24;
        };
    }
  in
  (* Memory-band draws come after every seed-era draw, so cases from
     campaigns recorded before the spill tier existed replay their
     programs and fault schedules bit-identically. *)
  let shards = pick [| 1; 1; 2; 4; 8 |] in
  let spill_slots = pick [| 0; 0; 16; 256 |] in
  let line_words = pick [| 1; 1; 1; 8 |] in
  let spill_exhaust = gen_rate rng in
  let storm = Rng.next_float rng < 0.25 in
  {
    base with
    shards;
    spill_slots;
    line_words;
    plan = { base.plan with Fault.spill_exhaust };
    shape =
      (if storm then { base.shape with template = 3 } else base.shape);
  }

(* --- running one case ------------------------------------------------- *)

type failure =
  | Output_mismatch
  | Oracle_violation of string (* rendered first violation *)
  | Crash of string

let failure_to_string = function
  | Output_mismatch -> "output mismatch"
  | Oracle_violation v -> "oracle violation: " ^ v
  | Crash e -> "crash: " ^ e

type run_result = {
  source : string;
  expected : string; (* sequential output *)
  actual : string; (* TLS output ("" after a crash) *)
  failure : failure option;
  injected : (string * int) list; (* per-site injected-fault counts *)
  degraded : bool; (* fell back to sequential execution *)
  threads : int; (* speculative threads retired *)
  committed : int;
}

(* Compile or sequential-run errors are harness bugs (the generator
   emitted a bad program), not runtime robustness findings: they
   propagate instead of being folded into [failure]. *)
let run_case (case : case) =
  let source = source_of_shape case.shape in
  let m = Mutls_minic.Codegen.compile source in
  let seq = Eval.run_sequential m in
  let transformed = Mutls_speculator.Pass.run m in
  let oracle = Oracle.create ~halt:false () in
  let cfg =
    {
      Config.default with
      ncpus = case.ncpus;
      buffers =
        {
          Config.Buffers.slots = case.buffer_slots;
          temp_slots = case.temp_slots;
          shards = case.shards;
          spill_slots = case.spill_slots;
          line_words = case.line_words;
        };
      seed = case.run_seed;
      fault = (if Fault.is_none case.plan then None else Some case.plan);
      policy =
        {
          Config.Policy.default with
          Config.Policy.kind = case.policy;
          backoff = case.backoff;
          degrade_after = case.degrade_after;
        };
      trace_sink = Oracle.sink oracle;
    }
  in
  match Eval.run_tls cfg transformed with
  | exception e ->
    {
      source;
      expected = seq.Eval.soutput;
      actual = "";
      failure = Some (Crash (Printexc.to_string e));
      injected = [];
      degraded = false;
      threads = 0;
      committed = 0;
    }
  | r ->
    Oracle.finish oracle;
    let violations = Oracle.violations oracle in
    let failure =
      if r.Eval.toutput <> seq.Eval.soutput then Some Output_mismatch
      else
        match violations with
        | [] -> None
        | v :: _ -> Some (Oracle_violation (Oracle.violation_to_string v))
    in
    {
      source;
      expected = seq.Eval.soutput;
      actual = r.Eval.toutput;
      failure;
      injected =
        (match Thread_manager.injector r.Eval.tmgr with
        | Some f -> Fault.injected_assoc f
        | None -> []);
      degraded = Thread_manager.degraded r.Eval.tmgr;
      threads = List.length r.Eval.tretired;
      committed =
        List.length
          (List.filter
             (fun t -> t.Thread_manager.r_committed)
             r.Eval.tretired);
    }

(* --- shrinking -------------------------------------------------------- *)

(* Greedy minimisation: apply each simplification and keep it while the
   case still fails.  Deterministic replay makes "still fails" a sound
   test.  Bounded by [budget] re-runs. *)
let shrink ?(budget = 64) case =
  let fails c = (run_case c).failure <> None in
  let candidates =
    [
      (fun c ->
        if c.plan.Fault.validation > 0.0 then
          Some { c with plan = { c.plan with Fault.validation = 0.0 } }
        else None);
      (fun c ->
        if c.plan.Fault.overflow > 0.0 then
          Some { c with plan = { c.plan with Fault.overflow = 0.0 } }
        else None);
      (fun c ->
        if c.plan.Fault.spurious > 0.0 then
          Some { c with plan = { c.plan with Fault.spurious = 0.0 } }
        else None);
      (fun c ->
        if c.plan.Fault.nosync > 0.0 then
          Some { c with plan = { c.plan with Fault.nosync = 0.0 } }
        else None);
      (fun c ->
        if c.plan.Fault.deny > 0.0 then
          Some { c with plan = { c.plan with Fault.deny = 0.0 } }
        else None);
      (fun c ->
        if c.plan.Fault.spill_exhaust > 0.0 then
          Some { c with plan = { c.plan with Fault.spill_exhaust = 0.0 } }
        else None);
      (fun c -> if c.shards > 1 then Some { c with shards = 1 } else None);
      (fun c ->
        if c.spill_slots > 0 then Some { c with spill_slots = 0 } else None);
      (fun c ->
        if c.line_words > 1 then Some { c with line_words = 1 } else None);
      (fun c -> if c.backoff then Some { c with backoff = false } else None);
      (fun c ->
        if c.degrade_after > 0 then Some { c with degrade_after = 0 }
        else None);
      (fun c ->
        if c.policy <> Config.Policy.Static then
          Some { c with policy = Config.Policy.Static }
        else None);
      (fun c ->
        if c.temp_slots < 64 then Some { c with temp_slots = 64 } else None);
      (fun c ->
        if c.buffer_slots < 65536 then Some { c with buffer_slots = 65536 }
        else None);
      (fun c ->
        if c.ncpus > 2 then Some { c with ncpus = max 2 (c.ncpus / 2) }
        else None);
      (fun c ->
        if c.shape.chunks > 2 then
          Some { c with shape = { c.shape with chunks = max 2 (c.shape.chunks / 2) } }
        else None);
      (fun c ->
        if c.shape.inner > 0 then
          Some { c with shape = { c.shape with inner = c.shape.inner / 2 } }
        else None);
      (fun c ->
        if c.shape.expr_size > 0 then
          Some { c with shape = { c.shape with expr_size = c.shape.expr_size / 2 } }
        else None);
    ]
  in
  let budget = ref budget in
  let cur = ref case in
  let improved = ref true in
  while !improved && !budget > 0 do
    improved := false;
    List.iter
      (fun cand ->
        if !budget > 0 then
          match cand !cur with
          | Some c ->
            decr budget;
            if fails c then begin
              cur := c;
              improved := true
            end
          | None -> ())
      candidates
  done;
  (!cur, run_case !cur)

(* --- JSON repro ------------------------------------------------------- *)

let plan_to_json (p : Fault.plan) =
  Json.Obj
    [
      ("validation", Json.Num p.Fault.validation);
      ("overflow", Json.Num p.Fault.overflow);
      ("spurious", Json.Num p.Fault.spurious);
      ("nosync", Json.Num p.Fault.nosync);
      ("deny", Json.Num p.Fault.deny);
      ("spill_exhaust", Json.Num p.Fault.spill_exhaust);
    ]

let case_to_json c =
  Json.Obj
    [
      ("label", Json.Num (float_of_int c.label));
      ("run_seed", Json.Num (float_of_int c.run_seed));
      ("ncpus", Json.Num (float_of_int c.ncpus));
      ("buffer_slots", Json.Num (float_of_int c.buffer_slots));
      ("temp_slots", Json.Num (float_of_int c.temp_slots));
      ("shards", Json.Num (float_of_int c.shards));
      ("spill_slots", Json.Num (float_of_int c.spill_slots));
      ("line_words", Json.Num (float_of_int c.line_words));
      ("plan", plan_to_json c.plan);
      ("backoff", Json.Bool c.backoff);
      ("degrade_after", Json.Num (float_of_int c.degrade_after));
      ("policy", Json.Str (Config.Policy.kind_to_string c.policy));
      ( "shape",
        Json.Obj
          [
            ("template", Json.Num (float_of_int c.shape.template));
            ("expr_seed", Json.Num (float_of_int c.shape.expr_seed));
            ("expr_size", Json.Num (float_of_int c.shape.expr_size));
            ("chunks", Json.Num (float_of_int c.shape.chunks));
            ("inner", Json.Num (float_of_int c.shape.inner));
          ] );
    ]

let bad field = invalid_arg (Printf.sprintf "Chaos.case_of_json: missing %s" field)

let get_int j field =
  match Option.bind (Json.member field j) Json.to_int with
  | Some v -> v
  | None -> bad field

let get_float j field =
  match Option.bind (Json.member field j) Json.to_float with
  | Some v -> v
  | None -> bad field

let get_bool j field =
  match Option.bind (Json.member field j) Json.to_bool with
  | Some v -> v
  | None -> bad field

(* absent in repro files recorded before the field existed *)
let get_int_default j field d =
  match Option.bind (Json.member field j) Json.to_int with
  | Some v -> v
  | None -> d

let get_float_default j field d =
  match Option.bind (Json.member field j) Json.to_float with
  | Some v -> v
  | None -> d

let case_of_json j =
  (* accept either a bare case object or a full repro file *)
  let j = match Json.member "case" j with Some c -> c | None -> j in
  let plan = match Json.member "plan" j with Some p -> p | None -> bad "plan" in
  let shape =
    match Json.member "shape" j with Some s -> s | None -> bad "shape"
  in
  {
    label = get_int j "label";
    run_seed = get_int j "run_seed";
    ncpus = get_int j "ncpus";
    buffer_slots = get_int j "buffer_slots";
    temp_slots = get_int j "temp_slots";
    (* pre-spill repro files carry no geometry: seed-era defaults *)
    shards = get_int_default j "shards" 1;
    spill_slots = get_int_default j "spill_slots" 0;
    line_words = get_int_default j "line_words" 1;
    plan =
      {
        Fault.validation = get_float plan "validation";
        overflow = get_float plan "overflow";
        spurious = get_float plan "spurious";
        nosync = get_float plan "nosync";
        deny = get_float plan "deny";
        spill_exhaust = get_float_default plan "spill_exhaust" 0.0;
      };
    backoff = get_bool j "backoff";
    degrade_after = get_int j "degrade_after";
    (* absent in pre-policy repro files *)
    policy =
      (match Option.bind (Json.member "policy" j) Json.to_str with
      | Some s -> Config.Policy.kind_of_string s
      | None -> Config.Policy.Static);
    shape =
      {
        template = get_int shape "template";
        expr_seed = get_int shape "expr_seed";
        expr_size = get_int shape "expr_size";
        chunks = get_int shape "chunks";
        inner = get_int shape "inner";
      };
  }

let repro_to_json ~campaign_seed case (r : run_result) =
  Json.Obj
    [
      ("campaign_seed", Json.Num (float_of_int campaign_seed));
      ("case", case_to_json case);
      ( "failure",
        match r.failure with
        | Some f -> Json.Str (failure_to_string f)
        | None -> Json.Null );
      ("expected", Json.Str r.expected);
      ("actual", Json.Str r.actual);
      ( "injected",
        Json.Obj
          (List.map
             (fun (s, n) -> (s, Json.Num (float_of_int n)))
             r.injected) );
      ("degraded", Json.Bool r.degraded);
      ("source", Json.Str r.source);
    ]

(* --- campaigns -------------------------------------------------------- *)

type campaign = {
  seed : int;
  requested : int;
  passed : int; (* cases run clean before the first failure (or all) *)
  injected_total : int; (* faults fired across the clean cases *)
  degraded_runs : int; (* clean cases that fell back to sequential *)
  failed : (case * run_result) option; (* first failure, as generated *)
  minimized : (case * run_result) option;
}

let run_campaign ?(progress = fun _ _ -> ()) ?policy ~seed ~runs () =
  let injected_total = ref 0 in
  let degraded_runs = ref 0 in
  let rec go i passed =
    if i >= runs then
      {
        seed;
        requested = runs;
        passed;
        injected_total = !injected_total;
        degraded_runs = !degraded_runs;
        failed = None;
        minimized = None;
      }
    else begin
      progress i runs;
      let case = gen_case ~seed i in
      let case =
        match policy with None -> case | Some k -> { case with policy = k }
      in
      let r = run_case case in
      injected_total :=
        !injected_total + List.fold_left (fun a (_, n) -> a + n) 0 r.injected;
      if r.degraded then incr degraded_runs;
      match r.failure with
      | None -> go (i + 1) (passed + 1)
      | Some _ ->
        let minimized = shrink case in
        {
          seed;
          requested = runs;
          passed;
          injected_total = !injected_total;
          degraded_runs = !degraded_runs;
          failed = Some (case, r);
          minimized = Some minimized;
        }
    end
  in
  go 0 0
