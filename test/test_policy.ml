(* Speculation policy engine: the Config.Policy API, every state-machine
   transition of the static and adaptive engines, the Expand legality
   gate at both the policy and the mechanism level, the zero-tracking
   guarantee of Expand segments, and the Expand == Level-2 equivalence
   property on store-free programs. *)

module Config = Mutls_runtime.Config
module Policy = Mutls_runtime.Policy
module Store_free = Mutls_speculator.Store_free

let rq ?(point = 0) ?(model = Config.Mixed) ?(expandable = false)
    ?(parent_main = true) ?(parent_expand = false) () =
  {
    Policy.rq_point = point;
    rq_model = model;
    rq_expandable = expandable;
    rq_parent_main = parent_main;
    rq_parent_expand = parent_expand;
  }

let decision = Alcotest.testable (fun fmt d ->
    Format.pp_print_string fmt
      (match d with
      | Policy.Deny -> "Deny"
      | Policy.Expand -> "Expand"
      | Policy.Speculate Config.Mixed -> "Speculate mixed"
      | Policy.Speculate Config.In_order -> "Speculate in-order"
      | Policy.Speculate Config.Out_of_order -> "Speculate out-of-order"))
    ( = )

let ev_what = Option.map (fun e -> e.Policy.ev_what)

(* --- Config.Policy API ------------------------------------------------- *)

let test_kind_round_trip () =
  List.iter
    (fun k ->
      Alcotest.(check string) "round trip"
        (Config.Policy.kind_to_string k)
        (Config.Policy.kind_to_string
           (Config.Policy.kind_of_string (Config.Policy.kind_to_string k))))
    [ Config.Policy.Static; Config.Policy.Adaptive; Config.Policy.Hostile ];
  Alcotest.check_raises "unknown kind"
    (Invalid_argument "Config.Policy.kind_of_string: \"greedy\"")
    (fun () -> ignore (Config.Policy.kind_of_string "greedy"))

let test_builders () =
  let s = Config.Policy.static ~backoff:true ~degrade_after:4 () in
  Alcotest.(check bool) "static kind" true (s.Config.Policy.kind = Config.Policy.Static);
  Alcotest.(check bool) "static backoff" true s.Config.Policy.backoff;
  Alcotest.(check int) "static degrade" 4 s.Config.Policy.degrade_after;
  let a = Config.Policy.adaptive ~deny_after:2 ~reprobe_after:8 ~expand:false () in
  Alcotest.(check bool) "adaptive kind" true (a.Config.Policy.kind = Config.Policy.Adaptive);
  Alcotest.(check int) "deny_after" 2 a.Config.Policy.deny_after;
  Alcotest.(check int) "reprobe_after" 8 a.Config.Policy.reprobe_after;
  Alcotest.(check bool) "expand off" false a.Config.Policy.expand;
  let h = Config.Policy.hostile () in
  Alcotest.(check bool) "hostile kind" true (h.Config.Policy.kind = Config.Policy.Hostile)

let test_validate () =
  Config.Policy.validate Config.Policy.default;
  List.iter
    (fun (label, p) ->
      match Config.Policy.validate p with
      | () -> Alcotest.failf "%s should not validate" label
      | exception Invalid_argument _ -> ())
    [
      ("degrade_after<0", { Config.Policy.default with Config.Policy.degrade_after = -1 });
      ("deny_after<0", { Config.Policy.default with Config.Policy.deny_after = -1 });
      ("reprobe_after=0", { Config.Policy.default with Config.Policy.reprobe_after = 0 });
      ("threshold>1", { Config.Policy.default with Config.Policy.payoff_threshold = 1.5 });
      ("threshold<0", { Config.Policy.default with Config.Policy.payoff_threshold = -0.1 });
      ("min_samples<0", { Config.Policy.default with Config.Policy.min_samples = -1 });
    ];
  (* Config.validate covers the nested policy too *)
  match
    Config.validate
      { Config.default with
        policy = { Config.Policy.default with Config.Policy.reprobe_after = 0 } }
  with
  | () -> Alcotest.fail "Config.validate should reject a bad policy"
  | exception Invalid_argument _ -> ()

(* --- static engine ----------------------------------------------------- *)

let test_static_backoff_transitions () =
  let p = Policy.static (Config.Policy.static ~backoff:true ()) in
  Alcotest.check decision "initially speculates" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()));
  (* first rollback: penalty 1, skip 1 *)
  Alcotest.(check (option string)) "backoff event" (Some "backoff")
    (ev_what (Policy.on_rollback p ~point:0));
  Alcotest.check decision "skips one" Policy.Deny (Policy.decide p (rq ()));
  Alcotest.check decision "then resumes" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()));
  (* second rollback doubles the penalty *)
  (match Policy.on_rollback p ~point:0 with
  | Some e -> Alcotest.(check int) "penalty doubles" 2 e.Policy.ev_info
  | None -> Alcotest.fail "expected backoff event");
  Alcotest.check decision "skip 1/2" Policy.Deny (Policy.decide p (rq ()));
  Alcotest.check decision "skip 2/2" Policy.Deny (Policy.decide p (rq ()));
  Alcotest.check decision "resumes" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()));
  (* a commit halves the penalty: next rollback doubles 1 -> 2 *)
  Policy.on_commit p ~point:0;
  (match Policy.on_rollback p ~point:0 with
  | Some e -> Alcotest.(check int) "halved then doubled" 2 e.Policy.ev_info
  | None -> Alcotest.fail "expected backoff event");
  (* another point is independent *)
  Alcotest.check decision "other point clean" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ~point:1 ()))

let test_static_no_backoff_is_permissive () =
  let p = Policy.static (Config.Policy.static ()) in
  ignore (Policy.on_rollback p ~point:0);
  ignore (Policy.on_rollback p ~point:0);
  Alcotest.check decision "no veto without backoff"
    (Policy.Speculate Config.In_order)
    (Policy.decide p (rq ~model:Config.In_order ()))

let test_static_degrade () =
  let p = Policy.static (Config.Policy.static ~degrade_after:2 ()) in
  Alcotest.(check (option string)) "first overflow: no event" None
    (ev_what (Policy.on_overflow p ~point:0 ~pressure:Policy.Exhaust));
  Alcotest.(check bool) "not yet degraded" false (Policy.degraded p);
  Alcotest.(check (option string)) "second overflow degrades" (Some "degrade")
    (ev_what (Policy.on_overflow p ~point:0 ~pressure:Policy.Exhaust));
  Alcotest.(check bool) "degraded" true (Policy.degraded p);
  Alcotest.check decision "degraded denies everything" Policy.Deny
    (Policy.decide p (rq ()));
  (* a commit before the threshold would have reset the streak *)
  let p = Policy.static (Config.Policy.static ~degrade_after:2 ()) in
  ignore (Policy.on_overflow p ~point:0 ~pressure:Policy.Exhaust);
  Policy.on_commit p ~point:0;
  Alcotest.(check (option string)) "commit resets the streak" None
    (ev_what (Policy.on_overflow p ~point:0 ~pressure:Policy.Exhaust))

(* --- adaptive engine --------------------------------------------------- *)

let adaptive ?(deny_after = 3) ?(reprobe_after = 4) ?(min_samples = 4) () =
  Policy.adaptive
    (Config.Policy.adaptive ~deny_after ~reprobe_after ~min_samples ())

let test_adaptive_deny_streak () =
  let p = adaptive () in
  Alcotest.(check (option string)) "rollback 1" None
    (ev_what (Policy.on_rollback p ~point:0));
  Alcotest.(check (option string)) "rollback 2" None
    (ev_what (Policy.on_rollback p ~point:0));
  Alcotest.(check (option string)) "rollback 3 denies" (Some "deny")
    (ev_what (Policy.on_rollback p ~point:0));
  Alcotest.check decision "denying" Policy.Deny (Policy.decide p (rq ()));
  (* a commit inside the streak would have reset it *)
  let p = adaptive () in
  ignore (Policy.on_rollback p ~point:0);
  ignore (Policy.on_rollback p ~point:0);
  Policy.on_commit p ~point:0;
  ignore (Policy.on_rollback p ~point:0);
  Alcotest.(check (option string)) "streak reset by commit" None
    (ev_what (Policy.on_rollback p ~point:0))

let deny_point p =
  ignore (Policy.on_rollback p ~point:0);
  ignore (Policy.on_rollback p ~point:0);
  match ev_what (Policy.on_rollback p ~point:0) with
  | Some "deny" -> ()
  | _ -> Alcotest.fail "expected the point to be denied"

let test_adaptive_reprobe () =
  let p = adaptive ~reprobe_after:4 () in
  deny_point p;
  Alcotest.check decision "denied 1" Policy.Deny (Policy.decide p (rq ()));
  Alcotest.check decision "denied 2" Policy.Deny (Policy.decide p (rq ()));
  Alcotest.check decision "denied 3" Policy.Deny (Policy.decide p (rq ()));
  Alcotest.check decision "4th request probes" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()));
  (* the probe's streak is re-armed: one more rollback re-denies *)
  Alcotest.(check (option string)) "probe rollback re-denies" (Some "deny")
    (ev_what (Policy.on_rollback p ~point:0));
  Alcotest.check decision "denied again" Policy.Deny (Policy.decide p (rq ()))

let test_adaptive_probe_commit_rehabilitates () =
  let p = adaptive ~reprobe_after:4 () in
  deny_point p;
  for _ = 1 to 3 do
    ignore (Policy.decide p (rq ()))
  done;
  Alcotest.check decision "probe" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()));
  Policy.on_commit p ~point:0;
  Alcotest.check decision "rehabilitated" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()));
  (* a new denial needs a fresh full streak *)
  ignore (Policy.on_rollback p ~point:0);
  Alcotest.check decision "one rollback is not a streak"
    (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()))

let test_adaptive_payoff_denial () =
  let p = adaptive ~min_samples:4 () in
  (* three expensive rollback-heavy retires: below min_samples, no deny *)
  for _ = 1 to 3 do
    Alcotest.(check (option string)) "before min_samples" None
      (ev_what (Policy.on_retire p ~point:0 ~committed:1.0 ~wasted:10.0))
  done;
  Alcotest.(check (option string)) "wasted-work denial" (Some "deny")
    (ev_what (Policy.on_retire p ~point:0 ~committed:1.0 ~wasted:10.0));
  Alcotest.check decision "denied on payoff" Policy.Deny (Policy.decide p (rq ()));
  (* mostly-committed retires never trip the threshold *)
  let p = adaptive ~min_samples:4 () in
  for _ = 1 to 8 do
    Alcotest.(check (option string)) "profitable point" None
      (ev_what (Policy.on_retire p ~point:0 ~committed:10.0 ~wasted:1.0))
  done

let test_adaptive_cascade_limit () =
  let p = adaptive () in
  let from_spec = rq ~parent_main:false () in
  Alcotest.check decision "clean point cascades" (Policy.Speculate Config.Mixed)
    (Policy.decide p from_spec);
  ignore (Policy.on_rollback p ~point:0);
  Alcotest.check decision "troubled point: no cascade" Policy.Deny
    (Policy.decide p from_spec);
  Alcotest.check decision "main may still fork" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()));
  Alcotest.check decision "other points unaffected"
    (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ~point:1 ~parent_main:false ()))

let test_adaptive_expand_gate () =
  let p = adaptive () in
  Alcotest.check decision "expandable from main" Policy.Expand
    (Policy.decide p (rq ~expandable:true ()));
  Alcotest.check decision "expandable from expand parent" Policy.Expand
    (Policy.decide p (rq ~expandable:true ~parent_main:false ~parent_expand:true ()));
  Alcotest.check decision "expandable from level-2 parent: level 2"
    (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ~expandable:true ~parent_main:false ()));
  Alcotest.check decision "not expandable: level 2" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ()));
  (* a dynamic store demotes the point for good *)
  Policy.on_expand_store p ~point:0;
  Alcotest.check decision "demoted" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ~expandable:true ()));
  Alcotest.check decision "other points still expand" Policy.Expand
    (Policy.decide p (rq ~point:1 ~expandable:true ()));
  (* expand can be turned off wholesale *)
  let p = Policy.adaptive (Config.Policy.adaptive ~expand:false ()) in
  Alcotest.check decision "expand disabled" (Policy.Speculate Config.Mixed)
    (Policy.decide p (rq ~expandable:true ()))

(* Unified trouble counting: an overflow rollback reaches the engine as
   on_overflow + on_rollback but counts once against the point, so the
   deny streak is not double-fed (the old Profile-advisor /
   Thread_manager double count). *)
let test_adaptive_unified_counting () =
  let p = adaptive ~deny_after:3 () in
  ignore (Policy.on_overflow p ~point:0 ~pressure:Policy.Exhaust);
  Alcotest.(check (option string)) "pair 1" None
    (ev_what (Policy.on_rollback p ~point:0));
  ignore (Policy.on_overflow p ~point:0 ~pressure:Policy.Exhaust);
  (* if overflows were double-counted the streak would be 4 here *)
  Alcotest.(check (option string)) "pair 2: single-counted" None
    (ev_what (Policy.on_rollback p ~point:0));
  Alcotest.(check (option string)) "third trouble denies" (Some "deny")
    (ev_what (Policy.on_rollback p ~point:0))

let test_of_config_dispatch () =
  let with_kind kind =
    Policy.of_config
      { Config.default with policy = { Config.Policy.default with Config.Policy.kind } }
  in
  Alcotest.(check string) "static" "static" (Policy.name (with_kind Config.Policy.Static));
  Alcotest.(check string) "adaptive" "adaptive" (Policy.name (with_kind Config.Policy.Adaptive));
  Alcotest.(check string) "hostile" "hostile" (Policy.name (with_kind Config.Policy.Hostile))

(* --- store-free analysis ----------------------------------------------- *)

let analyze src = Store_free.analyze (Mutls_minic.Codegen.compile src)

let test_store_free_analysis () =
  let sf =
    analyze
      {|
int A[8];
int pure_sum(int n) { int s = 0; for (int i = 0; i < n; i++) s = s + A[i]; return s; }
int calls_pure(int n) { return pure_sum(n) + abs(n); }
int writes(int n) { A[0] = n; return n; }
int calls_writer(int n) { return writes(n); }
int main() { for (int i = 0; i < 8; i++) A[i] = i; return calls_pure(4) + calls_writer(2); }
|}
  in
  Alcotest.(check bool) "pure loads are store-free" true
    (Store_free.store_free sf "pure_sum");
  Alcotest.(check bool) "safe extern + pure callee" true
    (Store_free.store_free sf "calls_pure");
  Alcotest.(check bool) "direct store" false (Store_free.store_free sf "writes");
  Alcotest.(check bool) "transitive store" false
    (Store_free.store_free sf "calls_writer");
  Alcotest.(check bool) "main stores" false (Store_free.store_free sf "main");
  Alcotest.(check bool) "unknown name" false (Store_free.store_free sf "nope")

let test_expandable_points () =
  (* mem2reg promotes the locals, so the forking function is store-free
     and its fork point is discovered as expandable *)
  let sf =
    analyze
      {|
int A[16];
int f() {
  int t = 0;
  for (int c = 0; c < 4; c++) {
    __builtin_MUTLS_fork(0, mixed);
    int s = 0;
    for (int i = 0; i < 4; i++) s = s + A[c * 4 + i];
    if (s > 1000000) t = t + 1;
    __builtin_MUTLS_join(0);
  }
  return t;
}
int main() { for (int i = 0; i < 16; i++) A[i] = i; return f(); }
|}
  in
  Alcotest.(check bool) "forker is store-free" true (Store_free.store_free sf "f");
  Alcotest.(check (list (pair string int))) "point discovered" [ ("f", 0) ]
    (Store_free.expandable_points sf)

(* --- mechanism level: get_cpu, Expand runs, zero tracking -------------- *)

let run_policy_workload ~name ~policy ncpus =
  let w = Mutls_workloads.Workloads.find name in
  let m = Mutls_minic.Codegen.compile (w.Mutls_workloads.Workloads.small ()) in
  let seq = Mutls_interp.Eval.run_sequential m in
  let t = Mutls_speculator.Pass.run m in
  let cfg = { Config.default with ncpus } in
  let r = Mutls_interp.Eval.run_tls ?policy cfg t in
  Alcotest.(check string) (name ^ " output") seq.Mutls_interp.Eval.soutput
    r.Mutls_interp.Eval.toutput;
  r

(* Acceptance: under the adaptive policy the store-free workload runs
   Expand segments, and every Expand segment tracked NOTHING in the
   GlobalBuffer (r_buffered counts gbuf reads + writes). *)
let test_expand_zero_tracking () =
  let policy = Policy.adaptive (Config.Policy.adaptive ()) in
  let r = run_policy_workload ~name:"policy-scan" ~policy:(Some policy) 4 in
  let retired = r.Mutls_interp.Eval.tretired in
  let expands =
    List.filter (fun t -> t.Mutls_runtime.Thread_manager.r_expand) retired
  in
  Alcotest.(check bool) "some threads ran expanded" true (expands <> []);
  List.iter
    (fun t ->
      Alcotest.(check int) "expand tracked nothing" 0
        t.Mutls_runtime.Thread_manager.r_buffered)
    expands;
  (* at least one expanded thread committed *)
  Alcotest.(check bool) "an expanded thread committed" true
    (List.exists (fun t -> t.Mutls_runtime.Thread_manager.r_committed) expands)

(* The legality gate in get_cpu: a policy demanding Expand everywhere
   (hostile does, every 3rd request) is coerced to Level 2 wherever the
   static analysis did not bless the point, and the run stays correct. *)
let test_expand_gate_mechanism () =
  let policy = Policy.hostile () in
  (* policy-clean stores per-chunk results, so nothing is expandable *)
  let r = run_policy_workload ~name:"policy-clean" ~policy:(Some policy) 4 in
  List.iter
    (fun t ->
      Alcotest.(check bool) "no thread ran expanded" false
        t.Mutls_runtime.Thread_manager.r_expand)
    r.Mutls_interp.Eval.tretired

let test_adaptive_runs_all_workloads () =
  List.iter
    (fun w ->
      ignore
        (run_policy_workload ~name:w.Mutls_workloads.Workloads.name
           ~policy:
             (Some (Policy.adaptive (Config.Policy.adaptive ())))
           4))
    Mutls_workloads.Workloads.mixed_payoff

(* --- Expand == Level 2 on store-free programs (property) --------------- *)

(* With the cost model flattened so that buffered and plain accesses
   cost the same and per-word validation/commit/finalize cost nothing,
   Level-1 execution is observationally equivalent to Level-2 on
   store-free programs: same output, same end-to-end virtual time.  The
   only difference left is the bookkeeping Expand skips — which is
   exactly what the zero-tracking test pins. *)
let flat_cost =
  { Config.default_cost with
    spec_hit = Config.default_cost.mem;
    spec_miss = Config.default_cost.mem;
    validate_word = 0.0;
    commit_word = 0.0;
    finalize_word = 0.0 }

let always_expand =
  Policy.make ~name:"always-expand" (fun _ -> Policy.Expand)

let never_expand =
  Policy.make ~name:"never-expand" (fun rq ->
      Policy.Speculate rq.Policy.rq_model)

let test_expand_equiv_level2 =
  QCheck.Test.make ~name:"Expand == Level-2 on store-free programs (flat cost)"
    ~count:15
    QCheck.(pair (int_range 2 8) (int_range 1 50))
    (fun (nchunks, mult) ->
      let src =
        Printf.sprintf
          {|
int A[64];
int f() {
  int hits = 0;
  for (int c = 0; c < %d; c++) {
    __builtin_MUTLS_fork(0, mixed);
    int s = 0;
    for (int i = 0; i < 8; i++) {
      int v = A[c * 8 + i];
      s = s + v * %d + (v ^ c);
    }
    if (s > 100000000) hits = hits + 1;
    __builtin_MUTLS_join(0);
  }
  return hits;
}
int main() {
  for (int i = 0; i < 64; i++) A[i] = (i * 131 + 7) %% 997;
  int h = f();
  print_int(h);
  print_newline();
  return h;
}
|}
          nchunks mult
      in
      let m = Mutls_minic.Codegen.compile src in
      let seq = Mutls_interp.Eval.run_sequential m in
      let t = Mutls_speculator.Pass.run m in
      let cfg = { Config.default with ncpus = 4; cost = flat_cost } in
      let a = Mutls_interp.Eval.run_tls ~policy:always_expand cfg t in
      let b = Mutls_interp.Eval.run_tls ~policy:never_expand cfg t in
      a.Mutls_interp.Eval.toutput = seq.Mutls_interp.Eval.soutput
      && b.Mutls_interp.Eval.toutput = seq.Mutls_interp.Eval.soutput
      && a.Mutls_interp.Eval.tfinish = b.Mutls_interp.Eval.tfinish
      && List.exists
           (fun t -> t.Mutls_runtime.Thread_manager.r_expand)
           a.Mutls_interp.Eval.tretired)
  |> QCheck_alcotest.to_alcotest

(* --- the acceptance bar, in miniature ---------------------------------- *)

let test_adaptive_beats_statics () =
  let adaptive_total =
    Mutls.Experiments.suite_time ~policy:(Config.Policy.adaptive ()) ~ncpus:8 ()
  in
  List.iter
    (fun (label, p) ->
      if label <> "adaptive" then
        let static_total = Mutls.Experiments.suite_time ~policy:p ~ncpus:8 () in
        if adaptive_total > static_total then
          Alcotest.failf "adaptive (%.0f) regresses vs %s (%.0f) at 8 CPUs"
            adaptive_total label static_total)
    Mutls.Experiments.policy_family

(* --- chaos under adaptive and hostile policies ------------------------- *)

(* The campaign's oracle must stay silent when every generated case runs
   under the adaptive engine, and even under the adversarial policy —
   decisions may be arbitrarily bad, execution must stay correct. *)
let chaos_campaign kind () =
  let c =
    Mutls.Chaos.run_campaign ~policy:kind ~seed:20260808 ~runs:25 ()
  in
  match c.Mutls.Chaos.failed with
  | None -> ()
  | Some (case, r) ->
    Alcotest.failf "case %d failed under %s policy: %s"
      case.Mutls.Chaos.label
      (Config.Policy.kind_to_string kind)
      (match r.Mutls.Chaos.failure with
      | Some f -> Mutls.Chaos.failure_to_string f
      | None -> "?")

let test_chaos_policy_json_round_trip () =
  let case = Mutls.Chaos.gen_case ~seed:7 3 in
  let case = { case with Mutls.Chaos.policy = Config.Policy.Adaptive } in
  let j = Mutls.Chaos.case_to_json case in
  let case' = Mutls.Chaos.case_of_json j in
  Alcotest.(check bool) "policy survives JSON" true
    (case'.Mutls.Chaos.policy = Config.Policy.Adaptive);
  (* pre-policy repro files (no "policy" member) default to Static *)
  let strip = function
    | Mutls.Json.Obj fields ->
      Mutls.Json.Obj (List.filter (fun (k, _) -> k <> "policy") fields)
    | j -> j
  in
  Alcotest.(check bool) "absent field defaults to static" true
    ((Mutls.Chaos.case_of_json (strip j)).Mutls.Chaos.policy
    = Config.Policy.Static)

let tests =
  [
    Alcotest.test_case "Config.Policy kind round-trip" `Quick test_kind_round_trip;
    Alcotest.test_case "Config.Policy builders" `Quick test_builders;
    Alcotest.test_case "Config.Policy validation" `Quick test_validate;
    Alcotest.test_case "static backoff transitions" `Quick test_static_backoff_transitions;
    Alcotest.test_case "static without backoff never vetoes" `Quick
      test_static_no_backoff_is_permissive;
    Alcotest.test_case "static overflow degrade" `Quick test_static_degrade;
    Alcotest.test_case "adaptive deny streak" `Quick test_adaptive_deny_streak;
    Alcotest.test_case "adaptive deny -> re-probe" `Quick test_adaptive_reprobe;
    Alcotest.test_case "adaptive probe commit rehabilitates" `Quick
      test_adaptive_probe_commit_rehabilitates;
    Alcotest.test_case "adaptive payoff denial" `Quick test_adaptive_payoff_denial;
    Alcotest.test_case "adaptive cascade limit" `Quick test_adaptive_cascade_limit;
    Alcotest.test_case "adaptive Expand gate" `Quick test_adaptive_expand_gate;
    Alcotest.test_case "unified trouble counting" `Quick test_adaptive_unified_counting;
    Alcotest.test_case "of_config dispatch" `Quick test_of_config_dispatch;
    Alcotest.test_case "store-free analysis" `Quick test_store_free_analysis;
    Alcotest.test_case "expandable fork points" `Quick test_expandable_points;
    Alcotest.test_case "Expand segments track nothing" `Quick test_expand_zero_tracking;
    Alcotest.test_case "Expand legality gate (mechanism)" `Quick
      test_expand_gate_mechanism;
    Alcotest.test_case "adaptive runs the mixed-payoff suite" `Quick
      test_adaptive_runs_all_workloads;
    test_expand_equiv_level2;
    Alcotest.test_case "adaptive at or below statics (8 CPUs)" `Slow
      test_adaptive_beats_statics;
    Alcotest.test_case "chaos campaign, adaptive policy" `Slow
      (chaos_campaign Config.Policy.Adaptive);
    Alcotest.test_case "chaos campaign, hostile policy" `Slow
      (chaos_campaign Config.Policy.Hostile);
    Alcotest.test_case "chaos policy JSON round-trip" `Quick
      test_chaos_policy_json_round_trip;
  ]
