(* Chaos harness, fault injection, invariant oracle, and graceful
   degradation: the robustness layer built for `mutlsc chaos`.

   The important guarantee everywhere: whatever the fault schedule, the
   runtime survives and the TLS output equals the sequential output —
   injected faults only force the existing recovery paths (rollback,
   re-execution, sequential fallback), never wrong results. *)

module Config = Mutls_runtime.Config
module Fault = Mutls_runtime.Fault
module LB = Mutls_runtime.Local_buffer
module TM = Mutls_runtime.Thread_manager
module Stats = Mutls_runtime.Stats
module Trace = Mutls_obs.Trace
module Oracle = Mutls_obs.Oracle
module Eval = Mutls_interp.Eval
module Chaos = Mutls.Chaos

(* A chained-speculation loop with genuine cross-iteration conflicts
   (shared accumulator), exercising validation and rollback even with
   no faults injected. *)
let conflict_source =
  {|
int acc[4];
int out[10];
int main() {
  for (int c = 0; c < 10; c++) {
    __builtin_MUTLS_fork(0, mixed);
    acc[c % 4] = acc[c % 4] + c + 1;
    out[c] = acc[c % 4];
    __builtin_MUTLS_join(0);
  }
  int t = 0;
  for (int c = 0; c < 10; c++) t = t + out[c];
  print_int(t + acc[0] + acc[1] + acc[2] + acc[3]);
  print_newline();
  return 0;
}
|}

let compile source = Mutls_speculator.Pass.run (Mutls_minic.Codegen.compile source)

let seq_output source =
  (Eval.run_sequential (Mutls_minic.Codegen.compile source)).Eval.soutput

(* A sink that records every event for post-hoc assertions. *)
let recording_sink () =
  let events = ref [] in
  ( events,
    {
      Trace.enabled = true;
      emit = (fun r -> events := r :: !events);
      close = (fun () -> ());
    } )

let run_with cfg source =
  let r = Eval.run_tls cfg (compile source) in
  (r, r.Eval.toutput)

(* --- fault injector ---------------------------------------------------- *)

let test_fault_determinism () =
  let plan = { Fault.validation = 0.3; overflow = 0.1; spurious = 0.5; nosync = 0.2; deny = 1.0; spill_exhaust = 0.0 } in
  let seq t = List.init 50 (fun _ -> Fault.fire t Fault.Validation_failure) in
  let a = Fault.create ~seed:7 plan in
  let b = Fault.create ~seed:7 plan in
  Alcotest.(check (list bool)) "same seed, same stream" (seq a) (seq b);
  let a' = Fault.create ~seed:7 plan in
  let c = Fault.create ~seed:8 plan in
  Alcotest.(check bool) "different seed differs" true (seq a' <> seq c)

let test_fault_site_isolation () =
  (* Zeroing one site's rate must not perturb another site's stream:
     rate-0 sites never draw from their RNG. *)
  let p1 = { Fault.validation = 0.5; overflow = 0.5; spurious = 0.0; nosync = 0.0; deny = 0.0; spill_exhaust = 0.0 } in
  let p2 = { p1 with Fault.overflow = 0.0 } in
  let drive t =
    List.init 40 (fun _ ->
        ignore (Fault.fire t Fault.Buffer_overflow);
        Fault.fire t Fault.Validation_failure)
  in
  let a = Fault.create ~seed:3 p1 and b = Fault.create ~seed:3 p2 in
  Alcotest.(check (list bool)) "validation stream unchanged" (drive a) (drive b);
  Alcotest.(check int) "zero-rate site fired nothing" 0
    (Fault.injected b Fault.Buffer_overflow)

let test_fault_rates () =
  let plan = { Fault.validation = 1.0; overflow = 0.0; spurious = 0.0; nosync = 0.0; deny = 0.0; spill_exhaust = 0.0 } in
  let t = Fault.create ~seed:1 plan in
  for _ = 1 to 20 do
    Alcotest.(check bool) "rate 1 always fires" true (Fault.fire t Fault.Validation_failure);
    Alcotest.(check bool) "rate 0 never fires" false (Fault.fire t Fault.Buffer_overflow)
  done;
  Alcotest.(check int) "injected count" 20 (Fault.injected t Fault.Validation_failure);
  Alcotest.(check int) "occasions count" 20 (Fault.occasions t Fault.Buffer_overflow);
  Alcotest.check_raises "bad rate rejected"
    (Invalid_argument
       "Fault.plan: buffer-overflow rate must be in [0, 1] (got 1.5)")
    (fun () -> Fault.validate_plan { plan with Fault.overflow = 1.5 })

(* Output stays sequential under every single-site schedule, including
   certainty (rate 1.0) — termination relies on failed speculation
   falling back to the parent's own re-execution. *)
let test_faults_preserve_output () =
  let expected = seq_output conflict_source in
  let sites =
    [
      (fun r -> { Fault.none with Fault.validation = r });
      (fun r -> { Fault.none with Fault.overflow = r });
      (fun r -> { Fault.none with Fault.spurious = r });
      (fun r -> { Fault.none with Fault.nosync = r });
      (fun r -> { Fault.none with Fault.deny = r });
    ]
  in
  List.iter
    (fun mk ->
      List.iter
        (fun rate ->
          let cfg =
            { Config.default with ncpus = 4; fault = Some (mk rate); seed = 11 }
          in
          let _, out = run_with cfg conflict_source in
          Alcotest.(check string)
            (Printf.sprintf "rate %g" rate)
            expected out)
        [ 0.3; 1.0 ])
    sites

(* Property: ANY fault schedule yields the sequential result. *)
let test_fault_schedule_property =
  QCheck.Test.make ~name:"any fault schedule yields sequential output" ~count:30
    QCheck.(
      quad (int_range 0 1000)
        (quad (int_range 0 10) (int_range 0 10) (int_range 0 10) (int_range 0 10))
        (int_range 0 10) (int_range 1 8))
    (fun (seed, (v, o, s, n), d, ncpus) ->
      let plan =
        {
          Fault.validation = float_of_int v /. 10.0;
          overflow = float_of_int o /. 10.0;
          spurious = float_of_int s /. 10.0;
          nosync = float_of_int n /. 10.0;
          deny = float_of_int d /. 10.0;
          spill_exhaust = 0.0;
        }
      in
      let cfg =
        { Config.default with ncpus; fault = Some plan; seed;
          policy = Config.Policy.static ~backoff:(seed mod 2 = 0) () }
      in
      let _, out = run_with cfg conflict_source in
      out = seq_output conflict_source)

(* --- overflow rollback path -------------------------------------------- *)

let test_overflow_rollback () =
  (* Tiny hash maps and no temporary buffer: genuine hash conflicts
     overflow immediately, rolling the speculative thread back; the
     parent re-executes and the run still completes correctly. *)
  let events, sink = recording_sink () in
  let cfg =
    { Config.default with
      ncpus = 4;
      buffers = Config.Buffers.make ~slots:2 ~temp_slots:0 ();
      trace_sink = sink }
  in
  let r, out = run_with cfg conflict_source in
  Alcotest.(check string) "output survives overflow" (seq_output conflict_source) out;
  let overflows =
    List.fold_left
      (fun a (rt : TM.retired) -> a + Stats.count rt.TM.r_stats Stats.Overflows)
      0 r.Eval.tretired
  in
  Alcotest.(check bool) "at least one overflow rollback" true (overflows > 0);
  let ovf_events =
    List.filter
      (fun (e : Trace.record) ->
        match e.Trace.event with Trace.Overflow _ -> true | _ -> false)
      !events
  in
  let ovf_rollbacks =
    List.filter
      (fun (e : Trace.record) ->
        match e.Trace.event with
        | Trace.Rollback { reason = Trace.Buffer_overflow; _ } -> true
        | _ -> false)
      !events
  in
  Alcotest.(check int) "Overflow events match stat" overflows (List.length ovf_events);
  Alcotest.(check bool) "each overflow has a rollback" true
    (List.length ovf_rollbacks >= List.length ovf_events)

(* --- graceful degradation ---------------------------------------------- *)

let test_degradation () =
  (* Certain injected overflow + degrade_after=2: after two overflow
     rollbacks in a row the manager must stop speculating entirely. *)
  let events, sink = recording_sink () in
  let plan = { Fault.none with Fault.overflow = 1.0 } in
  let cfg =
    {
      Config.default with
      ncpus = 4;
      fault = Some plan;
      policy = Config.Policy.static ~degrade_after:2 ();
      trace_sink = sink;
      seed = 5;
    }
  in
  let r, out = run_with cfg conflict_source in
  Alcotest.(check string) "degraded run is correct" (seq_output conflict_source) out;
  Alcotest.(check bool) "manager degraded" true (TM.degraded r.Eval.tmgr);
  let degrades =
    List.filter
      (fun (e : Trace.record) ->
        match e.Trace.event with
        | Trace.Sched { what = "degrade"; _ } -> true
        | _ -> false)
      !events
  in
  Alcotest.(check int) "degrade announced once" 1 (List.length degrades)

let test_backoff () =
  (* Forced validation failures with backoff on: rollbacks at the fork
     point must announce growing skip penalties, and skipped forks keep
     the run correct. *)
  let events, sink = recording_sink () in
  let plan = { Fault.none with Fault.validation = 1.0 } in
  let cfg =
    { Config.default with ncpus = 4; fault = Some plan;
      policy = Config.Policy.static ~backoff:true ();
      trace_sink = sink; seed = 9 }
  in
  let _, out = run_with cfg conflict_source in
  Alcotest.(check string) "backoff run is correct" (seq_output conflict_source) out;
  let penalties =
    List.filter_map
      (fun (e : Trace.record) ->
        match e.Trace.event with
        | Trace.Sched { what = "backoff"; info } -> Some info
        | _ -> None)
      !events
  in
  Alcotest.(check bool) "backoff announced" true (penalties <> []);
  Alcotest.(check bool) "penalty grows" true
    (List.exists (fun p -> p > 1) penalties)

(* --- config validation ------------------------------------------------- *)

let test_config_validate () =
  Config.validate Config.default;
  let bad msg t = Alcotest.check_raises msg (Invalid_argument msg) (fun () -> Config.validate t) in
  bad "Config.ncpus must be >= 1 (got 0)" { Config.default with ncpus = 0 };
  bad "Config.Buffers.slots must be a positive power of two (got 3)"
    { Config.default with buffers = Config.Buffers.make ~slots:3 () };
  bad "Config.Buffers.slots must be a positive power of two (got 0)"
    { Config.default with buffers = Config.Buffers.make ~slots:0 () };
  bad "Config.Buffers.temp_slots must be non-negative (got -1)"
    { Config.default with buffers = Config.Buffers.make ~temp_slots:(-1) () };
  bad "Config.rollback_probability must be in [0, 1] (got 2)"
    { Config.default with rollback_probability = 2.0 };
  bad "Config.Policy.degrade_after must be non-negative (got -3)"
    { Config.default with policy = Config.Policy.static ~degrade_after:(-3) () };
  bad "Config.cost.instr must be non-negative (got -1)"
    { Config.default with cost = { Config.default.cost with instr = -1.0 } };
  (* Thread_manager.create validates too *)
  Alcotest.check_raises "create validates"
    (Invalid_argument "Config.ncpus must be >= 1 (got 0)") (fun () ->
      ignore (Eval.run_tls { Config.default with ncpus = 0 } (compile conflict_source)))

(* --- Local_buffer.Unset narrowing -------------------------------------- *)

let test_local_buffer_unset () =
  let lb = LB.create ~max_locals:4 in
  let frame = LB.push_frame lb in
  (match LB.get_reg frame lb 2 with
  | _ -> Alcotest.fail "expected Unset"
  | exception LB.Unset _ -> ());
  (* out-of-range offsets are API misuse, not misspeculation *)
  (match LB.get_reg frame lb 99 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()
  | exception LB.Unset _ -> Alcotest.fail "out of range must not be Unset")

(* --- oracle ------------------------------------------------------------ *)

let rec_at ?(thread = 1) ?(rank = 1) time event =
  { Trace.time; thread; rank; main = (thread = 0); event }

let fork_child ?(time = 0.0) ~parent ~child ~rank () =
  { Trace.time; thread = parent; rank = 0; main = (parent = 0);
    event = Trace.Fork { child; child_rank = rank; point = 0 } }

let test_oracle_clean_stream () =
  let t = Oracle.create ~halt:false () in
  let feed = Oracle.feed t in
  feed (fork_child ~parent:0 ~child:1 ~rank:1 ());
  feed (rec_at 1.0 (Trace.Validate { words = 1; ok = true; addr = None }));
  feed (rec_at 2.0 (Trace.Charge { category = "finalize"; cost = 1.0 }));
  feed (rec_at 2.0 (Trace.Commit { words = 1; counter = 1 }));
  feed
    (rec_at ~thread:0 ~rank:0 3.0 (Trace.Join { child = 1; committed = true }));
  feed
    (rec_at 4.0
       (Trace.Retire { committed = true; runtime = 3.0; stats = [] }));
  Oracle.finish t;
  Alcotest.(check int) "no violations" 0 (List.length (Oracle.violations t));
  Alcotest.(check bool) "records checked" true (Oracle.checked t > 0)

let violations_of records =
  let t = Oracle.create ~halt:false () in
  List.iter (Oracle.feed t) records;
  Oracle.finish t;
  List.map (fun (v : Oracle.violation) -> v.Oracle.invariant) (Oracle.violations t)

let test_oracle_catches_violations () =
  (* commit without a successful validation *)
  Alcotest.(check (list string)) "commit without validate"
    [ "commit-without-validate" ]
    (violations_of
       [
         fork_child ~parent:0 ~child:1 ~rank:1 ();
         rec_at 1.0 (Trace.Charge { category = "finalize"; cost = 1.0 });
         rec_at 1.0 (Trace.Commit { words = 1; counter = 1 });
         rec_at ~thread:0 ~rank:0 2.0 (Trace.Join { child = 1; committed = true });
         rec_at 3.0 (Trace.Retire { committed = true; runtime = 3.0; stats = [] });
       ]);
  (* rollback Conflict requires a failed validation *)
  Alcotest.(check (list string)) "conflict rollback needs failed validate"
    [ "rollback-without-failed-validate" ]
    (violations_of
       [
         fork_child ~parent:0 ~child:1 ~rank:1 ();
         rec_at 1.0 (Trace.Validate { words = 1; ok = true; addr = None });
         rec_at 2.0 (Trace.Rollback { reason = Trace.Conflict; point = 0 });
         rec_at 2.0 (Trace.Charge { category = "finalize"; cost = 1.0 });
         rec_at ~thread:0 ~rank:0 3.0 (Trace.Join { child = 1; committed = false });
         rec_at 4.0 (Trace.Retire { committed = false; runtime = 3.0; stats = [] });
       ]);
  (* join verdict must match the child's commit/rollback *)
  Alcotest.(check (list string)) "join verdict mismatch"
    [ "join-verdict-mismatch" ]
    (violations_of
       [
         fork_child ~parent:0 ~child:1 ~rank:1 ();
         rec_at 1.0 (Trace.Validate { words = 1; ok = true; addr = None });
         rec_at 2.0 (Trace.Charge { category = "finalize"; cost = 1.0 });
         rec_at 2.0 (Trace.Commit { words = 1; counter = 1 });
         rec_at ~thread:0 ~rank:0 3.0 (Trace.Join { child = 1; committed = false });
         rec_at 4.0 (Trace.Retire { committed = true; runtime = 3.0; stats = [] });
       ]);
  (* a thread that was never retired leaks *)
  Alcotest.(check (list string)) "leaked thread"
    [ "unretired-thread" ]
    (violations_of [ fork_child ~parent:0 ~child:1 ~rank:1 () ]);
  (* halt mode raises with a counterexample window *)
  let t = Oracle.create ~halt:true () in
  Oracle.feed t (fork_child ~parent:0 ~child:1 ~rank:1 ());
  Alcotest.(check bool) "halt raises" true
    (match
       Oracle.feed t (rec_at 1.0 (Trace.Commit { words = 1; counter = 1 }))
     with
    | () -> false
    | exception Oracle.Violation v ->
      v.Oracle.invariant = "commit-without-validate" && v.Oracle.window <> [])

(* An Overflow record claiming a spill-tier capacity is legal only once
   the thread really filled the tier — at least [cap] Spill records. *)
let test_oracle_spill_exhaustion () =
  let thread_records ~spills ~cap =
    [ fork_child ~parent:0 ~child:1 ~rank:1 () ]
    @ List.init spills (fun i ->
          rec_at
            (1.0 +. float_of_int i)
            (Trace.Spill { addr = 0x100 + (8 * i) }))
    @ [
        rec_at 10.0 (Trace.Overflow { spill_cap = cap });
        rec_at 10.0 (Trace.Rollback { reason = Trace.Buffer_overflow; point = 0 });
        rec_at 10.0 (Trace.Charge { category = "finalize"; cost = 1.0 });
        rec_at ~thread:0 ~rank:0 11.0 (Trace.Join { child = 1; committed = false });
        rec_at 12.0 (Trace.Retire { committed = false; runtime = 3.0; stats = [] });
      ]
  in
  Alcotest.(check (list string)) "premature overflow flagged"
    [ "overflow-before-spill-exhaustion" ]
    (violations_of (thread_records ~spills:2 ~cap:4));
  Alcotest.(check (list string)) "exhausted tier is legal" []
    (violations_of (thread_records ~spills:4 ~cap:4));
  Alcotest.(check (list string)) "tier off carries no capacity claim" []
    (violations_of (thread_records ~spills:0 ~cap:0))

(* The Spill_exhaust fault site: injected spill-tier exhaustion forces
   the overflow rollback path even though the tier has room.  Output
   must stay sequential, and certainty must degrade to the fallback. *)
let test_spill_exhaust_fault () =
  let expected = seq_output conflict_source in
  List.iter
    (fun rate ->
      let cfg =
        {
          Config.default with
          ncpus = 4;
          fault = Some { Fault.none with Fault.spill_exhaust = rate };
          policy = Config.Policy.static ~degrade_after:4 ();
          seed = 11;
          buffers =
            { Config.Buffers.default with Config.Buffers.spill_slots = 64 };
        }
      in
      let r, out = run_with cfg conflict_source in
      Alcotest.(check string) (Printf.sprintf "output (rate %.2f)" rate)
        expected out;
      if rate = 1.0 then
        Alcotest.(check bool) "certainty degrades to sequential" true
          (TM.degraded r.Eval.tmgr))
    [ 0.5; 1.0 ]

let test_oracle_on_real_runs () =
  (* The oracle attached to genuinely chaotic runs must stay silent. *)
  List.iter
    (fun seed ->
      let oracle = Oracle.create ~halt:false () in
      let plan =
        { Fault.validation = 0.4; overflow = 0.2; spurious = 0.3; nosync = 0.2; deny = 0.2; spill_exhaust = 0.0 }
      in
      let cfg =
        {
          Config.default with
          ncpus = 6;
          fault = Some plan;
          policy = Config.Policy.static ~backoff:true ~degrade_after:4 ();
          seed;
          trace_sink = Oracle.sink oracle;
        }
      in
      let _, out = run_with cfg conflict_source in
      Oracle.finish oracle;
      Alcotest.(check string) "output" (seq_output conflict_source) out;
      Alcotest.(check (list string))
        (Printf.sprintf "oracle silent (seed %d)" seed)
        []
        (List.map
           (fun (v : Oracle.violation) -> Oracle.violation_to_string v)
           (Oracle.violations oracle)))
    [ 1; 2; 3 ]

(* --- chaos library ----------------------------------------------------- *)

let test_chaos_case_determinism () =
  let a = Chaos.gen_case ~seed:99 5 and b = Chaos.gen_case ~seed:99 5 in
  Alcotest.(check bool) "gen_case is pure" true (a = b);
  let ra = Chaos.run_case a and rb = Chaos.run_case b in
  Alcotest.(check bool) "run_case replays identically" true (ra = rb);
  Alcotest.(check bool) "different index differs" true
    (Chaos.gen_case ~seed:99 6 <> a)

let test_chaos_json_roundtrip () =
  let case = Chaos.gen_case ~seed:4 2 in
  let j = Chaos.case_to_json case in
  Alcotest.(check bool) "bare case" true (Chaos.case_of_json j = case);
  let r = Chaos.run_case case in
  let repro = Chaos.repro_to_json ~campaign_seed:4 case r in
  let reparsed = Chaos.case_of_json (Mutls.Json.of_string (Mutls.Json.to_string repro)) in
  Alcotest.(check bool) "repro wire round trip" true (reparsed = case)

(* The overflow-pressure storm band: find a generated case drawn from
   the storm template and run it — the working set dwarfs the shrunken
   buffers, so the case exercises parks, spills or genuine overflow,
   and must still match sequential output under the oracle. *)
let test_chaos_storm_band () =
  let rec find i =
    if i > 100 then Alcotest.fail "no storm case within 100 draws"
    else
      let c = Chaos.gen_case ~seed:77 i in
      if c.Chaos.shape.Chaos.template = 3 then c else find (i + 1)
  in
  let case = find 0 in
  Alcotest.(check string) "band name" "storm"
    (Chaos.template_name case.Chaos.shape.Chaos.template);
  let r = Chaos.run_case case in
  (match r.Chaos.failure with
  | None -> ()
  | Some f -> Alcotest.failf "storm case failed: %s" (Chaos.failure_to_string f));
  Alcotest.(check string) "storm output matches sequential" r.Chaos.expected
    r.Chaos.actual

let test_chaos_campaign () =
  let c = Chaos.run_campaign ~seed:2026 ~runs:12 () in
  Alcotest.(check int) "all cases pass" 12 c.Chaos.passed;
  Alcotest.(check bool) "no failure" true (c.Chaos.failed = None);
  Alcotest.(check bool) "faults actually injected" true (c.Chaos.injected_total > 0)

let tests =
  [
    Alcotest.test_case "fault determinism" `Quick test_fault_determinism;
    Alcotest.test_case "fault site isolation" `Quick test_fault_site_isolation;
    Alcotest.test_case "fault rates" `Quick test_fault_rates;
    Alcotest.test_case "faults preserve output" `Quick test_faults_preserve_output;
    QCheck_alcotest.to_alcotest test_fault_schedule_property;
    Alcotest.test_case "overflow rollback path" `Quick test_overflow_rollback;
    Alcotest.test_case "graceful degradation" `Quick test_degradation;
    Alcotest.test_case "per-fork-point backoff" `Quick test_backoff;
    Alcotest.test_case "config validation" `Quick test_config_validate;
    Alcotest.test_case "local buffer unset" `Quick test_local_buffer_unset;
    Alcotest.test_case "oracle accepts clean stream" `Quick test_oracle_clean_stream;
    Alcotest.test_case "oracle catches violations" `Quick test_oracle_catches_violations;
    Alcotest.test_case "oracle spill-tier exhaustion rule" `Quick
      test_oracle_spill_exhaustion;
    Alcotest.test_case "spill-exhaust fault site" `Quick test_spill_exhaust_fault;
    Alcotest.test_case "oracle silent on real runs" `Quick test_oracle_on_real_runs;
    Alcotest.test_case "chaos case determinism" `Quick test_chaos_case_determinism;
    Alcotest.test_case "chaos json round trip" `Quick test_chaos_json_roundtrip;
    Alcotest.test_case "chaos storm band" `Quick test_chaos_storm_band;
    Alcotest.test_case "chaos campaign" `Quick test_chaos_campaign;
  ]
