(* ThreadManager (paper §IV): virtual CPU management, fork model
   enforcement, speculation, synchronization with the tree-form mixed
   model (§IV-F), validation/commit/rollback and stack frame
   reconstruction (§IV-H).  All timing goes through the execution
   layer (Exec); the category accounting feeds Figures 8 and 9.

   This module is the pure fork-model core: it never names a concrete
   engine.  The Exec record decides whether threads are simulator
   fibers on one systhread (Exec.of_sim — deterministic, the oracle)
   or real fibers scheduled across OCaml 5 domains (Mutls_par.Sched).
   On the parallel path Exec.lock is Some, and every touch of shared
   manager state (CPU table, speculation order, policy engine, retired
   list, foreign children stacks) goes through [with_lock]; the hot
   paths — spec_load/spec_store, tick, check-point polls — stay
   lock-free by construction (per-thread state plus one-shot flag
   peeks).  On the sim path the lock is None and [with_lock] is a
   direct call, so simulator behaviour and traces are unchanged.

   Every lifecycle transition and every accounting charge is also
   reported to the trace sink configured in [Config.trace_sink]
   (Mutls_obs.Trace); the [Report] module folds the charge stream back
   into the same Fig. 8/9 breakdowns, so the trace is a faithful
   superset of [Stats]. *)

module Trace = Mutls_obs.Trace
module Telemetry = Mutls_obs.Telemetry

(* The deterministic PRNG is backend-neutral (pure state machine); only
   the engine itself is abstracted behind Exec. *)
module Rng = Mutls_sim.Rng

exception Spec_finished
(* Raised inside a speculative thread's fiber after it has committed or
   rolled back; unwinds the interpreter back to the fiber body. *)

type cpu_state = Idle | Busy of Thread_data.t

type retired = {
  r_stats : Stats.t;
  r_runtime : float;
  r_committed : bool;
  r_buffered : int; (* GlobalBuffer-tracked accesses; 0 for Expand *)
  r_expand : bool; (* ran as a Level-1 Expand thread *)
}

(* Telemetry handles, resolved once at [create] so the record paths
   (a single guarded store each) never touch the registry's Hashtbl.
   Recording never charges virtual time and never touches the
   injection RNG, so telemetry on/off cannot perturb traces. *)
type tele = {
  on : bool;
  t_forks : Telemetry.counter;
  t_denied_model : Telemetry.counter;
  t_denied_policy : Telemetry.counter;
  t_denied_no_cpu : Telemetry.counter;
  t_denied_fault : Telemetry.counter;
  t_dec_deny : Telemetry.counter;
  t_dec_expand : Telemetry.counter;
  t_dec_speculate : Telemetry.counter;
  t_commits : Telemetry.counter;
  t_rb_conflict : Telemetry.counter;
  t_rb_stale : Telemetry.counter;
  t_rb_abandoned : Telemetry.counter;
  t_rb_overflow : Telemetry.counter;
  t_rb_bad_access : Telemetry.counter;
  t_nosyncs : Telemetry.counter;
  t_overflows : Telemetry.counter;
  t_checkpoints : Telemetry.counter;
  t_validations_ok : Telemetry.counter;
  t_validations_fail : Telemetry.counter;
  t_joins_ok : Telemetry.counter;
  t_joins_fail : Telemetry.counter;
  t_loads : Telemetry.counter;
  t_stores : Telemetry.counter;
  t_parks : Telemetry.counter;
  t_gbuf_spills : Telemetry.counter;
  t_frames : Telemetry.counter;
  t_live_spec : Telemetry.gauge;
  t_vtime : Telemetry.gauge;
  t_degraded : Telemetry.gauge;
  t_spill_depth : Telemetry.gauge;
  t_h_runtime : Telemetry.histogram;
  t_h_validate_words : Telemetry.histogram;
  t_h_commit_words : Telemetry.histogram;
  t_h_occupancy : Telemetry.histogram;
  t_h_shard_occupancy : Telemetry.histogram;
  t_h_frame_depth : Telemetry.histogram;
}

let make_tele reg =
  let c ?help ?labels name = Telemetry.counter ?help ?labels reg name
  and g ?help ?labels name = Telemetry.gauge ?help ?labels reg name
  and h ?help ?labels name = Telemetry.histogram ?help ?labels reg name in
  {
    on = Telemetry.enabled reg;
    t_forks = c ~help:"speculative threads forked" "mutls_forks_total";
    t_denied_model =
      c ~help:"fork requests refused" ~labels:[ ("reason", "model") ]
        "mutls_fork_denied_total";
    t_denied_policy =
      c ~labels:[ ("reason", "policy") ] "mutls_fork_denied_total";
    t_denied_no_cpu =
      c ~labels:[ ("reason", "no_cpu") ] "mutls_fork_denied_total";
    t_denied_fault = c ~labels:[ ("reason", "fault") ] "mutls_fork_denied_total";
    t_dec_deny =
      c ~help:"policy engine decisions" ~labels:[ ("decision", "deny") ]
        "mutls_policy_decisions_total";
    t_dec_expand =
      c ~labels:[ ("decision", "expand") ] "mutls_policy_decisions_total";
    t_dec_speculate =
      c ~labels:[ ("decision", "speculate") ] "mutls_policy_decisions_total";
    t_commits = c ~help:"threads validated and committed" "mutls_commits_total";
    t_rb_conflict =
      c ~help:"threads rolled back" ~labels:[ ("reason", "conflict") ]
        "mutls_rollbacks_total";
    t_rb_stale =
      c ~labels:[ ("reason", "stale-local") ] "mutls_rollbacks_total";
    t_rb_abandoned =
      c ~labels:[ ("reason", "abandoned") ] "mutls_rollbacks_total";
    t_rb_overflow =
      c ~labels:[ ("reason", "buffer-overflow") ] "mutls_rollbacks_total";
    t_rb_bad_access =
      c ~labels:[ ("reason", "bad-access") ] "mutls_rollbacks_total";
    t_nosyncs = c ~help:"subtrees abandoned (NOSYNC)" "mutls_nosyncs_total";
    t_overflows = c ~help:"GlobalBuffer overflows" "mutls_overflows_total";
    t_checkpoints = c ~help:"check-point polls" "mutls_checkpoints_total";
    t_validations_ok =
      c ~help:"read-set validations" ~labels:[ ("ok", "true") ]
        "mutls_validations_total";
    t_validations_fail =
      c ~labels:[ ("ok", "false") ] "mutls_validations_total";
    t_joins_ok =
      c ~help:"parent-side joins" ~labels:[ ("committed", "true") ]
        "mutls_joins_total";
    t_joins_fail = c ~labels:[ ("committed", "false") ] "mutls_joins_total";
    t_loads = c ~help:"speculative loads" "mutls_loads_total";
    t_stores = c ~help:"speculative stores" "mutls_stores_total";
    t_parks =
      c ~help:"GlobalBuffer hash conflicts parked in the temp buffer"
        "mutls_gbuf_parks_total";
    t_gbuf_spills =
      c ~help:"GlobalBuffer spill-tier insertions" "mutls_gbuf_spills_total";
    t_frames = c ~help:"LocalBuffer frames pushed" "mutls_frames_total";
    t_live_spec =
      g ~help:"live speculative threads" "mutls_live_spec_threads";
    t_vtime = g ~help:"virtual clock, cycles" "mutls_virtual_time_cycles";
    t_degraded =
      g ~help:"1 after the policy degraded to sequential" "mutls_policy_degraded";
    t_spill_depth =
      g ~help:"GlobalBuffer spill-tier entries in use" "mutls_gbuf_spill_depth";
    t_h_runtime =
      h ~help:"speculative thread lifetime, cycles" "mutls_thread_runtime_cycles";
    t_h_validate_words =
      h ~help:"read-set words per validation" "mutls_validate_words";
    t_h_commit_words =
      h ~help:"write-set words per commit" "mutls_commit_words";
    t_h_occupancy =
      h ~help:"GlobalBuffer slots occupied at finalize"
        "mutls_buffer_occupancy_words";
    t_h_shard_occupancy =
      h ~help:"GlobalBuffer home-map slots occupied per shard at finalize"
        "mutls_gbuf_shard_occupancy_words";
    t_h_frame_depth =
      h ~help:"LocalBuffer depth at frame push" "mutls_frame_depth";
  }

type t = {
  cfg : Config.t;
  exec : Exec.t;
  mem : Memio.t;
  addr_space : Address_space.t;
  cpus : cpu_state array; (* ranks 1..ncpus; slot 0 unused *)
  mutable next_id : int;
  mutable spec_order : Thread_data.t list; (* newest speculation first *)
  mutable live_spec : int;
  rng : Rng.t;
  main : Thread_data.t;
  mutable retired : retired list;
  (* §VI future work: last-stride value predictor for fork-time
     register transfer, keyed by (fork point id, register offset). *)
  strides : (int * int, int64) Hashtbl.t;
  (* Per-CPU GlobalBuffer pool, as in the paper ("the ThreadManager
     module maintains for each CPU one ThreadData, one GlobalBuffer and
     one LocalBuffer object"): the buffers are by far the largest
     allocation, and every thread finalizes its buffer before dying, so
     the next occupant of the rank can reuse it. *)
  buffer_pool : Global_buffer.t array;
  fault : Fault.t option; (* chaos testing: deterministic injection at
                             the runtime's failure sites (Config.fault) *)
  policy : Policy.t; (* the fork-decision strategy (Config.policy with
                        the deprecated flat fields folded in); this
                        module keeps only mechanism *)
  tele : tele; (* pre-resolved handles into Config.telemetry *)
  aux_lock : Mutex.t option;
  (* Leaf-level lock for the small shared leaves — the injection RNGs
     (fault + rollback_probability) and the value-prediction strides
     table — taken while the main lock may already be held (order:
     main, then aux; never the reverse).  None on the sim path. *)
}

(* --- locking ---------------------------------------------------------- *)

(* The main shared-state lock lives in the Exec record: None on the sim
   path (single systhread — a direct call), Some under the parallel
   backend.  Critical sections never block on a flag wait, so the two
   locks cannot participate in a cycle with the scheduler. *)
let[@inline] with_lock mgr f =
  match mgr.exec.Exec.lock with
  | None -> f ()
  | Some mu -> (
    Mutex.lock mu;
    match f () with
    | v ->
      Mutex.unlock mu;
      v
    | exception e ->
      Mutex.unlock mu;
      raise e)

let[@inline] with_aux mgr f =
  match mgr.aux_lock with
  | None -> f ()
  | Some mu -> (
    Mutex.lock mu;
    match f () with
    | v ->
      Mutex.unlock mu;
      v
    | exception e ->
      Mutex.unlock mu;
      raise e)

(* --- tracing --------------------------------------------------------- *)

(* Call sites guard on [tracing] before building an event, so disabled
   tracing allocates nothing on the hot paths. *)
let tracing mgr = mgr.cfg.Config.trace_sink.Trace.enabled

let emit mgr (td : Thread_data.t) event =
  mgr.cfg.Config.trace_sink.Trace.emit
    {
      Trace.time = mgr.exec.Exec.now ();
      thread = td.id;
      rank = td.rank;
      main = td.is_main;
      event;
    }

(* The GlobalBuffer pool serves successive threads on a rank, so the
   observability hooks are re-bound to each new occupant.  The hooks
   serve both the trace sink and the telemetry registry; [observing]
   says whether either wants them. *)
let observing mgr = tracing mgr || mgr.tele.on

let install_hooks mgr (td : Thread_data.t) =
  Global_buffer.set_park_hook td.gbuf
    (Some
       (fun addr ->
         if mgr.tele.on then Telemetry.incr mgr.tele.t_parks;
         if tracing mgr then emit mgr td (Trace.Park { addr })));
  Global_buffer.set_spill_hook td.gbuf
    (Some
       (fun addr ->
         if mgr.tele.on then begin
           Telemetry.incr mgr.tele.t_gbuf_spills;
           Telemetry.set mgr.tele.t_spill_depth
             (float_of_int (Global_buffer.spill_size td.gbuf))
         end;
         if tracing mgr then emit mgr td (Trace.Spill { addr })));
  Local_buffer.set_frame_hook td.lbuf
    (Some
       (fun ~push ~depth ->
         if mgr.tele.on && push then begin
           Telemetry.incr mgr.tele.t_frames;
           Telemetry.observe mgr.tele.t_h_frame_depth depth
         end;
         if tracing mgr then emit mgr td (Trace.Frame { push; depth })))

let create_exec ?policy (cfg : Config.t) (exec : Exec.t) mem =
  Config.validate cfg;
  let bufs = cfg.buffers in
  let gbuf () =
    Global_buffer.create ~slots:bufs.Config.Buffers.slots
      ~temp_slots:bufs.Config.Buffers.temp_slots
      ~shards:bufs.Config.Buffers.shards
      ~spill_slots:bufs.Config.Buffers.spill_slots
      ~line_words:bufs.Config.Buffers.line_words ()
  in
  let main =
    Thread_data.create ~gbuf:(gbuf ()) ~new_flag:exec.Exec.new_flag ~id:0
      ~rank:0 ~fork_point:(-1) ~is_main:true ~max_locals:cfg.max_locals ()
  in
  let mgr =
    {
      cfg;
      exec;
      mem;
      addr_space = Address_space.create ();
      cpus = Array.make (max 1 cfg.ncpus) Idle;
      next_id = 1;
      spec_order = [];
      live_spec = 0;
      rng = Rng.create cfg.seed;
      main;
      retired = [];
      strides = Hashtbl.create 64;
      buffer_pool = Array.init (max 1 cfg.ncpus) (fun _ -> gbuf ());
      fault = Option.map (Fault.create ~seed:cfg.seed) cfg.fault;
      policy =
        (match policy with Some p -> p | None -> Policy.of_config cfg);
      tele = make_tele cfg.telemetry;
      aux_lock = Option.map (fun _ -> Mutex.create ()) exec.Exec.lock;
    }
  in
  if observing mgr then install_hooks mgr main;
  mgr

let create ?policy cfg engine mem =
  create_exec ?policy cfg (Exec.of_sim engine) mem

(* --- accessors ------------------------------------------------------- *)

(* Loads/Stores counter bumps are batched per thread like [acc_cost]
   and folded in at flush; the accessors below fold too, so a caller
   reading stats mid-run (the main thread never retires) still sees
   exact totals. *)
let fold_counters mgr (td : Thread_data.t) =
  if td.pending_loads > 0 then begin
    Stats.add_count td.stats Stats.Loads td.pending_loads;
    if mgr.tele.on then Telemetry.add mgr.tele.t_loads td.pending_loads;
    td.pending_loads <- 0
  end;
  if td.pending_stores > 0 then begin
    Stats.add_count td.stats Stats.Stores td.pending_stores;
    if mgr.tele.on then Telemetry.add mgr.tele.t_stores td.pending_stores;
    td.pending_stores <- 0
  end

let main mgr =
  fold_counters mgr mgr.main;
  mgr.main

let retired mgr = mgr.retired
let cfg mgr = mgr.cfg
let now mgr = mgr.exec.Exec.now ()
let degraded mgr = Policy.degraded mgr.policy
let injector mgr = mgr.fault

(* --- fault injection -------------------------------------------------- *)

(* The injector's RNG streams are shared mutable state; [with_aux]
   (leaf lock, may nest inside the main lock) keeps their draws atomic
   under the parallel backend. *)
let inject mgr site =
  match mgr.fault with
  | None -> false
  | Some f -> with_aux mgr (fun () -> Fault.fire f site)

(* --- policy feedback -------------------------------------------------- *)

(* The policy owns all strategy state (backoff penalties, overflow
   streaks, payoff accumulators); these wrappers forward the mechanism
   events and map any returned scheduling event onto the trace.  Policy
   state updates never depend on whether tracing is enabled. *)

let emit_sched mgr (td : Thread_data.t) = function
  | None -> ()
  | Some { Policy.ev_what; ev_info } ->
    if tracing mgr then
      emit mgr td (Trace.Sched { what = ev_what; info = ev_info })

(* A genuine misspeculation (conflict, stale local, overflow — not an
   abandoned subtree, which says nothing about the point itself).  The
   policy engine is stateful and shared, so every feedback call is a
   critical section under the parallel backend. *)
let note_rollback mgr (td : Thread_data.t) =
  emit_sched mgr td
    (with_lock mgr (fun () -> Policy.on_rollback mgr.policy ~point:td.fork_point))

let note_commit mgr (td : Thread_data.t) =
  with_lock mgr (fun () -> Policy.on_commit mgr.policy ~point:td.fork_point)

let note_overflow mgr (td : Thread_data.t) ~pressure =
  emit_sched mgr td
    (with_lock mgr (fun () ->
         Policy.on_overflow mgr.policy ~point:td.fork_point ~pressure))

(* --- virtual-time accounting --------------------------------------- *)

let flush mgr (td : Thread_data.t) =
  fold_counters mgr td;
  if td.acc_cost > 0.0 then begin
    Stats.add td.stats Stats.Work td.acc_cost;
    let c = td.acc_cost in
    td.acc_cost <- 0.0;
    mgr.exec.Exec.advance c;
    if mgr.tele.on then
      Telemetry.set mgr.tele.t_vtime (mgr.exec.Exec.now ());
    if tracing mgr then
      emit mgr td
        (Trace.Charge { category = Stats.category_name Stats.Work; cost = c })
  end

(* Accumulate interpreter work cost; yields to the scheduler once per
   quantum so cross-thread interleaving stays fine-grained. *)
let tick mgr (td : Thread_data.t) c =
  td.acc_cost <- td.acc_cost +. c;
  if td.acc_cost >= mgr.cfg.quantum then flush mgr td

(* Batched [tick] for the compiled engine: [n] pending per-op costs of
   a straight-line segment.  Replaying them from the current
   accumulator tells whether any per-op [tick] would have flushed; if
   none would, the final accumulator is committed in one write and the
   per-op calls are skipped — same float additions in the same order,
   so the committed value is bit-identical, and with no flush there is
   no scheduler yield and no Charge event to reorder.  Otherwise
   nothing is committed and the caller interleaves per-op [tick]s with
   execution exactly like the reference engine. *)
let tick_batch mgr (td : Thread_data.t) (costs : float array) n =
  let q = mgr.cfg.quantum in
  let acc = ref td.acc_cost in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < n do
    acc := !acc +. Array.unsafe_get costs !i;
    if !acc >= q then ok := false;
    incr i
  done;
  if !ok then td.acc_cost <- !acc;
  !ok

let charge mgr (td : Thread_data.t) cat c =
  flush mgr td;
  Stats.add td.stats cat c;
  mgr.exec.Exec.advance c;
  if tracing mgr then
    emit mgr td (Trace.Charge { category = Stats.category_name cat; cost = c })

(* Waiting time already accounted by the engine: record it in [cat]
   without advancing the clock again. *)
let charge_elapsed mgr (td : Thread_data.t) cat dt =
  Stats.add td.stats cat dt;
  if tracing mgr && dt > 0.0 then
    emit mgr td (Trace.Charge { category = Stats.category_name cat; cost = dt })

(* Join-waits on the critical path are "join"; on a speculative path
   the paper reports them as idle time. *)
let join_cat (td : Thread_data.t) = if td.is_main then Stats.Join else Stats.Idle

(* --- address space -------------------------------------------------- *)

let register_range mgr start size = Address_space.register mgr.addr_space start size
let unregister_range mgr start size = Address_space.unregister mgr.addr_space start size
let registered mgr addr size = Address_space.contains_range mgr.addr_space addr size

(* --- forking model policy ------------------------------------------- *)

let rec first_alive = function
  | [] -> None
  | (td : Thread_data.t) :: rest -> if td.alive then Some td else first_alive rest

let may_fork mgr (td : Thread_data.t) = function
  | Config.Mixed -> true
  | Config.Out_of_order -> td.is_main
  | Config.In_order -> (
    match first_alive mgr.spec_order with
    | None -> td.is_main
    | Some most_speculative -> most_speculative.id = td.id)

(* --- fork (§IV-D) ---------------------------------------------------- *)

let find_idle mgr =
  let rec go r =
    if r >= mgr.cfg.ncpus then None
    else match mgr.cpus.(r) with Idle -> Some r | Busy _ -> go (r + 1)
  in
  go 1

(* MUTLS_get_CPU: assign a rank to a new speculative thread, or 0 when
   speculation is not possible.  The policy decides Deny / Expand /
   Speculate; this function enforces the mechanism-level invariants a
   policy cannot be trusted with: the fork-model rules, and the Expand
   legality gate — Level 1 is only honoured where the static analysis
   marked the point expandable AND the parent's view of memory equals
   main memory (the parent is the main thread, or itself an Expand
   thread and therefore bufferless).  A hostile policy can thus cost
   performance but never soundness. *)
let get_cpu mgr (td : Thread_data.t) ~model ~expandable ~point =
  charge mgr td Stats.Find_cpu mgr.cfg.cost.find_cpu;
  (* Everything below reads and writes shared manager state (CPU table,
     speculation order, policy engine), so the whole decision is one
     critical section under the parallel backend.  Nothing inside
     blocks: the injection draw takes only the aux leaf lock. *)
  with_lock mgr (fun () ->
  let model = Option.value mgr.cfg.model_override ~default:model in
  (* A thread already asked to synchronize or roll back must not fork:
     its children would be orphaned. *)
  let doomed = mgr.exec.Exec.peek td.sync_status <> None in
  if doomed || not (may_fork mgr td model) then begin
    if mgr.tele.on then Telemetry.incr mgr.tele.t_denied_model;
    0
  end
  else begin
    let rq =
      {
        Policy.rq_point = point;
        rq_model = model;
        rq_expandable = expandable;
        rq_parent_main = td.is_main;
        rq_parent_expand = td.expand;
      }
    in
    let decision =
      match Policy.decide mgr.policy rq with
      | Policy.Expand when not (expandable && (td.is_main || td.expand)) ->
        Policy.Speculate model (* illegal Expand: downgrade to Level 2 *)
      | d -> d
    in
    (if mgr.tele.on then
       match decision with
       | Policy.Deny -> Telemetry.incr mgr.tele.t_dec_deny
       | Policy.Expand -> Telemetry.incr mgr.tele.t_dec_expand
       | Policy.Speculate _ -> Telemetry.incr mgr.tele.t_dec_speculate);
    match decision with
    | Policy.Deny ->
      if mgr.tele.on then Telemetry.incr mgr.tele.t_denied_policy;
      0
    | (Policy.Expand | Policy.Speculate _) as d -> (
      let expand, model' =
        match d with
        | Policy.Speculate m -> (false, m)
        | _ -> (true, model)
      in
      (* a policy-overridden model still obeys the fork-model rules *)
      if model' <> model && not (may_fork mgr td model') then begin
        if mgr.tele.on then Telemetry.incr mgr.tele.t_denied_model;
        0
      end
      else
        match find_idle mgr with
        | None ->
          if mgr.tele.on then Telemetry.incr mgr.tele.t_denied_no_cpu;
          0
        | Some rank ->
          if inject mgr Fault.Fork_denial then begin
            if mgr.tele.on then Telemetry.incr mgr.tele.t_denied_fault;
            0
          end
          else begin
      let child =
        Thread_data.create ~gbuf:mgr.buffer_pool.(rank)
          ~new_flag:mgr.exec.Exec.new_flag ~id:mgr.next_id ~rank
          ~fork_point:point ~is_main:false ~max_locals:mgr.cfg.max_locals ()
      in
      mgr.next_id <- mgr.next_id + 1;
      child.parent <- Some td;
      child.expand <- expand;
      if observing mgr then install_hooks mgr child;
      ignore (Local_buffer.push_frame child.lbuf);
      mgr.cpus.(rank) <- Busy child;
      Stack.push child td.children;
      (* keep the speculation-order list from growing without bound *)
      if List.length mgr.spec_order > 4 * mgr.cfg.ncpus then
        mgr.spec_order <-
          List.filter (fun (t : Thread_data.t) -> t.alive) mgr.spec_order;
      mgr.spec_order <- child :: mgr.spec_order;
      mgr.live_spec <- mgr.live_spec + 1;
      Stats.incr td.stats Stats.Forks;
      if mgr.tele.on then begin
        Telemetry.incr mgr.tele.t_forks;
        Telemetry.set mgr.tele.t_live_spec (float_of_int mgr.live_spec)
      end;
      if tracing mgr then
        emit mgr td (Trace.Fork { child = child.id; child_rank = rank; point });
      rank
          end)
  end)

let busy_exn mgr rank =
  match mgr.cpus.(rank) with
  | Busy td -> td
  | Idle -> invalid_arg (Printf.sprintf "Thread_manager: CPU %d is idle" rank)

(* --- fork-time local transfer (proxy side) -------------------------- *)

let set_fork_reg mgr (parent : Thread_data.t) ~rank ~off value =
  charge mgr parent Stats.Fork mgr.cfg.cost.per_local;
  let child = busy_exn mgr rank in
  (* With value prediction enabled, a local whose value changes between
     fork and join by a stable stride is transferred pre-advanced by the
     learned stride (the paper's §VI: induction variables "can also be
     made live"); the original is kept for learning at the join. *)
  let value =
    if mgr.cfg.value_prediction then begin
      Local_buffer.set_fork_orig child.lbuf off value;
      match value with
      | Local_buffer.Vi v -> (
        match
          with_aux mgr (fun () ->
              Hashtbl.find_opt mgr.strides (child.fork_point, off))
        with
        | Some stride -> Local_buffer.Vi (Int64.add v stride)
        | None -> value)
      | Local_buffer.Vf _ -> value
    end
    else value
  in
  Local_buffer.set_fork_reg child.lbuf off value

let set_fork_addr mgr (parent : Thread_data.t) ~rank ~off addr =
  charge mgr parent Stats.Fork mgr.cfg.cost.per_local;
  let child = busy_exn mgr rank in
  Local_buffer.set_fork_addr child.lbuf off addr

(* MUTLS_speculate: launch the speculative thread.  [body] runs the
   interpreter on the stub/speculative function; the wrapper records
   runtime and releases the CPU no matter how the thread ends. *)
let speculate mgr (parent : Thread_data.t) ~rank ~counter body =
  charge mgr parent Stats.Fork mgr.cfg.cost.fork;
  let child = busy_exn mgr rank in
  child.entry_counter <- counter;
  if tracing mgr then
    emit mgr parent (Trace.Speculate { child_rank = rank; counter });
  mgr.exec.Exec.spawn (fun () ->
      let t0 = mgr.exec.Exec.now () in
      let committed =
        match body child with
        | () -> false (* body returned without commit: treat as rollback *)
        | exception Spec_finished ->
          mgr.exec.Exec.peek child.valid_status = Some Thread_data.commit
      in
      flush mgr child;
      (* Retirement releases the rank: the locked section here
         happens-before the locked claim in [get_cpu], so the next
         occupant of the rank sees every plain write this thread made. *)
      with_lock mgr (fun () ->
          child.alive <- false;
          (match mgr.cpus.(rank) with
          | Busy td when td.id = child.id -> mgr.cpus.(rank) <- Idle
          | _ -> ());
          mgr.live_spec <- mgr.live_spec - 1);
      let runtime = mgr.exec.Exec.now () -. t0 in
      if mgr.tele.on then begin
        Telemetry.observe mgr.tele.t_h_runtime (int_of_float runtime);
        Telemetry.set mgr.tele.t_live_spec (float_of_int mgr.live_spec);
        Telemetry.set mgr.tele.t_degraded
          (if Policy.degraded mgr.policy then 1.0 else 0.0)
      end;
      if tracing mgr then
        emit mgr child
          (Trace.Retire
             { committed; runtime; stats = Stats.to_assoc child.stats });
      (* feed the policy's payoff accumulator — the same committed /
         wasted split the profiler books from the Retire record *)
      let sched_ev =
        with_lock mgr (fun () ->
            let ev =
              Policy.on_retire mgr.policy ~point:child.fork_point
                ~committed:(Stats.get child.stats Stats.Work)
                ~wasted:(Stats.get child.stats Stats.Wasted_work)
            in
            mgr.retired <-
              { r_stats = child.stats; r_runtime = runtime;
                r_committed = committed; r_buffered = child.buffered;
                r_expand = child.expand }
              :: mgr.retired;
            ev)
      in
      emit_sched mgr child sched_ev)

(* --- speculative entry (stub side) ----------------------------------- *)

let get_fork_reg mgr (td : Thread_data.t) ~off =
  charge mgr td Stats.Work mgr.cfg.cost.per_local;
  Local_buffer.get_fork_reg td.lbuf off

(* Bottom-frame stack variables are accessed at the parent's addresses
   (through the GlobalBuffer); nested entries use the local alloca. *)
let pick_stackaddr mgr (td : Thread_data.t) ~counter ~off ~own_addr =
  charge mgr td Stats.Work mgr.cfg.cost.per_local;
  if counter <> 0 then Local_buffer.get_fork_addr td.lbuf off else own_addr

(* --- validation & commit -------------------------------------------- *)

(* The parent's view of memory: main memory for the non-speculative
   thread, memory overlaid with its own uncommitted writes for a
   speculative parent. *)
let parent_view mgr (parent : Thread_data.t) np =
  if parent.is_main then mgr.mem.Memio.read_word np
  else Global_buffer.view parent.gbuf mgr.mem np

exception Validation_failed

let validate_against_parent mgr (td : Thread_data.t) (parent : Thread_data.t) =
  let checked = ref 0 in
  (* First conflicting word address, for attribution: a per-address
     histogram over Validate failures ranks the hot words behind
     Conflict rollbacks (Mutls_obs.Profile). *)
  let conflict_addr = ref None in
  let ok =
    try
      Global_buffer.iter_read_words td.gbuf (fun addr observed mask ->
          incr checked;
          let actual = parent_view mgr parent addr in
          match mask with
          | None ->
            if actual <> observed then begin
              conflict_addr := Some addr;
              raise Validation_failed
            end
          | Some mark ->
            (* skip locally overwritten bytes *)
            for b = 0 to 7 do
              if Bytes.get mark b <> '\xff' then begin
                let shift = 8 * b in
                let byte_of w = Int64.to_int (Int64.shift_right_logical w shift) land 0xff in
                if byte_of actual <> byte_of observed then begin
                  conflict_addr := Some addr;
                  raise Validation_failed
                end
              end
            done);
      true
    with Validation_failed -> false
  in
  charge mgr td Stats.Validation
    (float_of_int (max 1 !checked) *. mgr.cfg.cost.validate_word);
  let ok =
    if ok && td.local_invalid then false
    else if ok && inject mgr Fault.Validation_failure then false
    else if ok && mgr.cfg.rollback_probability > 0.0 then
      with_aux mgr (fun () -> Rng.next_float mgr.rng)
      >= mgr.cfg.rollback_probability
    else ok
  in
  (* stale-local and injected failures have no conflicting address *)
  let addr = if ok then None else !conflict_addr in
  if mgr.tele.on then begin
    Telemetry.incr
      (if ok then mgr.tele.t_validations_ok else mgr.tele.t_validations_fail);
    Telemetry.observe mgr.tele.t_h_validate_words !checked
  end;
  if tracing mgr then emit mgr td (Trace.Validate { words = !checked; ok; addr });
  ok

(* Commit the child's effects into the parent's world: main memory for
   a non-speculative parent, the parent's buffers otherwise.  Returns
   the number of words written. *)
let commit_into_parent mgr (td : Thread_data.t) (parent : Thread_data.t) =
  let words = ref 0 in
  if parent.is_main then words := Global_buffer.commit td.gbuf mgr.mem
  else begin
    (try
       (* Reads MUST merge before writes.  A read-modify-write address
          sits in both of the child's sets; once the child's write lands
          in the parent's write set, merge_read would take the hit as
          "satisfied by an earlier parent write" and drop the entry —
          losing the stale observation and letting the conflict escape
          re-validation at the next join up the chain. *)
       Global_buffer.iter_read_words td.gbuf (fun addr observed _mask ->
           Global_buffer.merge_read parent.gbuf addr observed);
       Global_buffer.iter_write_words td.gbuf (fun addr data pos mark mpos ->
           incr words;
           Global_buffer.merge_write parent.gbuf mgr.mem addr data pos mark mpos)
     with Global_buffer.Overflow ->
       (* The parent's buffers cannot absorb the child; poison the
          parent so it rolls back (safe, conservative). *)
       parent.local_invalid <- true)
  end;
  charge mgr td Stats.Commit (float_of_int (max 1 !words) *. mgr.cfg.cost.commit_word);
  !words

let finalize_buffers mgr (td : Thread_data.t) =
  if mgr.tele.on then begin
    let g = td.gbuf in
    for s = 0 to Global_buffer.shard_count g - 1 do
      Telemetry.observe mgr.tele.t_h_shard_occupancy
        (Global_buffer.shard_occupancy g s)
    done
  end;
  let n = Global_buffer.finalize td.gbuf in
  if mgr.tele.on then Telemetry.observe mgr.tele.t_h_occupancy n;
  charge mgr td Stats.Finalize (float_of_int (max 1 n) *. mgr.cfg.cost.finalize_word)

let tele_rollback mgr reason =
  if mgr.tele.on then
    Telemetry.incr
      (match reason with
      | Trace.Conflict -> mgr.tele.t_rb_conflict
      | Trace.Stale_local -> mgr.tele.t_rb_stale
      | Trace.Abandoned -> mgr.tele.t_rb_abandoned
      | Trace.Buffer_overflow -> mgr.tele.t_rb_overflow
      | Trace.Bad_access -> mgr.tele.t_rb_bad_access)

(* Terminal commit/rollback of a speculative thread that has been asked
   to synchronize.  Sets valid_status and ends the fiber. *)
let commit_or_rollback mgr (td : Thread_data.t) ~counter =
  let parent = match td.parent with Some p -> p | None -> mgr.main in
  let ok = validate_against_parent mgr td parent in
  if ok then begin
    let words = commit_into_parent mgr td parent in
    td.commit_counter <- counter;
    (Local_buffer.top td.lbuf).counter <- counter;
    finalize_buffers mgr td;
    Stats.incr td.stats Stats.Commits;
    note_commit mgr td;
    if mgr.tele.on then begin
      Telemetry.incr mgr.tele.t_commits;
      Telemetry.observe mgr.tele.t_h_commit_words words
    end;
    if tracing mgr then emit mgr td (Trace.Commit { words; counter });
    (* Setting the flag publishes the buffer merges above: the waiting
       parent's read of the verdict happens-after this set. *)
    mgr.exec.Exec.set td.valid_status Thread_data.commit
  end
  else begin
    (* The Rollback record must precede the finalize charge: the Report
       replay reclassifies work->wasted exactly where the runtime does,
       and the finalize cost accrues after the reclassification. *)
    Stats.work_to_wasted td.stats;
    tele_rollback mgr
      (if td.local_invalid then Trace.Stale_local else Trace.Conflict);
    if tracing mgr then
      emit mgr td
        (Trace.Rollback
           {
             reason =
               (if td.local_invalid then Trace.Stale_local else Trace.Conflict);
             point = td.fork_point;
           });
    finalize_buffers mgr td;
    Stats.incr td.stats Stats.Rollbacks;
    note_rollback mgr td;
    mgr.exec.Exec.set td.valid_status Thread_data.rollback
  end;
  raise Spec_finished

(* Kill an entire abandoned subtree: these threads will never be
   joined, so they must be told to roll back (tree-form cascading
   rollback, confined to the subtree).  Callers hold the main lock:
   two killers can otherwise race the peek-before-set on a shared
   descendant, and the children stacks being walked are mutated under
   the same lock. *)
let rec nosync_subtree mgr (td : Thread_data.t) =
  (match mgr.exec.Exec.peek td.sync_status with
  | None ->
    if mgr.tele.on then Telemetry.incr mgr.tele.t_nosyncs;
    if tracing mgr then emit mgr td (Trace.Nosync { point = td.fork_point });
    mgr.exec.Exec.set td.sync_status Thread_data.nosync
  | Some _ -> ());
  Stack.iter (nosync_subtree mgr) td.children

(* Rollback without a waiting parent (NOSYNC, overflow, bad address). *)
let rollback_self mgr (td : Thread_data.t) ~reason ~kill_subtree =
  Stats.work_to_wasted td.stats;
  tele_rollback mgr reason;
  if tracing mgr then
    emit mgr td (Trace.Rollback { reason; point = td.fork_point });
  finalize_buffers mgr td;
  Stats.incr td.stats Stats.Rollbacks;
  if reason <> Trace.Abandoned then note_rollback mgr td;
  if kill_subtree then
    with_lock mgr (fun () -> Stack.iter (nosync_subtree mgr) td.children);
  (* valid_status is only ever set by the thread itself, so the
     peek-then-set below cannot race. *)
  (match mgr.exec.Exec.peek td.valid_status with
  | None -> mgr.exec.Exec.set td.valid_status Thread_data.rollback
  | Some _ -> ());
  raise Spec_finished

(* [spill_cap] is the spill-tier capacity for genuine exhaustion (the
   oracle checks that the tier really was full first) and [-1] for
   injected overflows and spill-off runs, where no such promise holds.
   At [-1] (or [0]) the Overflow record carries no arguments, so
   spill-off traces keep their seed-era bytes. *)
let rollback_overflow ?(spill_cap = -1) mgr (td : Thread_data.t) =
  Stats.incr td.stats Stats.Overflows;
  Stats.add td.stats Stats.Overflow 0.0;
  if mgr.tele.on then Telemetry.incr mgr.tele.t_overflows;
  if tracing mgr then emit mgr td (Trace.Overflow { spill_cap });
  note_overflow mgr td ~pressure:Policy.Exhaust;
  rollback_self mgr td ~reason:Trace.Buffer_overflow ~kill_subtree:false

(* --- speculative memory access --------------------------------------- *)

(* Graceful-degradation feedback for a buffered access that hit
   capacity pressure.  A spill-tier insertion pays the configured
   latency penalty (booked as overflow time, the category the paper
   charges buffer pressure to) and notifies the policy at [Spill]
   severity; a temporary-buffer park is free (it is the seed-era
   mechanism) but still notifies at [Park] severity.  Shipped policies
   ignore both, so default-config traces are unchanged.  The cost on
   the hot path is two counter loads per access. *)
let note_pressure mgr (td : Thread_data.t) ~parks0 ~spills0 =
  if Global_buffer.spills td.gbuf > spills0 then begin
    charge mgr td Stats.Overflow mgr.cfg.cost.spill;
    note_overflow mgr td ~pressure:Policy.Spill
  end;
  if Global_buffer.parks td.gbuf > parks0 then
    note_overflow mgr td ~pressure:Policy.Park

let plain_load mgr addr size =
  match size with
  | 8 -> mgr.mem.Memio.read_word addr
  | _ ->
    let x = ref 0L in
    for k = size - 1 downto 0 do
      x := Int64.logor (Int64.shift_left !x 8)
             (Int64.of_int (mgr.mem.Memio.read_byte (addr + k)))
    done;
    !x

let plain_store mgr addr size v =
  match size with
  | 8 -> mgr.mem.Memio.write_word addr v
  | _ ->
    for k = 0 to size - 1 do
      mgr.mem.Memio.write_byte (addr + k)
        (Int64.to_int (Int64.shift_right_logical v (8 * k)) land 0xff)
    done

let spec_load mgr (td : Thread_data.t) ~addr ~size =
  td.pending_loads <- td.pending_loads + 1;
  if Local_buffer.in_own_stack td.lbuf addr then begin
    tick mgr td mgr.cfg.cost.mem;
    plain_load mgr addr size
  end
  else if registered mgr addr size then begin
    if td.expand then begin
      (* Level-1 Expand: the store-free analysis proved the region
         performs no shared stores during the fork window, so the read
         goes straight to memory at plain cost — no read-set tracking,
         nothing to validate, nothing to overflow *)
      tick mgr td mgr.cfg.cost.mem;
      plain_load mgr addr size
    end
    else if (not td.is_main) && inject mgr Fault.Buffer_overflow then
      rollback_overflow mgr td
    else if
      (not td.is_main)
      && Global_buffer.spill_capacity td.gbuf > 0
      && inject mgr Fault.Spill_exhaust
    then rollback_overflow mgr td
    else
      let parks0 = Global_buffer.parks td.gbuf in
      let spills0 = Global_buffer.spills td.gbuf in
      match Global_buffer.read td.gbuf mgr.mem addr size with
      | v, hit ->
        td.buffered <- td.buffered + 1;
        tick mgr td (if hit then mgr.cfg.cost.spec_hit else mgr.cfg.cost.spec_miss);
        note_pressure mgr td ~parks0 ~spills0;
        v
      | exception Global_buffer.Overflow ->
        rollback_overflow mgr td
          ~spill_cap:(Global_buffer.spill_capacity td.gbuf)
  end
  else begin
    td.bad_access <- true;
    rollback_self mgr td ~reason:Trace.Bad_access ~kill_subtree:false
  end

let spec_store mgr (td : Thread_data.t) ~addr ~size v =
  td.pending_stores <- td.pending_stores + 1;
  if Local_buffer.in_own_stack td.lbuf addr then begin
    tick mgr td mgr.cfg.cost.mem;
    plain_store mgr addr size v
  end
  else if registered mgr addr size then begin
    if td.expand then begin
      (* Dynamic backstop for the Expand judgement: the static analysis
         said this region never stores to shared memory, yet it did.
         Demote the point (it will never Expand again) and roll back —
         no buffered state exists, so nothing has escaped. *)
      Policy.on_expand_store mgr.policy ~point:td.fork_point;
      td.bad_access <- true;
      rollback_self mgr td ~reason:Trace.Bad_access ~kill_subtree:false
    end
    else if (not td.is_main) && inject mgr Fault.Buffer_overflow then
      rollback_overflow mgr td
    else if
      (not td.is_main)
      && Global_buffer.spill_capacity td.gbuf > 0
      && inject mgr Fault.Spill_exhaust
    then rollback_overflow mgr td
    else
      let parks0 = Global_buffer.parks td.gbuf in
      let spills0 = Global_buffer.spills td.gbuf in
      match Global_buffer.write td.gbuf mgr.mem addr size v with
      | hit ->
        td.buffered <- td.buffered + 1;
        tick mgr td (if hit then mgr.cfg.cost.spec_hit else mgr.cfg.cost.spec_miss);
        note_pressure mgr td ~parks0 ~spills0
      | exception Global_buffer.Overflow ->
        rollback_overflow mgr td
          ~spill_cap:(Global_buffer.spill_capacity td.gbuf)
  end
  else begin
    td.bad_access <- true;
    rollback_self mgr td ~reason:Trace.Bad_access ~kill_subtree:false
  end

(* --- synchronization points (speculative side) ------------------------ *)

(* Wait to be joined (terminate points, barriers, conflicts).  Never
   returns normally unless the verdict allows continuing. *)
let await_join mgr (td : Thread_data.t) ~counter =
  flush mgr td;
  let t0 = mgr.exec.Exec.now () in
  let v = mgr.exec.Exec.wait td.sync_status in
  charge_elapsed mgr td Stats.Idle (mgr.exec.Exec.now () -. t0);
  if v = Thread_data.sync then commit_or_rollback mgr td ~counter
  else rollback_self mgr td ~reason:Trace.Abandoned ~kill_subtree:true

(* MUTLS_check_point: true = the parent wants to join; the caller saves
   live locals and then calls MUTLS_commit.  Only check points that
   stop the thread are traced — "continue" polls are the hot path. *)
let check_point mgr (td : Thread_data.t) ~counter =
  Stats.incr td.stats Stats.Checkpoints;
  if mgr.tele.on then Telemetry.incr mgr.tele.t_checkpoints;
  tick mgr td mgr.cfg.cost.check_point;
  match mgr.exec.Exec.peek td.sync_status with
  | Some s when s = Thread_data.nosync ->
    if tracing mgr then emit mgr td (Trace.Check { counter; stop = true });
    rollback_self mgr td ~reason:Trace.Abandoned ~kill_subtree:true
  | Some _ ->
    if tracing mgr then emit mgr td (Trace.Check { counter; stop = true });
    true
  | None ->
    (* Injected spurious rollback: poison the locals so the eventual
       validation fails stale-local — the same path a genuine local
       mismatch takes, so oracle invariants are preserved. *)
    if (not td.is_main) && inject mgr Fault.Spurious_rollback then
      td.local_invalid <- true;
    if Global_buffer.conflict_pending td.gbuf then begin
      (* hash conflict spilled to the temporary buffer: wait to be
         joined here (paper §IV-G2) *)
      Stats.incr td.stats Stats.Conflict_stalls;
      if tracing mgr then emit mgr td (Trace.Check { counter; stop = true });
      await_join mgr td ~counter
    end
    else false

(* MUTLS_commit: called after the check point's commit block saved the
   live locals. *)
let commit mgr (td : Thread_data.t) ~counter = commit_or_rollback mgr td ~counter

(* MUTLS_terminate_point: speculation cannot proceed past this point. *)
let terminate_point mgr (td : Thread_data.t) ~counter = await_join mgr td ~counter

(* MUTLS_barrier_point: stop only at the speculative entry level. *)
let barrier_point mgr (td : Thread_data.t) ~counter =
  if Local_buffer.depth td.lbuf <= 1 then begin
    if tracing mgr then emit mgr td (Trace.Barrier { counter });
    (await_join mgr td ~counter : unit)
  end

(* MUTLS_ptr_int_cast: pointer/integer casts are only safe for values
   inside the registered global address space. *)
let ptr_int_cast mgr (td : Thread_data.t) ~counter value =
  if
    Address_space.contains mgr.addr_space value
    || Local_buffer.in_own_stack td.lbuf value
  then ()
  else begin
    if tracing mgr then emit mgr td (Trace.Barrier { counter });
    await_join mgr td ~counter
  end

(* MUTLS_enter_point / MUTLS_return_point: explicit stack frame
   tracking for reconstruction (§IV-H). *)
let enter_point mgr (td : Thread_data.t) ~counter =
  tick mgr td mgr.cfg.cost.call;
  (Local_buffer.top td.lbuf).counter <- counter;
  ignore (Local_buffer.push_frame td.lbuf)

let return_point mgr (td : Thread_data.t) ~counter =
  tick mgr td mgr.cfg.cost.call;
  if Local_buffer.depth td.lbuf <= 1 then (await_join mgr td ~counter : unit)
  else Local_buffer.pop_frame td.lbuf

(* --- commit-time local save (speculative side) ------------------------ *)

let save_regvar mgr (td : Thread_data.t) ~off value =
  tick mgr td mgr.cfg.cost.per_local;
  Local_buffer.set_reg (Local_buffer.top td.lbuf) td.lbuf off value

let save_stackvar mgr (td : Thread_data.t) ~off ~addr ~size =
  tick mgr td (mgr.cfg.cost.per_local +. float_of_int size *. 0.25);
  Local_buffer.save_stackvar td.lbuf (Local_buffer.top td.lbuf)
    ~read_byte:mgr.mem.Memio.read_byte ~off ~addr ~size

(* --- join (parent side, §IV-E/F) -------------------------------------- *)

(* MUTLS_validate_local: compare the parent's live value at the join
   point with the value speculated at fork time. *)
let validate_local mgr (parent : Thread_data.t) ~rank ~point ~off value =
  charge mgr parent (join_cat parent) mgr.cfg.cost.per_local;
  let found = ref None in
  Stack.iter
    (fun (c : Thread_data.t) ->
      if !found = None && c.rank = rank && c.fork_point = point then found := Some c)
    parent.children;
  match !found with
  | None -> ()
  | Some child ->
    (* Learn the stride between the original fork-time value and the
       actual value at the join, so the next speculation on this point
       predicts correctly (accumulators, induction variables). *)
    (if mgr.cfg.value_prediction then
       match (Local_buffer.get_fork_orig child.lbuf off, value) with
       | Some (Local_buffer.Vi orig), Local_buffer.Vi actual ->
         with_aux mgr (fun () ->
             Hashtbl.replace mgr.strides (child.fork_point, off)
               (Int64.sub actual orig))
       | _ -> ());
    (match Local_buffer.get_fork_reg child.lbuf off with
    | v when v = value -> ()
    | _ -> child.local_invalid <- true
    (* an unset slot is misspeculation; Invalid_argument (offset out of
       range) is genuine API misuse and propagates *)
    | exception Local_buffer.Unset _ -> child.local_invalid <- true)

(* Pop children until the expected one is found, NOSYNCing mismatches
   and their subtrees; inherit the joined child's children. *)
let synchronize mgr (parent : Thread_data.t) ~point ~rank =
  charge mgr parent (join_cat parent) mgr.cfg.cost.sync_fixed;
  let rec pop_until () =
    if Stack.is_empty parent.children then None
    else begin
      let c = Stack.pop parent.children in
      if
        c.rank = rank && c.fork_point = point
        && mgr.exec.Exec.peek c.sync_status = None
        (* injected NOSYNC: treat the matching child as a mismatch *)
        && not (inject mgr Fault.Nosync_join)
      then Some c
      else begin
        nosync_subtree mgr c;
        pop_until ()
      end
    end
  in
  (* Popping under the lock removes the child from every path an
     ancestor's NOSYNC sweep could reach it by, so the SYNC request
     below (outside the lock — it precedes a wait) cannot race a
     concurrent NOSYNC on the same flag. *)
  match with_lock mgr pop_until with
  | None -> false
  | Some child ->
    let verdict =
      match mgr.exec.Exec.peek child.valid_status with
      | Some v -> v (* unilateral rollback already decided *)
      | None ->
        mgr.exec.Exec.set child.sync_status Thread_data.sync;
        let t0 = mgr.exec.Exec.now () in
        let v = mgr.exec.Exec.wait child.valid_status in
        charge_elapsed mgr parent (join_cat parent)
          (mgr.exec.Exec.now () -. t0);
        v
    in
    (* Inherit grandchildren only now that the child has stopped: it
       may have been joining or forking until the moment it noticed the
       synchronization request.  They represent execution following the
       child's region and are joined by this thread next, whatever the
       child's verdict (local conflicts do not incur global rollbacks).
       Under the Linear_cascade ablation, a rolled-back child squashes
       its whole subtree instead — the behaviour of previous linear
       mixed-model systems the paper improves on. *)
    with_lock mgr (fun () ->
        if
          mgr.cfg.cascade = Config.Linear_cascade
          && verdict <> Thread_data.commit
        then Stack.iter (nosync_subtree mgr) child.children
        else begin
          let inherited = ref [] in
          while not (Stack.is_empty child.children) do
            inherited := Stack.pop child.children :: !inherited
          done;
          List.iter
            (fun (g : Thread_data.t) ->
              g.parent <- Some parent;
              Stack.push g parent.children)
            !inherited
        end);
    let committed = verdict = Thread_data.commit in
    if mgr.tele.on then
      Telemetry.incr
        (if committed then mgr.tele.t_joins_ok else mgr.tele.t_joins_fail);
    if tracing mgr then
      emit mgr parent (Trace.Join { child = child.id; committed });
    if committed then begin
      match Local_buffer.frames_bottom_up child.lbuf with
      | [] -> invalid_arg "Thread_manager.synchronize: no frames"
      | bottom :: rest ->
        parent.restore <-
          Some { Thread_data.r_pending = rest; r_cur = bottom; r_mappings = [] };
        parent.last_sync_counter <- bottom.Local_buffer.counter;
        parent.last_sync_rank <- child.rank;
        true
    end
    else false

(* --- restore (parent side, after a successful join) ------------------- *)

let restore_state_exn (parent : Thread_data.t) =
  match parent.restore with
  | Some r -> r
  | None -> invalid_arg "Thread_manager: restore outside of a join"

let restore_regvar mgr (parent : Thread_data.t) ~off ~is_ptr =
  charge mgr parent (join_cat parent) mgr.cfg.cost.per_local;
  let r = restore_state_exn parent in
  let v = Local_buffer.get_reg r.Thread_data.r_cur parent.lbuf off in
  if is_ptr then
    match v with
    | Local_buffer.Vi addr -> (
      match Thread_data.map_pointer r (Int64.to_int addr) with
      | Some mapped -> Local_buffer.Vi (Int64.of_int mapped)
      | None -> v)
    | Local_buffer.Vf _ -> v
  else v

(* Copy a saved nested-frame stack variable into the parent's fresh
   alloca and record the pointer mapping.  Bottom-frame variables were
   updated in place through the GlobalBuffer and need no copy. *)
let restore_stackvar mgr (parent : Thread_data.t) ~off ~addr ~size =
  charge mgr parent (join_cat parent)
    (mgr.cfg.cost.per_local +. (float_of_int size *. 0.25));
  let r = restore_state_exn parent in
  match Local_buffer.find_stackvar r.Thread_data.r_cur off with
  | None -> ()
  | Some sv -> (
    match sv.Local_buffer.sv_data with
    | None -> () (* in-place bottom-frame variable *)
    | Some data ->
      for k = 0 to sv.Local_buffer.sv_size - 1 do
        mgr.mem.Memio.write_byte (addr + k) (Char.code (Bytes.get data k))
      done;
      r.Thread_data.r_mappings <-
        (sv.Local_buffer.sv_spec_addr, addr, sv.Local_buffer.sv_size)
        :: r.Thread_data.r_mappings)

(* MUTLS_sync_entry: stack-frame reconstruction dispatch at the top of
   every non-speculative function reachable from a speculative one.
   Returns 0 for normal entry, otherwise the synchronization counter of
   the next recorded frame. *)
let sync_entry mgr (parent : Thread_data.t) =
  match parent.restore with
  | None -> 0
  | Some r -> (
    match r.Thread_data.r_pending with
    | [] -> 0
    | f :: rest ->
      charge mgr parent (join_cat parent) mgr.cfg.cost.call;
      r.Thread_data.r_cur <- f;
      r.Thread_data.r_pending <- rest;
      f.Local_buffer.counter)

(* --- end of program --------------------------------------------------- *)

(* The main thread finished: any still-live speculative thread is
   abandoned (its region was re-executed or never needed). *)
let shutdown mgr =
  flush mgr mgr.main;
  with_lock mgr (fun () ->
      Stack.iter (nosync_subtree mgr) mgr.main.children;
      Stack.clear mgr.main.children);
  if mgr.tele.on then begin
    Telemetry.set mgr.tele.t_vtime (mgr.exec.Exec.now ());
    Telemetry.set mgr.tele.t_live_spec (float_of_int mgr.live_spec);
    Telemetry.set mgr.tele.t_degraded
      (if Policy.degraded mgr.policy then 1.0 else 0.0)
  end;
  if tracing mgr then emit mgr mgr.main Trace.Run_end
