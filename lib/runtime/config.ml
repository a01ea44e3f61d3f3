(* Runtime configuration: forking model selection, buffer sizing,
   rollback injection (paper Fig. 11) and the virtual-time cost model
   that substitutes for the paper's 64-core AMD Opteron.  Costs are in
   abstract "cycles"; only ratios matter for speedup shapes. *)

type model = In_order | Out_of_order | Mixed

(* Ablation of the paper's central design choice (§II, §IV-F): the
   tree-form mixed model confines cascading rollbacks to a subtree by
   letting the joining thread inherit a rolled-back child's children;
   previous mixed-model systems organised threads linearly, so a
   rollback squashes every logically-later thread. *)
type cascade = Tree_cascade | Linear_cascade

let cascade_to_string = function
  | Tree_cascade -> "tree"
  | Linear_cascade -> "linear" 

let model_to_string = function
  | In_order -> "in-order"
  | Out_of_order -> "out-of-order"
  | Mixed -> "mixed"

let model_of_int = function
  | 0 -> Mixed
  | 1 -> In_order
  | 2 -> Out_of_order
  | n -> invalid_arg (Printf.sprintf "Config.model_of_int: %d" n)

let model_to_int = function Mixed -> 0 | In_order -> 1 | Out_of_order -> 2

(* --- speculation policy ----------------------------------------------- *)

(* One sub-record describing the whole fork-decision strategy, built
   through smart constructors and validated with the rest of the
   configuration. *)

module Policy = struct
  type kind =
    | Static (* today's behaviour: fixed model, optional backoff/degrade *)
    | Adaptive (* closed-loop per-fork-point Deny/Expand/Speculate engine *)
    | Hostile (* chaos-harness adversary: rotates worst-case decisions *)

  let kind_to_string = function
    | Static -> "static"
    | Adaptive -> "adaptive"
    | Hostile -> "hostile"

  let kind_of_string = function
    | "static" -> Static
    | "adaptive" -> Adaptive
    | "hostile" -> Hostile
    | s -> invalid_arg (Printf.sprintf "Config.Policy.kind_of_string: %S" s)

  type t = {
    kind : kind;
    backoff : bool; (* per-point exponential fork veto (static engine) *)
    degrade_after : int; (* overflow streak before permanent degrade; 0 off *)
    deny_after : int; (* adaptive: rollback streak before Deny; 0 off *)
    reprobe_after : int; (* adaptive: denied requests before one re-probe *)
    expand : bool; (* adaptive: allow Level-1 store-free Expand forks *)
    payoff_threshold : float; (* adaptive: deny when wasted_ratio exceeds *)
    min_samples : int; (* adaptive: retires before payoff denial applies *)
  }

  let default =
    {
      kind = Static;
      backoff = false;
      degrade_after = 0;
      deny_after = 3;
      reprobe_after = 16;
      expand = true;
      payoff_threshold = 0.85;
      min_samples = 4;
    }

  let static ?(backoff = false) ?(degrade_after = 0) () =
    { default with kind = Static; backoff; degrade_after }

  let adaptive ?(deny_after = default.deny_after)
      ?(reprobe_after = default.reprobe_after) ?(expand = default.expand)
      ?(payoff_threshold = default.payoff_threshold)
      ?(min_samples = default.min_samples) ?(degrade_after = 0) () =
    {
      kind = Adaptive;
      backoff = false;
      degrade_after;
      deny_after;
      reprobe_after;
      expand;
      payoff_threshold;
      min_samples;
    }

  let hostile () = { default with kind = Hostile }

  let fail fmt = Printf.ksprintf invalid_arg fmt

  let validate p =
    if p.degrade_after < 0 then
      fail "Config.Policy.degrade_after must be non-negative (got %d)"
        p.degrade_after;
    if p.deny_after < 0 then
      fail "Config.Policy.deny_after must be non-negative (got %d)" p.deny_after;
    if p.reprobe_after < 1 then
      fail "Config.Policy.reprobe_after must be >= 1 (got %d)" p.reprobe_after;
    if not (p.payoff_threshold >= 0.0 && p.payoff_threshold <= 1.0) then
      fail "Config.Policy.payoff_threshold must be in [0, 1] (got %g)"
        p.payoff_threshold;
    if p.min_samples < 0 then
      fail "Config.Policy.min_samples must be non-negative (got %d)"
        p.min_samples
end

(* --- speculative buffer geometry --------------------------------------- *)

(* One sub-record describing the whole memory-system geometry —
   home-map size, sharding, the graceful spill tier, and bulk line
   granularity — built through a smart constructor and validated with
   the rest of the configuration, mirroring [Policy]. *)

module Buffers = struct
  type t = {
    slots : int; (* total home-map slots (power of two) *)
    temp_slots : int; (* park-buffer entries for hash conflicts *)
    shards : int; (* power-of-two shard count; address ranges interleave
                     across shards at line granularity *)
    spill_slots : int; (* spill-tier capacity (power of two); 0 turns the
                          tier off and restores park-then-Overflow *)
    line_words : int; (* bulk validate/commit granularity in words:
                         1 = per-word (seed), 8 = 64-byte lines *)
  }

  let default =
    { slots = 1 lsl 16; temp_slots = 64; shards = 1; spill_slots = 0;
      line_words = 1 }

  let make ?(slots = default.slots) ?(temp_slots = default.temp_slots)
      ?(shards = default.shards) ?(spill_slots = default.spill_slots)
      ?(line_words = default.line_words) () =
    { slots; temp_slots; shards; spill_slots; line_words }

  let fail fmt = Printf.ksprintf invalid_arg fmt

  let power_of_two n = n >= 1 && n land (n - 1) = 0

  let validate b =
    if not (power_of_two b.slots) then
      fail "Config.Buffers.slots must be a positive power of two (got %d)"
        b.slots;
    if b.temp_slots < 0 then
      fail "Config.Buffers.temp_slots must be non-negative (got %d)"
        b.temp_slots;
    if not (power_of_two b.shards) then
      fail "Config.Buffers.shards must be a positive power of two (got %d)"
        b.shards;
    if b.shards > b.slots then
      fail "Config.Buffers.shards must not exceed slots (got %d > %d)"
        b.shards b.slots;
    if b.spill_slots <> 0 && not (power_of_two b.spill_slots) then
      fail "Config.Buffers.spill_slots must be 0 or a positive power of two \
            (got %d)"
        b.spill_slots;
    if b.line_words <> 1 && b.line_words <> 8 then
      fail "Config.Buffers.line_words must be 1 or 8 (got %d)" b.line_words
end

type cost = {
  instr : float; (* base cost of one IR instruction *)
  mem : float; (* additional cost of an unbuffered load/store *)
  spec_hit : float; (* buffered access hitting an existing entry *)
  spec_miss : float; (* buffered access inserting a new entry *)
  fork : float; (* MUTLS_speculate: thread creation and hand-off *)
  find_cpu : float; (* MUTLS_get_CPU rank search *)
  per_local : float; (* saving or restoring one local variable *)
  validate_word : float; (* validating one read-set word *)
  commit_word : float; (* committing one write-set word *)
  finalize_word : float; (* clearing one buffer slot *)
  check_point : float; (* polling the sync flag *)
  sync_fixed : float; (* fixed synchronization handshake cost *)
  call : float; (* function call/return overhead *)
  spill : float; (* latency penalty per spill-tier insertion: the price
                    of a capacity miss that no longer squashes *)
}

let default_cost =
  {
    instr = 1.0;
    mem = 2.0;
    spec_hit = 2.0;
    spec_miss = 10.0;
    fork = 400.0;
    find_cpu = 15.0;
    per_local = 4.0;
    validate_word = 2.0;
    commit_word = 3.0;
    finalize_word = 0.5;
    check_point = 0.1;
    sync_fixed = 50.0;
    call = 4.0;
    spill = 20.0;
  }

type t = {
  ncpus : int; (* total CPUs as in the paper's x-axis: one runs the
                  non-speculative thread, the rest host speculation *)
  domains : int; (* hardware parallelism of the domains backend: OCaml 5
                    domains the parallel scheduler spreads the ncpus
                    virtual CPUs' fibers over (work stealing multiplexes
                    when domains < ncpus).  Ignored by the deterministic
                    simulator, which always runs on one systhread. *)
  cost : cost;
  max_locals : int; (* RegisterBuffer static array size *)
  model_override : model option; (* force all fork points to one model *)
  rollback_probability : float; (* injected validation failures, Fig. 11 *)
  seed : int; (* deterministic stream for injection *)
  quantum : float; (* interpreter yield granularity, virtual cycles *)
  cascade : cascade; (* tree-form (the paper) vs linear mixed model *)
  value_prediction : bool; (* §VI future work: stride prediction of
                              fork-time register values *)
  trace_sink : Mutls_obs.Trace.sink;
  (* Destination of the runtime's typed event trace; Trace.null (the
     default) keeps tracing disabled at near-zero cost.  The library
     never reads the process environment. *)
  telemetry : Mutls_obs.Telemetry.t;
  (* Always-on metrics registry the runtime records into; defaults to
     the process-wide Telemetry.default.  Pass Telemetry.disabled to
     switch recording off (the obs overhead benchmark's baseline) or a
     fresh Telemetry.create () to scope measurements to one run.
     Unlike trace_sink, telemetry never charges virtual time and never
     touches the injection RNG, so it cannot perturb traces. *)
  fault : Fault.plan option; (* chaos testing: deterministic fault
                                injection at the runtime's failure
                                sites; None (the default) disables it *)
  policy : Policy.t; (* the fork-decision strategy; see Config.Policy *)
  buffers : Buffers.t; (* the memory-system geometry; see Config.Buffers *)
}

let default =
  {
    ncpus = 4;
    domains = 1;
    cost = default_cost;
    max_locals = 256;
    model_override = None;
    rollback_probability = 0.0;
    seed = 42;
    quantum = 500.0;
    cascade = Tree_cascade;
    value_prediction = false;
    trace_sink = Mutls_obs.Trace.null;
    telemetry = Mutls_obs.Telemetry.default;
    fault = None;
    policy = Policy.default;
    buffers = Buffers.default;
  }

(* The geometry every GlobalBuffer of a run is sized from.  The
   benchmark harness (perfbench/harness.ml) reads it through this
   name. *)
let effective_buffers t = t.buffers

(* --- validation ------------------------------------------------------- *)

(* Reject malformed configurations up front with a field-specific
   message, instead of failing deep inside Global_buffer.create (or
   not at all).  Called by Thread_manager.create, so every TLS run is
   covered. *)

let fail fmt = Printf.ksprintf invalid_arg fmt

let check_cost (c : cost) =
  List.iter
    (fun (name, v) ->
      if not (v >= 0.0) then
        fail "Config.cost.%s must be non-negative (got %g)" name v)
    [ ("instr", c.instr); ("mem", c.mem); ("spec_hit", c.spec_hit);
      ("spec_miss", c.spec_miss); ("fork", c.fork); ("find_cpu", c.find_cpu);
      ("per_local", c.per_local); ("validate_word", c.validate_word);
      ("commit_word", c.commit_word); ("finalize_word", c.finalize_word);
      ("check_point", c.check_point); ("sync_fixed", c.sync_fixed);
      ("call", c.call); ("spill", c.spill) ]

(* Caps on the parallelism knobs: far above anything the paper's
   experiments use (64 CPUs), low enough to catch a units mistake (a
   byte count or a negative wrapped through an int parse) before it
   allocates ncpus stacks or spawns domains. *)
let max_ncpus = 1024
let max_domains = 128

let validate t =
  if t.ncpus < 1 then fail "Config.ncpus must be >= 1 (got %d)" t.ncpus;
  if t.ncpus > max_ncpus then
    fail "Config.ncpus must be <= %d (got %d)" max_ncpus t.ncpus;
  if t.domains < 1 then fail "Config.domains must be >= 1 (got %d)" t.domains;
  if t.domains > max_domains then
    fail "Config.domains must be <= %d (got %d)" max_domains t.domains;
  if t.max_locals < 1 then
    fail "Config.max_locals must be >= 1 (got %d)" t.max_locals;
  if not (t.rollback_probability >= 0.0 && t.rollback_probability <= 1.0) then
    fail "Config.rollback_probability must be in [0, 1] (got %g)"
      t.rollback_probability;
  if not (t.quantum > 0.0) then
    fail "Config.quantum must be positive (got %g)" t.quantum;
  Policy.validate t.policy;
  Buffers.validate t.buffers;
  check_cost t.cost;
  match t.fault with None -> () | Some plan -> Fault.validate_plan plan
