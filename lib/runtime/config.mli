(** Runtime configuration: forking model selection, buffer sizing,
    rollback injection (paper Fig. 11), ablation switches, and the
    virtual-time cost model that substitutes for the paper's 64-core
    AMD Opteron.  Costs are abstract "cycles"; only their ratios shape
    the speedup curves (see DESIGN.md). *)

(** The three forking models of paper §II. *)
type model = In_order | Out_of_order | Mixed

(** Ablation of the paper's central design choice (§IV-F): tree-form
    cascading confines rollbacks to a subtree; the linear mode models
    previous mixed-model systems where a rollback squashes every
    logically-later thread. *)
type cascade = Tree_cascade | Linear_cascade

val model_to_string : model -> string
val model_of_int : int -> model
(** 0 = mixed, 1 = in-order, 2 = out-of-order (the encoding used by the
    front-end builtins). *)

val model_to_int : model -> int
val cascade_to_string : cascade -> string

(** Structured fork-decision strategy: which policy engine drives
    per-fork-point decisions (see {!Mutls_runtime.Policy}) and its
    tuning knobs. *)
module Policy : sig
  type kind =
    | Static
        (** today's behaviour: fixed fork model, optional exponential
            backoff and overflow degrade — byte-identical traces *)
    | Adaptive
        (** closed-loop per-fork-point engine returning
            Deny / Expand / Speculate from streaming payoff statistics *)
    | Hostile
        (** chaos-harness adversary rotating worst-case decisions;
            exercises mechanism-level safety gates *)

  val kind_to_string : kind -> string

  val kind_of_string : string -> kind
  (** @raise Invalid_argument on an unknown name. *)

  type t = {
    kind : kind;
    backoff : bool;  (** static: per-point exponential fork veto *)
    degrade_after : int;
        (** overflow streak before permanent sequential degrade; 0 off *)
    deny_after : int;
        (** adaptive: consecutive rollbacks at a point before it is
            denied; 0 disables streak denial *)
    reprobe_after : int;
        (** adaptive: denied fork requests at a point before one probe
            fork is allowed through again *)
    expand : bool;
        (** adaptive: allow Level-1 (store-free, unbuffered) Expand
            forks where the static analysis proves them safe *)
    payoff_threshold : float;
        (** adaptive: deny a point whose wasted-work ratio exceeds this
            (the profiler advisor's criterion, applied online) *)
    min_samples : int;
        (** adaptive: retired threads required before the payoff
            criterion applies *)
  }

  val default : t
  (** [Static] with backoff and degrade off — the seed behaviour. *)

  val static : ?backoff:bool -> ?degrade_after:int -> unit -> t

  val adaptive :
    ?deny_after:int ->
    ?reprobe_after:int ->
    ?expand:bool ->
    ?payoff_threshold:float ->
    ?min_samples:int ->
    ?degrade_after:int ->
    unit ->
    t

  val hostile : unit -> t

  val validate : t -> unit
  (** @raise Invalid_argument on the first violated constraint. *)
end

(** Structured memory-system geometry: home-map size, sharding, the
    graceful spill tier and bulk line granularity of the speculative
    GlobalBuffer (see {!Mutls_runtime.Global_buffer}). *)
module Buffers : sig
  type t = {
    slots : int;
        (** total home-map slots, a power of two, split evenly across
            the shards *)
    temp_slots : int;
        (** park-buffer entries absorbing hash conflicts when the spill
            tier is off *)
    shards : int;
        (** power-of-two shard count; address ranges interleave across
            shards at 64-byte line granularity, each shard keeping its
            own last-slot read and write caches *)
    spill_slots : int;
        (** spill-tier capacity, a power of two: an associative
            overflow region that absorbs hash conflicts at a traced
            latency penalty instead of parking or raising, with
            [Global_buffer.Overflow] reserved for true tier
            exhaustion.  [0] (the default) turns the tier off and
            restores the seed park-then-[Overflow] behaviour *)
    line_words : int;
        (** bulk validate/commit granularity in words: [1] processes
            the insertion-order stack per word (seed behaviour), [8]
            validates and commits fully-resident 64-byte lines with
            whole-line mark checks *)
  }

  val default : t
  (** [2^16] home slots, 64 park entries, one shard, spill tier off,
      per-word validate/commit — the seed behaviour. *)

  val make :
    ?slots:int ->
    ?temp_slots:int ->
    ?shards:int ->
    ?spill_slots:int ->
    ?line_words:int ->
    unit ->
    t

  val validate : t -> unit
  (** @raise Invalid_argument on the first violated constraint. *)
end

(** Virtual-cycle costs of the runtime's operations. *)
type cost = {
  instr : float;  (** base cost of one IR instruction *)
  mem : float;  (** additional cost of an unbuffered load/store *)
  spec_hit : float;  (** buffered access hitting an existing entry *)
  spec_miss : float;  (** buffered access inserting a new entry *)
  fork : float;  (** MUTLS_speculate: thread creation and hand-off *)
  find_cpu : float;  (** MUTLS_get_CPU rank search *)
  per_local : float;  (** saving or restoring one local variable *)
  validate_word : float;  (** validating one read-set word *)
  commit_word : float;  (** committing one write-set word *)
  finalize_word : float;  (** clearing one buffer slot *)
  check_point : float;  (** polling the sync flag *)
  sync_fixed : float;  (** fixed synchronization handshake cost *)
  call : float;  (** function call/return overhead *)
  spill : float;
      (** latency penalty per spill-tier insertion — the price of a
          GlobalBuffer capacity miss that no longer squashes *)
}

val default_cost : cost

type t = {
  ncpus : int;
      (** total CPUs, as on the paper's x-axis: one runs the
          non-speculative thread, the rest host speculation *)
  domains : int;
      (** hardware parallelism of the domains backend
          ([Mutls_par.Sched]): OCaml 5 domains the parallel scheduler
          spreads the [ncpus] virtual CPUs' fibers over (work stealing
          multiplexes when [domains < ncpus]).  Ignored by the
          deterministic simulator.  Default [1]. *)
  cost : cost;
  max_locals : int;  (** RegisterBuffer static array size *)
  model_override : model option;
      (** force every fork point to one model (Fig. 10) *)
  rollback_probability : float;
      (** injected validation failures (Fig. 11) *)
  seed : int;  (** deterministic stream for the injection *)
  quantum : float;  (** interpreter yield granularity, virtual cycles *)
  cascade : cascade;
  value_prediction : bool;
      (** §VI future work: stride prediction of fork-time locals *)
  trace_sink : Mutls_obs.Trace.sink;
      (** destination of the runtime's typed event trace;
          [Mutls_obs.Trace.null] (the default) keeps tracing disabled
          at near-zero cost.  The library never reads the process
          environment. *)
  telemetry : Mutls_obs.Telemetry.t;
      (** always-on metrics registry the runtime records into;
          defaults to the process-wide [Telemetry.default].  Pass
          [Telemetry.disabled] to switch recording off, or a fresh
          [Telemetry.create ()] to scope measurements to one run.
          Unlike [trace_sink], telemetry never charges virtual time
          and never touches the injection RNG, so it cannot perturb
          traces or timings. *)
  fault : Fault.plan option;
      (** chaos testing: deterministic fault injection at the runtime's
          failure sites (see {!Fault}); [None] (the default) disables
          injection entirely *)
  policy : Policy.t;
      (** the fork-decision strategy; [Policy.default] (static, no
          backoff, no degrade) preserves seed behaviour and traces *)
  buffers : Buffers.t;
      (** the memory-system geometry; [Buffers.default] preserves seed
          behaviour and traces *)
}

val default : t

val effective_buffers : t -> Buffers.t
(** [t.buffers]: the geometry every GlobalBuffer of a run is sized
    from.  The benchmark harness reads it through this name. *)

val validate : t -> unit
(** Reject malformed configurations up front — [1 <= ncpus <= 1024],
    [1 <= domains <= 128], [buffers.slots] a positive power of two,
    non-negative sizes, rates and costs, probabilities in [[0, 1]] —
    with a field-specific message instead of failing deep inside
    [Global_buffer.create] (or spawning a thousand domains).  Called by
    [Thread_manager.create].
    @raise Invalid_argument on the first violated constraint. *)
