(** Speculation policy engine: the pure fork-decision core behind a
    narrow interface, so Thread_manager keeps only mechanism
    (fork/validate/commit/rollback) and strategy is pluggable.

    One MUTLS_get_CPU request yields one {!decision}; the runtime feeds
    commit/rollback/overflow/retire notifications back.  The three STU
    levels map onto the decisions: level 0 (bypass) is {!Deny}, level 1
    (zero-risk parallelism) is {!Expand}, level 2 (full optimistic
    speculation) is {!Speculate}.

    Safety is layered: a policy may {i request} [Expand], but the
    Thread_manager only honours it where the static store-free analysis
    marked the fork point expandable and the parent's view equals main
    memory (parent is the main thread or itself an Expand thread) —
    a hostile policy cannot break soundness, only performance. *)

(** What to do with one fork request. *)
type decision =
  | Deny  (** no speculation here now (backoff veto, hopeless point) *)
  | Expand
      (** Level-1 store-free region: plain-cost accounting, no
          GlobalBuffer read/write-set tracking *)
  | Speculate of Config.model  (** Level-2, under the given fork model *)

type request = {
  rq_point : int;  (** fork point id *)
  rq_model : Config.model;
      (** the requested model, after [Config.model_override] *)
  rq_expandable : bool;
      (** the static analysis proved the enclosing region store-free *)
  rq_parent_main : bool;  (** requester is the non-speculative thread *)
  rq_parent_expand : bool;  (** requester is itself an Expand thread *)
}

(** A scheduling event for the trace ([Trace.Sched {what; info}]);
    returned by feedback hooks so state updates stay independent of
    whether tracing is enabled. *)
type event = { ev_what : string; ev_info : int }

(** Memory-pressure severity reported through {!on_overflow}: a [Park]
    is a hash conflict absorbed by the GlobalBuffer's temporary buffer,
    a [Spill] is a spill-tier insertion (latency penalty, no squash),
    and [Exhaust] is true overflow-region exhaustion — the only level
    that forces a rollback, and the only one the shipped policies count
    against their degrade streak. *)
type pressure = Park | Spill | Exhaust

type t
(** A policy instance.  Stateful: one per Thread_manager. *)

val make :
  ?on_commit:(point:int -> unit) ->
  ?on_rollback:(point:int -> event option) ->
  ?on_overflow:(point:int -> pressure:pressure -> event option) ->
  ?on_retire:(point:int -> committed:float -> wasted:float -> event option) ->
  ?on_expand_store:(point:int -> unit) ->
  ?degraded:(unit -> bool) ->
  name:string ->
  (request -> decision) ->
  t
(** Build a custom policy from a decision function and optional
    feedback hooks (all default to no-ops).  The shipped policies are
    ordinary [make] clients. *)

val name : t -> string

val decide : t -> request -> decision
(** Consulted once per MUTLS_get_CPU (after the mechanism-level
    doomed/fork-model checks). *)

val on_commit : t -> point:int -> unit
(** A thread forked at [point] validated and committed. *)

val on_rollback : t -> point:int -> event option
(** A genuine misspeculation at [point] (conflict, stale local,
    overflow, bad access — not an abandoned subtree). *)

val on_overflow : t -> point:int -> pressure:pressure -> event option
(** Memory-pressure feedback at [point].  [Exhaust] means a
    buffer-overflow rollback is about to happen and is called in
    addition to {!on_rollback} (which does the per-point counting —
    this hook tracks global resource pressure only); [Park] and
    [Spill] are graceful notifications that carry no rollback. *)

val on_retire : t -> point:int -> committed:float -> wasted:float -> event option
(** A thread forked at [point] retired with the given committed
    (useful) and rollback-discarded cycles. *)

val on_expand_store : t -> point:int -> unit
(** An Expand thread attempted a store to registered memory: the
    static store-free judgement was optimistic at runtime (the dynamic
    backstop rolled the thread back); the point must not Expand
    again. *)

val degraded : t -> bool
(** The policy has permanently fallen back to sequential execution. *)

(** {1 Shipped policies} *)

val static : Config.Policy.t -> t
(** The seed behaviour, verbatim: per-fork-point exponential backoff
    ([backoff]) and global overflow degrade ([degrade_after]) with the
    exact event order and arithmetic of the pre-policy Thread_manager —
    static-policy traces are byte-identical with the seed. *)

val adaptive : Config.Policy.t -> t
(** Closed-loop per-point engine: [deny_after] consecutive rollbacks
    deny a point, a denied point re-probes after [reprobe_after]
    requests, the profiler-advisor payoff criterion
    ([payoff_threshold] over [min_samples] retires) denies online, and
    store-free points run at Level 1 until a dynamic store demotes
    them.  Rollback streaks are counted once (the engine owns both the
    backoff-successor and advisor-successor logic). *)

val hostile : unit -> t
(** Chaos-harness adversary rotating worst-case decisions (spurious
    Deny, forced in-order, Expand everywhere); exercises the
    mechanism-level safety gates. *)

val of_config : Config.t -> t
(** Instantiate from [cfg.policy]. *)
