(** Typed event tracing for the TLS runtime.

    Every significant runtime transition — fork, speculation launch,
    check point, validation, commit, rollback, NOSYNC, buffer overflow,
    join, barrier — becomes a {!record}: a typed {!event} stamped with
    the virtual time of the simulation engine and the identity of the
    thread it happened on.  Records flow into a pluggable {!sink};
    select one through [Config.trace_sink] (library users) or
    [mutlsc run/bench --trace FILE] (CLI).  The library never reads
    the process environment. *)

(** {1 Event schema} *)

type rollback_reason =
  | Conflict  (** read-set validation failed against the parent's view *)
  | Stale_local  (** a fork-time register value went stale *)
  | Abandoned  (** NOSYNC: the speculated region was never needed *)
  | Buffer_overflow  (** GlobalBuffer temporary buffer exhausted *)
  | Bad_access  (** touched an address outside the registered space *)

val rollback_reason_to_string : rollback_reason -> string
val rollback_reason_of_string : string -> rollback_reason option

type event =
  | Fork of { child : int; child_rank : int; point : int }
  | Speculate of { child_rank : int; counter : int }
  | Check of { counter : int; stop : bool }
      (** only check points that stop the thread are traced — polls
          that return "continue" are the hot path *)
  | Validate of { words : int; ok : bool; addr : int option }
      (** [addr] is the first conflicting word address when the failure
          came from memory state ([None] for stale-local or injected
          failures, and in traces written before the enrichment) *)
  | Commit of { words : int; counter : int }
  | Rollback of { reason : rollback_reason; point : int }
      (** [point] is the rolled-back thread's fork point ([-1] in
          traces written before the enrichment), attributing every
          rollback to the speculation decision that caused it *)
  | Nosync of { point : int }
  | Overflow of { spill_cap : int }
      (** GlobalBuffer overflow-region exhaustion; a [Rollback] record
          follows.  [spill_cap] is the spill tier's capacity when the
          tier was enabled (emitted on the wire only then, so spill-off
          traces keep the old byte format); [-1] for spill-off
          overflows, injected overflows, and traces written before the
          spill tier existed *)
  | Join of { child : int; committed : bool }  (** parent-side verdict *)
  | Barrier of { counter : int }
  | Retire of { committed : bool; runtime : float; stats : (string * float) list }
      (** a speculative thread died; [stats] is [Stats.to_assoc] *)
  | Charge of { category : string; cost : float }
      (** virtual time charged to one accounting category; the stream
          of charges is what {!Report} folds into the paper's Fig. 8/9
          execution breakdowns *)
  | Park of { addr : int }
      (** GlobalBuffer hash conflict parked in the temporary buffer —
          the event traces written before the spill tier called
          "spill" (old files still read back as [Spill]) *)
  | Spill of { addr : int }
      (** GlobalBuffer spill-tier insertion: the access was absorbed at
          a latency penalty instead of parking or overflowing *)
  | Frame of { push : bool; depth : int }  (** LocalBuffer frame tracking *)
  | Sched of { what : string; info : int }  (** engine-level scheduling *)
  | Run_end  (** the non-speculative thread finished *)

type record = {
  time : float;  (** virtual cycles ([Mutls_sim.Engine] clock) *)
  thread : int;  (** thread id; [-1] for engine-level records *)
  rank : int;  (** virtual CPU; 0 is the non-speculative thread *)
  main : bool;
  event : event;
}

val event_name : event -> string

(** {1 Serialisation} *)

exception Schema_error of string

val record_to_json : record -> Json.t
val record_of_json : Json.t -> record
(** @raise Schema_error on unknown events or missing fields. *)

val record_to_jsonl : record -> string
(** One compact JSON object, without the trailing newline. *)

val record_of_jsonl : string -> record
(** @raise Schema_error on malformed input. *)

val pretty_line : record -> string

(** {1 Sinks} *)

type sink = {
  enabled : bool;
      (** [false] only for {!null}: call sites skip building the record
          entirely, keeping disabled tracing near-free *)
  emit : record -> unit;
  close : unit -> unit;
}

val emit : sink -> record -> unit
(** No-op when the sink is disabled. *)

val close : sink -> unit
(** Flush and finish the sink's output (writes the Chrome footer). *)

val null : sink

val tee : sink list -> sink
(** Broadcast to every enabled sink in the list. *)

val synchronized : sink -> sink
(** Serialise [emit]/[close] behind a mutex, making a single-emitter
    sink safe for the parallel backend's domains.  Record order across
    domains is whatever the schedule produced.  Returns a disabled sink
    unchanged. *)

(** {2 Ring buffer}

    Bounded in-memory sink: keeps the newest [capacity] records,
    dropping the oldest first. *)

type ring

val ring : capacity:int -> ring
val ring_sink : ring -> sink
val ring_records : ring -> record list
(** Oldest to newest. *)

val ring_length : ring -> int
val ring_dropped : ring -> int

(** {2 Writer-backed sinks}

    Each takes a [write] function ([output_string oc],
    [Buffer.add_string b], ...) so callers own channel lifetime. *)

val pretty : ?charges:bool -> (string -> unit) -> sink
(** Human-readable, one line per event.  [charges] (default [false])
    also prints the high-volume per-category time charges. *)

val stderr_pretty : ?charges:bool -> unit -> sink
(** {!pretty} on stderr, flushed per line. *)

val jsonl : (string -> unit) -> sink
(** JSON Lines, the format {!Report} and [mutlsc report] consume. *)

val chrome : (string -> unit) -> sink
(** Chrome trace_event JSON, loadable in chrome://tracing / Perfetto:
    one lane per virtual CPU, charges as duration slices, lifecycle
    events as instants.  {!close} writes the closing bracket — the
    output is valid JSON only after closing. *)
