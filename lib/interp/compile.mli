(** The compiled MIR execution engine: prepare once, run many.

    [compile] lowers each function once into dense arrays — blocks
    indexed by int, registers, arguments and constants placed on two
    untagged register banks (int and float), phi nodes lowered to
    per-predecessor-edge parallel moves, switches to sorted arrays
    with binary search, and callees (including the interned MUTLS_*
    runtime calls) classified once at compile time.  Per-op cost ticks
    are pre-materialized per straight-line segment and committed in
    one accumulator write whenever no quantum flush can land inside
    the segment ({!Mutls_runtime.Thread_manager.tick_batch}), which
    preserves the reference interpreter's exact flush/yield/trace
    sequence — see DESIGN.md, "Execution engine".

    Errors raise {!Ops.Trap}, with the same messages and at the same
    execution points as the reference interpreter ({!Reference}):
    malformed constructs compile to closures that trap when executed,
    never at compile time.  The one exception is a module whose
    registers and operands have no consistent static bank (IR that
    fails {!Mutls_mir.Verify.check_module}, or hand-built IR): it
    compiles, but {!call} on it traps with a message naming the
    function and the construct. *)

(** {1 Compiled programs} *)

type prog
(** A compiled module, reusable across runs.  The lowering bakes in a
    cost model; recompile to run under a different one. *)

val compile : ?cost:Mutls_runtime.Config.cost -> Mutls_mir.Ir.modul -> prog

val cost_of : prog -> Mutls_runtime.Config.cost
val modul_of : prog -> Mutls_mir.Ir.modul
val nglobals : prog -> int

(** {1 Execution} *)

(** Accounting mode: plain accumulation (sequential baseline) or the
    TLS runtime's quantum-flushed virtual time. *)
type mode =
  | Seq of seq_state
  | Tls of Mutls_runtime.Thread_manager.t * Mutls_runtime.Thread_data.t

and seq_state = { mutable seq_cost : float }

type ectx
(** Per-thread execution context: memory, mode, output buffer, stack
    window, and the per-run global-address cache. *)

val make_ectx :
  prog ->
  mem:Memory.t ->
  mode:mode ->
  out:Buffer.t ->
  sp:int ->
  stack_limit:int ->
  ectx

val call : ectx -> string -> Value.v array -> Value.v option
(** Execute a function by name.  Raises {!Ops.Trap} when the name is
    unknown or the module could not be lowered onto register banks. *)
