(** ThreadData (paper §IV): per-thread speculation state.  The two
    one-shot flags mirror the paper's volatile [sync_status] /
    [valid_status] variables; the children stack implements the
    tree-form mixed forking model of §IV-F. *)

(** Flag encodings. *)

val sync : int
val nosync : int
val commit : int
val rollback : int

type t = {
  id : int;  (** globally unique; disambiguates rank reuse *)
  rank : int;  (** virtual CPU, 1..ncpus-1; 0 = the non-speculative thread *)
  fork_point : int;  (** fork/join point id this thread speculates on *)
  is_main : bool;
  sync_status : Exec.flag;  (** NULL -> SYNC | NOSYNC *)
  valid_status : Exec.flag;  (** NULL -> COMMIT | ROLLBACK *)
  children : t Stack.t;
  gbuf : Global_buffer.t;
  lbuf : Local_buffer.t;
  stats : Stats.t;
  mutable alive : bool;
  mutable local_invalid : bool;  (** failed MUTLS_validate_local *)
  mutable bad_access : bool;  (** touched an unregistered address *)
  mutable commit_counter : int;  (** sync block where the thread stopped *)
  mutable restore : restore option;  (** set on the PARENT after a commit *)
  mutable entry_counter : int;  (** join-point block of the speculative entry *)
  mutable acc_cost : float;  (** locally accumulated, not yet advanced *)
  mutable pending_loads : int;
      (** {!Stats.Loads} bumps batched like [acc_cost], folded in at flush *)
  mutable pending_stores : int;
  mutable parent : t option;  (** current parent; updated on inheritance *)
  mutable last_sync_counter : int;  (** result of the last MUTLS_synchronize *)
  mutable last_sync_rank : int;
  mutable expand : bool;
      (** Level-1 Expand thread: reads go straight to memory, no
          GlobalBuffer read/write-set tracking (see {!Policy.Expand}) *)
  mutable buffered : int;
      (** GlobalBuffer-tracked accesses performed by this thread;
          asserted [0] for Expand threads *)
}

(** Stack-frame reconstruction state held by a parent while it
    re-descends a committed child's call chain (§IV-H). *)
and restore = {
  mutable r_pending : Local_buffer.frame list;
  mutable r_cur : Local_buffer.frame;
  mutable r_mappings : (int * int * int) list;
      (** speculative address, parent address, size *)
}

val create :
  gbuf:Global_buffer.t ->
  new_flag:(unit -> Exec.flag) ->
  id:int ->
  rank:int ->
  fork_point:int ->
  is_main:bool ->
  max_locals:int ->
  unit ->
  t
(** [gbuf] comes from the manager, which pools one GlobalBuffer per CPU
    rank, as in the paper, sized from [Config.buffers].  [new_flag]
    supplies the backend-specific flag representation (see {!Exec}). *)

val map_pointer : restore -> int -> int option
(** Map a committed pointer into the speculative stack to the
    corresponding non-speculative variable (§IV-G3). *)
