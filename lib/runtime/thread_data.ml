(* ThreadData (paper §IV): per-thread speculation state.  The two
   one-shot flags mirror the paper's volatile sync_status /
   valid_status variables; the children stack implements the tree-form
   mixed forking model of §IV-F. *)

let sync = 1
let nosync = 2
let commit = 1
let rollback = 2

type t = {
  id : int; (* globally unique; disambiguates rank reuse *)
  rank : int; (* virtual CPU, 1..ncpus; 0 for the non-speculative thread *)
  fork_point : int; (* fork/join point id this thread speculates on *)
  is_main : bool;
  sync_status : Exec.flag; (* NULL -> SYNC | NOSYNC *)
  valid_status : Exec.flag; (* NULL -> COMMIT | ROLLBACK *)
  children : t Stack.t;
  gbuf : Global_buffer.t;
  lbuf : Local_buffer.t;
  stats : Stats.t;
  mutable alive : bool;
  mutable local_invalid : bool; (* failed MUTLS_validate_local *)
  mutable bad_access : bool; (* touched an unregistered address *)
  mutable commit_counter : int; (* sync block where the thread stopped *)
  mutable restore : restore option; (* set on the PARENT after a commit *)
  mutable entry_counter : int; (* join point block for speculative entry *)
  mutable acc_cost : float; (* locally accumulated, not yet advanced *)
  mutable pending_loads : int; (* Loads/Stores bumps batched like *)
  mutable pending_stores : int; (* [acc_cost]; folded into [stats] at flush *)
  mutable parent : t option; (* current parent; updated on inheritance *)
  mutable last_sync_counter : int; (* result of the last MUTLS_synchronize *)
  mutable last_sync_rank : int;
  mutable expand : bool; (* Level-1 Expand thread: no GlobalBuffer tracking *)
  mutable buffered : int; (* GlobalBuffer-tracked accesses (0 for Expand) *)
}

and restore = {
  mutable r_pending : Local_buffer.frame list; (* frames not yet entered *)
  mutable r_cur : Local_buffer.frame;
  mutable r_mappings : (int * int * int) list; (* spec addr, parent addr, size *)
}

(* [new_flag] comes from the manager's execution layer (Exec.t), so a
   thread's flags match the engine that will wait on them. *)
let create ~gbuf ~new_flag ~id ~rank ~fork_point ~is_main ~max_locals () =
  {
    id;
    rank;
    fork_point;
    is_main;
    sync_status = new_flag ();
    valid_status = new_flag ();
    children = Stack.create ();
    gbuf;
    lbuf = Local_buffer.create ~max_locals;
    stats = Stats.create ();
    alive = true;
    local_invalid = false;
    bad_access = false;
    commit_counter = 0;
    restore = None;
    entry_counter = 0;
    acc_cost = 0.0;
    pending_loads = 0;
    pending_stores = 0;
    parent = None;
    last_sync_counter = 0;
    last_sync_rank = 0;
    expand = false;
    buffered = 0;
  }

(* Map a pointer value through the parent-side stack mapping table
   (paper §IV-G3): a committed pointer into the speculative stack must
   be redirected to the corresponding non-speculative variable. *)
let map_pointer restore_state addr =
  let rec go = function
    | [] -> None
    | (spec, parent, size) :: rest ->
      if addr >= spec && addr < spec + size then Some (parent + (addr - spec))
      else go rest
  in
  go restore_state.r_mappings
