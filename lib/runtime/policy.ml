(* Speculation policy engine: the pure fork-decision core, extracted
   out of Thread_manager so that strategy (when to fork, at what level)
   and mechanism (how to fork, validate, commit, roll back) live behind
   a narrow interface.

   A policy is consulted once per MUTLS_get_CPU with a [request]
   describing the fork point and returns a [decision]:

   - [Deny]          — do not speculate here now (subsumes the old
                       backoff veto and degrade fallback);
   - [Expand]        — Level-1 "zero-risk" parallelism: the child runs
                       with plain-cost accounting and NO GlobalBuffer
                       read/write-set tracking, legal only where the
                       static store-free analysis proved the region
                       performs no shared stores (see DESIGN.md);
   - [Speculate m]   — Level-2 full speculation under fork model [m].

   Feedback flows the other way as commit/rollback/overflow/retire
   notifications; a notification may return an [event] which the
   Thread_manager maps onto a [Trace.Sched] record (state updates never
   depend on whether tracing is enabled).

   Three implementations ship: [static] replicates the seed behaviour
   exactly (per-point exponential backoff, global overflow degrade —
   byte-identical traces), [adaptive] is the closed-loop engine driven
   by the profiler's payoff arithmetic ({!Mutls_obs.Profile.Acc})
   applied in-process, and [hostile] is a chaos-harness adversary that
   rotates worst-case decisions to exercise the mechanism-level safety
   gates.  [make] builds custom policies (tests use it to pin corner
   behaviours such as always-Expand). *)

module Profile = Mutls_obs.Profile

type decision = Deny | Expand | Speculate of Config.model

type request = {
  rq_point : int;
  rq_model : Config.model;
  rq_expandable : bool;
  rq_parent_main : bool;
  rq_parent_expand : bool;
}

type event = { ev_what : string; ev_info : int }

(* Memory-pressure severity ladder (see Global_buffer): a [Park] is a
   hash conflict absorbed by the temporary buffer, a [Spill] is an
   insertion into the spill tier (latency penalty, no squash), and
   [Exhaust] is true overflow-region exhaustion — the only level that
   forces a rollback and therefore the only one the shipped policies
   count against their degrade streak. *)
type pressure = Park | Spill | Exhaust

type t = {
  p_name : string;
  p_decide : request -> decision;
  p_on_commit : point:int -> unit;
  p_on_rollback : point:int -> event option;
  p_on_overflow : point:int -> pressure:pressure -> event option;
  p_on_retire : point:int -> committed:float -> wasted:float -> event option;
  p_on_expand_store : point:int -> unit;
  p_degraded : unit -> bool;
}

let make ?(on_commit = fun ~point:_ -> ())
    ?(on_rollback = fun ~point:_ -> None)
    ?(on_overflow = fun ~point:_ ~pressure:_ -> None)
    ?(on_retire = fun ~point:_ ~committed:_ ~wasted:_ -> None)
    ?(on_expand_store = fun ~point:_ -> ()) ?(degraded = fun () -> false)
    ~name decide =
  {
    p_name = name;
    p_decide = decide;
    p_on_commit = on_commit;
    p_on_rollback = on_rollback;
    p_on_overflow = on_overflow;
    p_on_retire = on_retire;
    p_on_expand_store = on_expand_store;
    p_degraded = degraded;
  }

let name t = t.p_name
let decide t rq = t.p_decide rq
let on_commit t ~point = t.p_on_commit ~point
let on_rollback t ~point = t.p_on_rollback ~point
let on_overflow t ~point ~pressure = t.p_on_overflow ~point ~pressure

let on_retire t ~point ~committed ~wasted =
  t.p_on_retire ~point ~committed ~wasted

let on_expand_store t ~point = t.p_on_expand_store ~point
let degraded t = t.p_degraded ()

(* --- static: the seed behaviour, verbatim ----------------------------- *)

(* Per-fork-point exponential backoff: after a rollback the point sits
   out the next [skip] fork opportunities, the penalty doubling on each
   further rollback (bounded) and halving on a commit.  A global
   overflow streak with no intervening commit degrades the whole run to
   sequential.  Event order and arithmetic replicate the pre-policy
   Thread_manager exactly, so static-policy traces stay byte-identical
   with the seed. *)

let max_penalty = 64

type backoff = { mutable bk_penalty : int; mutable bk_skip : int }

let static (cp : Config.Policy.t) =
  let backoffs : (int, backoff) Hashtbl.t = Hashtbl.create 16 in
  let overflow_streak = ref 0 in
  let degraded = ref false in
  let state point =
    match Hashtbl.find_opt backoffs point with
    | Some b -> b
    | None ->
      let b = { bk_penalty = 0; bk_skip = 0 } in
      Hashtbl.add backoffs point b;
      b
  in
  make ~name:"static"
    ~on_commit:(fun ~point ->
      overflow_streak := 0;
      if cp.Config.Policy.backoff && point >= 0 then
        match Hashtbl.find_opt backoffs point with
        | Some b -> b.bk_penalty <- b.bk_penalty / 2
        | None -> ())
    ~on_rollback:(fun ~point ->
      if cp.Config.Policy.backoff && point >= 0 then begin
        let b = state point in
        b.bk_penalty <- min max_penalty (max 1 (2 * b.bk_penalty));
        b.bk_skip <- b.bk_penalty;
        Some { ev_what = "backoff"; ev_info = b.bk_penalty }
      end
      else None)
    ~on_overflow:(fun ~point:_ ~pressure ->
      (* parks and spills are graceful (no rollback happened): they
         never feed the degrade streak, so the seed event stream is
         untouched *)
      match pressure with
      | Park | Spill -> None
      | Exhaust ->
        incr overflow_streak;
        if
          cp.Config.Policy.degrade_after > 0
          && !overflow_streak >= cp.Config.Policy.degrade_after
          && not !degraded
        then begin
          degraded := true;
          Some { ev_what = "degrade"; ev_info = !overflow_streak }
        end
        else None)
    ~degraded:(fun () -> !degraded)
    (fun rq ->
      if !degraded then Deny
      else if
        cp.Config.Policy.backoff && rq.rq_point >= 0
        &&
        let b = state rq.rq_point in
        if b.bk_skip > 0 then begin
          b.bk_skip <- b.bk_skip - 1;
          true
        end
        else false
      then Deny
      else Speculate rq.rq_model)

(* --- adaptive: closed-loop Deny / Expand / Speculate ------------------ *)

(* Per-point state machine.  Trouble (a genuine rollback) bumps a
   streak; [deny_after] consecutive troubles with no commit turn the
   point off ([denying]).  A denied point re-probes after
   [reprobe_after] denied requests — one fork is let through with the
   streak re-armed at [deny_after - 1], so a single further rollback
   re-denies while a commit fully rehabilitates.  Independently, the
   profiler-advisor criterion applies online: once [min_samples]
   threads have retired at the point, a wasted-work ratio above
   [payoff_threshold] also denies it.  Points proven store-free by the
   static analysis are run at Level 1 ([Expand]) until a dynamic store
   demotes them.

   Cascade limiting: once a point has rolled back at all, forks at it
   are granted only to the non-speculative thread (or inside an Expand
   region) — a troubled point degenerates to in-order-style forking
   instead of growing speculative subtrees whose abort cost dwarfs the
   single rollback that seeded them.  Clean points cascade freely.

   Unified trouble counting (the old double count): an overflow
   rollback reaches the engine twice — [on_overflow] then
   [on_rollback] — but only [on_rollback] counts it against the point;
   [on_overflow] feeds solely the global degrade streak. *)

type astate = {
  acc : Profile.Acc.t;
  mutable streak : int; (* consecutive trouble events, reset on commit *)
  mutable denying : bool;
  mutable denied : int; (* requests denied since denying began *)
  mutable demoted : bool; (* Expand revoked by a dynamic store *)
}

let adaptive (cp : Config.Policy.t) =
  let points : (int, astate) Hashtbl.t = Hashtbl.create 16 in
  let overflow_streak = ref 0 in
  let degraded = ref false in
  let state point =
    match Hashtbl.find_opt points point with
    | Some s -> s
    | None ->
      let s =
        { acc = Profile.Acc.create (); streak = 0; denying = false;
          denied = 0; demoted = false }
      in
      Hashtbl.add points point s;
      s
  in
  let allow rq st =
    if
      cp.Config.Policy.expand && rq.rq_expandable && not st.demoted
      && (rq.rq_parent_main || rq.rq_parent_expand)
    then Expand
    else Speculate rq.rq_model
  in
  make ~name:"adaptive"
    ~on_commit:(fun ~point ->
      overflow_streak := 0;
      if point >= 0 then begin
        let st = state point in
        st.streak <- 0;
        (* a committed probe rehabilitates the point *)
        st.denying <- false;
        st.denied <- 0;
        Profile.Acc.commit st.acc
      end)
    ~on_rollback:(fun ~point ->
      if point < 0 then None
      else begin
        let st = state point in
        st.streak <- st.streak + 1;
        Profile.Acc.rollback st.acc;
        if
          cp.Config.Policy.deny_after > 0
          && (not st.denying)
          && st.streak >= cp.Config.Policy.deny_after
        then begin
          st.denying <- true;
          st.denied <- 0;
          Some { ev_what = "deny"; ev_info = st.streak }
        end
        else None
      end)
    ~on_overflow:(fun ~point:_ ~pressure ->
      (* global resource pressure only; the per-point trouble is counted
         once, by the accompanying on_rollback.  Graceful parks/spills
         carry no squash and do not count. *)
      match pressure with
      | Park | Spill -> None
      | Exhaust ->
        incr overflow_streak;
        if
          cp.Config.Policy.degrade_after > 0
          && !overflow_streak >= cp.Config.Policy.degrade_after
          && not !degraded
        then begin
          degraded := true;
          Some { ev_what = "degrade"; ev_info = !overflow_streak }
        end
        else None)
    ~on_retire:(fun ~point ~committed ~wasted ->
      if point < 0 then None
      else begin
        let st = state point in
        Profile.Acc.retire st.acc ~committed ~wasted;
        let ratio = Profile.Acc.wasted_ratio st.acc in
        if
          (not st.denying)
          && Profile.Acc.retires st.acc >= cp.Config.Policy.min_samples
          && ratio > cp.Config.Policy.payoff_threshold
        then begin
          st.denying <- true;
          st.denied <- 0;
          Some
            { ev_what = "deny"; ev_info = int_of_float (100.0 *. ratio) }
        end
        else None
      end)
    ~on_expand_store:(fun ~point ->
      if point >= 0 then (state point).demoted <- true)
    ~degraded:(fun () -> !degraded)
    (fun rq ->
      if !degraded then Deny
      else if rq.rq_point < 0 then Speculate rq.rq_model
      else begin
        let st = state rq.rq_point in
        if
          (not rq.rq_parent_main)
          && (not rq.rq_parent_expand)
          && Profile.Acc.rollbacks st.acc > 0
        then
          (* cascade limit: the point has a rollback history, so only
             the non-speculative thread may fork here (does not count
             toward the re-probe window — these are extra requests the
             in-order shape would never have made) *)
          Deny
        else if st.denying then begin
          st.denied <- st.denied + 1;
          if st.denied >= cp.Config.Policy.reprobe_after then begin
            (* let one probe fork through; one more rollback re-denies,
               a commit rehabilitates *)
            st.denying <- false;
            st.denied <- 0;
            st.streak <- max 0 (cp.Config.Policy.deny_after - 1);
            let d = allow rq st in
            Profile.Acc.fork st.acc;
            d
          end
          else Deny
        end
        else begin
          let d = allow rq st in
          Profile.Acc.fork st.acc;
          d
        end
      end)

(* --- hostile: chaos-harness adversary --------------------------------- *)

(* Rotates through the worst decision sequence a policy could make —
   deny for no reason, force the in-order model, demand Expand
   everywhere, then behave — so the chaos oracle checks that the
   mechanism-level gates (Expand legality in get_cpu, model override,
   fork-model enforcement) keep any policy sound. *)

let hostile () =
  let n = ref 0 in
  make ~name:"hostile" (fun rq ->
      incr n;
      match !n mod 4 with
      | 0 -> Deny
      | 1 -> Speculate Config.In_order
      | 2 -> Expand
      | _ -> Speculate rq.rq_model)

let of_config (cfg : Config.t) =
  let p = cfg.Config.policy in
  match p.Config.Policy.kind with
  | Config.Policy.Static -> static p
  | Config.Policy.Adaptive -> adaptive p
  | Config.Policy.Hostile -> hostile ()
