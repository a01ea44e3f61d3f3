(* Typed event tracing for the TLS runtime.

   Every significant runtime transition — fork, speculation launch,
   check point, validation, commit, rollback, NOSYNC, buffer overflow,
   join, barrier — becomes a [record]: a typed event stamped with the
   virtual time of the simulation engine and the identity of the thread
   it happened on.  Records flow into a pluggable [sink]; the built-in
   sinks cover the null case (tracing off, near-zero cost), a bounded
   ring buffer for in-process consumers, a human-readable stderr
   printer, JSON Lines for tooling, and the Chrome trace_event format loadable in
   chrome://tracing or Perfetto. *)

(* --- event schema ---------------------------------------------------- *)

type rollback_reason =
  | Conflict (* read-set validation failed against the parent's view *)
  | Stale_local (* a fork-time register value went stale (validate_local) *)
  | Abandoned (* NOSYNC: the speculated region was never needed *)
  | Buffer_overflow (* GlobalBuffer temporary buffer exhausted *)
  | Bad_access (* touched an address outside the registered space *)

let rollback_reason_to_string = function
  | Conflict -> "conflict"
  | Stale_local -> "stale-local"
  | Abandoned -> "abandoned"
  | Buffer_overflow -> "buffer-overflow"
  | Bad_access -> "bad-access"

let rollback_reason_of_string = function
  | "conflict" -> Some Conflict
  | "stale-local" -> Some Stale_local
  | "abandoned" -> Some Abandoned
  | "buffer-overflow" -> Some Buffer_overflow
  | "bad-access" -> Some Bad_access
  | _ -> None

type event =
  | Fork of { child : int; child_rank : int; point : int }
      (* MUTLS_get_CPU assigned [child_rank] to new thread [child] *)
  | Speculate of { child_rank : int; counter : int }
      (* MUTLS_speculate launched the thread occupying [child_rank] *)
  | Check of { counter : int; stop : bool }
      (* a check point that asked the thread to stop (polls that
         return "continue" are not traced — they are the hot path) *)
  | Validate of { words : int; ok : bool; addr : int option }
      (* [addr] is the first conflicting word address when validation
         failed against memory state (None for stale-local or injected
         failures, and in traces from older versions) *)
  | Commit of { words : int; counter : int }
  | Rollback of { reason : rollback_reason; point : int }
      (* [point] is the rolled-back thread's fork point, so rollbacks
         can be attributed to the speculation decision that caused
         them; -1 in traces from older versions *)
  | Nosync of { point : int } (* this thread's subtree was abandoned *)
  | Overflow of { spill_cap : int }
    (* GlobalBuffer overflow-region exhaustion; a Rollback record
       follows.  [spill_cap] is the spill tier's capacity when the tier
       was enabled (so the oracle can check the tier really filled
       first); -1 for spill-off overflows, injected overflows, and
       traces from older versions *)
  | Join of { child : int; committed : bool } (* parent-side verdict *)
  | Barrier of { counter : int }
  | Retire of { committed : bool; runtime : float; stats : (string * float) list }
      (* a speculative thread died; [stats] is its per-category time
         accounting (Stats.to_assoc) *)
  | Charge of { category : string; cost : float }
      (* virtual time charged to one accounting category; the stream of
         charges is what Report folds into the Fig. 8/9 breakdowns *)
  | Park of { addr : int }
    (* GlobalBuffer hash conflict parked in the temporary buffer (the
       event older traces called "spill") *)
  | Spill of { addr : int } (* GlobalBuffer spill-tier insertion *)
  | Frame of { push : bool; depth : int } (* LocalBuffer frame tracking *)
  | Sched of { what : string; info : int } (* engine-level scheduling *)
  | Run_end (* the non-speculative thread finished *)

type record = {
  time : float; (* virtual cycles (Mutls_sim.Engine clock) *)
  thread : int; (* thread id; -1 for engine-level records *)
  rank : int; (* virtual CPU; 0 is the non-speculative thread *)
  main : bool;
  event : event;
}

let event_name = function
  | Fork _ -> "fork"
  | Speculate _ -> "speculate"
  | Check _ -> "check"
  | Validate _ -> "validate"
  | Commit _ -> "commit"
  | Rollback _ -> "rollback"
  | Nosync _ -> "nosync"
  | Overflow _ -> "overflow"
  | Join _ -> "join"
  | Barrier _ -> "barrier"
  | Retire _ -> "retire"
  | Charge _ -> "charge"
  | Park _ -> "park"
  | Spill _ -> "spill"
  | Frame _ -> "frame"
  | Sched _ -> "sched"
  | Run_end -> "run-end"

(* --- JSON encoding --------------------------------------------------- *)

let args_of_event ev : (string * Json.t) list =
  match ev with
  | Fork { child; child_rank; point } ->
    [ ("child", Json.Num (float_of_int child));
      ("child_rank", Json.Num (float_of_int child_rank));
      ("point", Json.Num (float_of_int point)) ]
  | Speculate { child_rank; counter } ->
    [ ("child_rank", Json.Num (float_of_int child_rank));
      ("counter", Json.Num (float_of_int counter)) ]
  | Check { counter; stop } ->
    [ ("counter", Json.Num (float_of_int counter)); ("stop", Json.Bool stop) ]
  | Validate { words; ok; addr } ->
    (* [addr] is emitted only when known, so traces without conflict
       attribution keep the pre-enrichment wire format byte for byte *)
    [ ("words", Json.Num (float_of_int words)); ("ok", Json.Bool ok) ]
    @ (match addr with
      | None -> []
      | Some a -> [ ("addr", Json.Num (float_of_int a)) ])
  | Commit { words; counter } ->
    [ ("words", Json.Num (float_of_int words));
      ("counter", Json.Num (float_of_int counter)) ]
  | Rollback { reason; point } ->
    [ ("reason", Json.Str (rollback_reason_to_string reason));
      ("point", Json.Num (float_of_int point)) ]
  | Nosync { point } -> [ ("point", Json.Num (float_of_int point)) ]
  | Overflow { spill_cap } ->
    (* [spill_cap] is emitted only when a spill tier was in force, so
       spill-off traces keep the pre-spill wire format byte for byte *)
    if spill_cap > 0 then [ ("spill_cap", Json.Num (float_of_int spill_cap)) ]
    else []
  | Join { child; committed } ->
    [ ("child", Json.Num (float_of_int child)); ("committed", Json.Bool committed) ]
  | Barrier { counter } -> [ ("counter", Json.Num (float_of_int counter)) ]
  | Retire { committed; runtime; stats } ->
    [ ("committed", Json.Bool committed);
      ("runtime", Json.Num runtime);
      ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) stats)) ]
  | Charge { category; cost } ->
    [ ("category", Json.Str category); ("cost", Json.Num cost) ]
  | Park { addr } -> [ ("addr", Json.Num (float_of_int addr)) ]
  | Spill { addr } -> [ ("addr", Json.Num (float_of_int addr)) ]
  | Frame { push; depth } ->
    [ ("push", Json.Bool push); ("depth", Json.Num (float_of_int depth)) ]
  | Sched { what; info } ->
    [ ("what", Json.Str what); ("info", Json.Num (float_of_int info)) ]
  | Run_end -> []

let record_to_json r =
  Json.Obj
    [ ("t", Json.Num r.time);
      ("tid", Json.Num (float_of_int r.thread));
      ("rank", Json.Num (float_of_int r.rank));
      ("main", Json.Bool r.main);
      ("ev", Json.Str (event_name r.event));
      ("args", Json.Obj (args_of_event r.event)) ]

exception Schema_error of string

let schema_error fmt = Printf.ksprintf (fun s -> raise (Schema_error s)) fmt

let get_field name conv args =
  match Option.bind (Json.member name args) conv with
  | Some v -> v
  | None -> schema_error "missing or mistyped field %S" name

let event_of_json name args =
  let int name = get_field name Json.to_int args in
  let bool name = get_field name Json.to_bool args in
  let str name = get_field name Json.to_str args in
  let float name = get_field name Json.to_float args in
  match name with
  | "fork" ->
    Fork { child = int "child"; child_rank = int "child_rank"; point = int "point" }
  | "speculate" ->
    Speculate { child_rank = int "child_rank"; counter = int "counter" }
  | "check" -> Check { counter = int "counter"; stop = bool "stop" }
  | "validate" ->
    (* [addr]/[point] may be absent in traces written before the
       attribution enrichment: default rather than fail *)
    Validate
      { words = int "words";
        ok = bool "ok";
        addr = Option.bind (Json.member "addr" args) Json.to_int }
  | "commit" -> Commit { words = int "words"; counter = int "counter" }
  | "rollback" -> (
    match rollback_reason_of_string (str "reason") with
    | Some reason ->
      Rollback
        { reason;
          point =
            (match Option.bind (Json.member "point" args) Json.to_int with
            | Some p -> p
            | None -> -1) }
    | None -> schema_error "unknown rollback reason %S" (str "reason"))
  | "nosync" -> Nosync { point = int "point" }
  | "overflow" ->
    (* [spill_cap] is absent in spill-off and older traces: default *)
    Overflow
      { spill_cap =
          (match Option.bind (Json.member "spill_cap" args) Json.to_int with
          | Some c -> c
          | None -> -1) }
  | "join" -> Join { child = int "child"; committed = bool "committed" }
  | "barrier" -> Barrier { counter = int "counter" }
  | "retire" ->
    let stats =
      match Json.member "stats" args with
      | Some (Json.Obj fields) ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.to_float v))
          fields
      | _ -> []
    in
    Retire { committed = bool "committed"; runtime = float "runtime"; stats }
  | "charge" -> Charge { category = str "category"; cost = float "cost" }
  | "park" -> Park { addr = int "addr" }
  | "spill" -> Spill { addr = int "addr" }
  | "frame" -> Frame { push = bool "push"; depth = int "depth" }
  | "sched" -> Sched { what = str "what"; info = int "info" }
  | "run-end" -> Run_end
  | other -> schema_error "unknown event %S" other

let record_of_json j =
  let field name conv =
    match Option.bind (Json.member name j) conv with
    | Some v -> v
    | None -> schema_error "record missing field %S" name
  in
  let args = match Json.member "args" j with Some a -> a | None -> Json.Obj [] in
  {
    time = field "t" Json.to_float;
    thread = field "tid" Json.to_int;
    rank = field "rank" Json.to_int;
    main = field "main" Json.to_bool;
    event = event_of_json (field "ev" Json.to_str) args;
  }

let record_to_jsonl r = Json.to_string (record_to_json r)

let record_of_jsonl line =
  match Json.of_string line with
  | j -> record_of_json j
  | exception Json.Parse_error e -> schema_error "bad JSON: %s" e

(* --- sinks ----------------------------------------------------------- *)

type sink = {
  enabled : bool; (* false only for [null]: lets call sites skip
                     building the record entirely on the hot path *)
  emit : record -> unit;
  close : unit -> unit;
}

let emit sink r = if sink.enabled then sink.emit r

let close sink = sink.close ()

let null = { enabled = false; emit = ignore; close = ignore }

let tee sinks =
  let sinks = List.filter (fun s -> s.enabled) sinks in
  match sinks with
  | [] -> null
  | [ s ] -> s
  | _ ->
    {
      enabled = true;
      emit = (fun r -> List.iter (fun s -> s.emit r) sinks);
      close = (fun () -> List.iter (fun s -> s.close ()) sinks);
    }

(* Sinks are written for one emitter; the parallel backend has one per
   domain.  Serialise emit/close with a private mutex — record order
   across domains is whatever the schedule produced. *)
let synchronized sink =
  if not sink.enabled then sink
  else begin
    let mu = Mutex.create () in
    let locked f x =
      Mutex.lock mu;
      match f x with
      | v ->
        Mutex.unlock mu;
        v
      | exception e ->
        Mutex.unlock mu;
        raise e
    in
    {
      enabled = true;
      emit = (fun r -> locked sink.emit r);
      close = (fun () -> locked sink.close ());
    }
  end

(* Bounded ring buffer: keeps the newest [capacity] records, dropping
   the oldest first. *)
type ring = {
  capacity : int;
  mutable slots : record option array;
  mutable next : int; (* total records ever emitted *)
}

let ring ~capacity =
  if capacity <= 0 then invalid_arg "Trace.ring: capacity must be positive";
  { capacity; slots = Array.make capacity None; next = 0 }

let ring_sink rb =
  {
    enabled = true;
    emit =
      (fun r ->
        rb.slots.(rb.next mod rb.capacity) <- Some r;
        rb.next <- rb.next + 1);
    close = ignore;
  }

let ring_length rb = min rb.next rb.capacity
let ring_dropped rb = max 0 (rb.next - rb.capacity)

(* Oldest-to-newest. *)
let ring_records rb =
  let n = ring_length rb in
  let start = rb.next - n in
  List.init n (fun k ->
      match rb.slots.((start + k) mod rb.capacity) with
      | Some r -> r
      | None -> assert false)

(* Human-readable one-line-per-event printer. *)
let pretty_line r =
  let who =
    if r.thread < 0 then "engine"
    else if r.main then "main"
    else Printf.sprintf "td=%d rank=%d" r.thread r.rank
  in
  let detail =
    match r.event with
    | Fork { child; child_rank; point } ->
      Printf.sprintf "child=%d rank=%d point=%d" child child_rank point
    | Speculate { child_rank; counter } ->
      Printf.sprintf "rank=%d counter=%d" child_rank counter
    | Check { counter; stop } -> Printf.sprintf "counter=%d stop=%b" counter stop
    | Validate { words; ok; addr } ->
      Printf.sprintf "words=%d ok=%b%s" words ok
        (match addr with
        | Some a -> Printf.sprintf " addr=0x%x" a
        | None -> "")
    | Commit { words; counter } ->
      Printf.sprintf "words=%d counter=%d" words counter
    | Rollback { reason; point } ->
      Printf.sprintf "%s point=%d" (rollback_reason_to_string reason) point
    | Nosync { point } -> Printf.sprintf "point=%d" point
    | Overflow { spill_cap } ->
      if spill_cap > 0 then Printf.sprintf "spill_cap=%d" spill_cap else ""
    | Join { child; committed } ->
      Printf.sprintf "child=%d %s" child (if committed then "COMMIT" else "ROLLBACK")
    | Barrier { counter } -> Printf.sprintf "counter=%d" counter
    | Retire { committed; runtime; stats } ->
      Printf.sprintf "committed=%b runtime=%.0f %s" committed runtime
        (String.concat " "
           (List.filter_map
              (fun (k, v) ->
                if v > 0.0 then Some (Printf.sprintf "%s=%.0f" k v) else None)
              stats))
    | Charge { category; cost } -> Printf.sprintf "%s +%.1f" category cost
    | Park { addr } -> Printf.sprintf "addr=0x%x" addr
    | Spill { addr } -> Printf.sprintf "addr=0x%x" addr
    | Frame { push; depth } ->
      Printf.sprintf "%s depth=%d" (if push then "push" else "pop") depth
    | Sched { what; info } -> Printf.sprintf "%s %d" what info
    | Run_end -> ""
  in
  Printf.sprintf "[t=%.0f %s %s%s%s]" r.time who (event_name r.event)
    (if detail = "" then "" else " ")
    detail

let pretty ?(charges = false) write =
  {
    enabled = true;
    emit =
      (fun r ->
        match r.event with
        | Charge _ when not charges -> ()
        | _ -> write (pretty_line r ^ "\n"));
    close = ignore;
  }

let stderr_pretty ?charges () =
  pretty ?charges (fun s ->
      output_string stderr s;
      flush stderr)

(* One JSON object per line (JSON Lines): the format [Report] and
   `mutlsc report` consume. *)
let jsonl write =
  {
    enabled = true;
    emit = (fun r -> write (record_to_jsonl r ^ "\n"));
    close = ignore;
  }

(* Chrome trace_event JSON (the "JSON object format"), loadable in
   chrome://tracing and Perfetto.  Virtual cycles are reported as
   microseconds; tracks (tid) are virtual CPUs, so the timeline shows
   one lane per simulated core.  Charges become complete ("X") duration
   slices ending at their emission time; lifecycle events are instants;
   a retired thread contributes one whole-lifetime slice. *)
let chrome write =
  let first = ref true in
  let item j =
    if !first then first := false else write ",\n";
    write (Json.to_string j)
  in
  let common r rest =
    Json.Obj
      ([ ("pid", Json.Num 0.0); ("tid", Json.Num (float_of_int r.rank)) ] @ rest)
  in
  (* Fork -> Speculate causality arrows: the Fork record carries the
     child id but happens on the parent's lane; the Speculate record
     marks the launch on the child's lane but only knows the rank.
     get_cpu hands a rank to exactly one thread at a time, so pairing
     the latest Fork per rank with the next Speculate on that rank
     recovers the flow id. *)
  let pending_flow : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let flow ~ph ~extra ~tid ~id ~ts =
    item
      (Json.Obj
         ([ ("pid", Json.Num 0.0);
            ("tid", Json.Num (float_of_int tid));
            ("name", Json.Str "fork");
            ("cat", Json.Str "flow");
            ("ph", Json.Str ph);
            ("id", Json.Num (float_of_int id));
            ("ts", Json.Num ts) ]
         @ extra))
  in
  write "{\"traceEvents\":[\n";
  {
    enabled = true;
    emit =
      (fun r ->
        (match r.event with
        | Fork { child; child_rank; _ } ->
          Hashtbl.replace pending_flow child_rank child;
          flow ~ph:"s" ~extra:[] ~tid:r.rank ~id:child ~ts:r.time
        | Speculate { child_rank; _ } -> (
          match Hashtbl.find_opt pending_flow child_rank with
          | Some child ->
            Hashtbl.remove pending_flow child_rank;
            flow ~ph:"f" ~extra:[ ("bp", Json.Str "e") ] ~tid:child_rank
              ~id:child ~ts:r.time
          | None -> ())
        | _ -> ());
        match r.event with
        | Charge { category; cost } ->
          if cost > 0.0 then
            item
              (common r
                 [ ("name", Json.Str category);
                   ("cat", Json.Str "charge");
                   ("ph", Json.Str "X");
                   ("ts", Json.Num (Float.max 0.0 (r.time -. cost)));
                   ("dur", Json.Num cost) ])
        | Retire { runtime; committed; _ } ->
          item
            (common r
               [ ("name", Json.Str (Printf.sprintf "thread %d" r.thread));
                 ("cat", Json.Str "lifetime");
                 ("ph", Json.Str "X");
                 ("ts", Json.Num (Float.max 0.0 (r.time -. runtime)));
                 ("dur", Json.Num runtime);
                 ("args", Json.Obj [ ("committed", Json.Bool committed) ]) ])
        | ev ->
          item
            (common r
               [ ("name", Json.Str (event_name ev));
                 ("cat", Json.Str "tls");
                 ("ph", Json.Str "i");
                 ("ts", Json.Num r.time);
                 ("s", Json.Str "t");
                 ("args", Json.Obj (args_of_event ev)) ]));
    close = (fun () -> write "\n],\"displayTimeUnit\":\"ms\"}\n");
  }
