(* The repo benchmark: source text to verified output, on one workload.

   A run compiles every program of the workload from source, then runs
   passes until --seconds have elapsed.  A pass runs every program once
   under TLS (in a seed-shuffled order) and checks its output against an
   oracle computed once per run by the tree-walking Reference
   interpreter on the untransformed module, never by the engine under
   test.

   --trace 0 prints the end-to-end metrics.  --trace 1 alternates traced
   and untraced passes and prints the per-layer metrics: the harness
   records a span around each of its own calls into a layer, reads the
   counters the runtime exports (a fresh Telemetry registry per program,
   Eval.tls_result, Metrics.t), and times each layer's public functions
   in small probes.  Nothing inside the program is instrumented.

   The last stdout line is the result object; the line before it is a
   detail report (per-program rows, quartiles, provenance). *)

module W = Mutls.Workloads
module Eval = Mutls.Eval
module Config = Mutls.Config
module Tele = Mutls.Telemetry
module Json = Mutls.Json
module Metrics = Mutls.Metrics
module TM = Mutls_runtime.Thread_manager
module GB = Mutls_runtime.Global_buffer

let now = Unix.gettimeofday

(* --- statistics ------------------------------------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Python's statistics.quantiles(method="exclusive"), so the quartiles
   printed here are the ones a reader recomputes from the detail rows. *)
let quantile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n = 1 then a.(0)
  else
    let h = p *. float_of_int (n + 1) in
    let j = truncate h in
    let g = h -. float_of_int j in
    if j < 1 then a.(0)
    else if j >= n then a.(n - 1)
    else a.(j - 1) +. (g *. (a.(j) -. a.(j - 1)))

let median xs = quantile xs 0.5

(* The highest percentile with at least ten samples beyond it: the
   (n-10)-th smallest of n.  Below 11 samples no such percentile exists
   and the maximum is reported, with 0 samples beyond. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n >= 11 then (a.(n - 11), 100.0 *. float_of_int (n - 10) /. float_of_int n, 10)
  else (a.(n - 1), 100.0, 0)

let geomean xs =
  exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.0

(* --- workloads -------------------------------------------------------- *)

type program = { pname : string; lang : Mutls.language; source : string }

type backend = Sim | Domains

type workload = {
  wname : string;
  programs : program list;
  ncpus : int;
  backend : backend;
  domains : int;
}

let nproc = Domain.recommended_domain_count ()

(* Two domains, never more than the host has. *)
let host_domains = max 1 (min 2 nproc)

let c_programs ws =
  List.map (fun w -> { pname = w.W.name; lang = Mutls.C; source = w.W.c_source () }) ws

let fortran_programs ws =
  List.filter_map
    (fun w ->
      Option.map
        (fun f -> { pname = w.W.name ^ ".f"; lang = Mutls.Fortran; source = f () })
        w.W.fortran_source)
    ws

let workload_of = function
  | "paper-sim" ->
    { wname = "paper-sim"; programs = c_programs W.all @ fortran_programs W.all;
      ncpus = 16; backend = Sim; domains = 1 }
  | "conflict-sim" ->
    { wname = "conflict-sim"; programs = c_programs W.mixed_payoff; ncpus = 8;
      backend = Sim; domains = 1 }
  | "paper-domains" ->
    { wname = "paper-domains"; programs = c_programs W.all; ncpus = 8;
      backend = Domains; domains = host_domains }
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- spans ------------------------------------------------------------ *)

(* Spans are recorded only in traced passes and set-up; they stay in
   memory until the run ends. *)
type span = { id : int; name : string; parent : int; prog : string; t0 : float; t1 : float }

let spans : span list ref = ref []
let span_ids = ref 0
let tracing = ref false

(* Time [f], passing it its span id (its children's parent); returns
   the result and the elapsed seconds. *)
let timed ?(parent = -1) ?(prog = "") name f =
  let id = if !tracing then (incr span_ids; !span_ids) else -1 in
  let t0 = now () in
  let r = f id in
  let t1 = now () in
  if !tracing then spans := { id; name; parent; prog; t0; t1 } :: !spans;
  (r, t1 -. t0)

(* Self time per span name: duration minus the time its children cover
   (children of one parent never overlap: the harness is sequential). *)
let self_times () =
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    !spans;
  let self = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let d = s.t1 -. s.t0 -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id) in
      Hashtbl.replace self s.name (d +. Option.value ~default:0.0 (Hashtbl.find_opt self s.name)))
    !spans;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) self [])

let spans_json () =
  Json.List
    (List.rev_map
       (fun s ->
         Json.Obj
           [ ("id", Json.Num (float_of_int s.id)); ("name", Json.Str s.name);
             ("parent", Json.Num (float_of_int s.parent)); ("program", Json.Str s.prog);
             ("start", Json.Num s.t0); ("end", Json.Num s.t1) ])
       !spans)

(* --- set-up ----------------------------------------------------------- *)

let mir_instrs (m : Mutls.Ir.modul) =
  List.fold_left
    (fun acc f ->
      List.fold_left
        (fun acc b -> acc + List.length b.Mutls.Ir.insts + List.length b.Mutls.Ir.phis + 1)
        acc f.Mutls.Ir.blocks)
    0 m.Mutls.Ir.funcs

type prepared = {
  p : program;
  tls_prog : Eval.prog;
  seq_prog : Eval.prog Lazy.t;
  expect : string;  (** oracle output *)
  ts : float;  (** oracle virtual Ts *)
  front_instrs : int;
  spec_instrs : int;
}

type setup = {
  progs : (program * Mutls.Ir.modul * Eval.prog * int * int) list;
      (** source, compiled module, prepared TLS program, MIR sizes *)
  total_s : float;
  frontend_s : float;
  speculator_s : float;
  prepare_s : float;
}

(* One set-up of every program: Mutls.compile + Mutls.speculate +
   Eval.prepare, with a span around each call. *)
let setup_once programs =
  let front = ref 0.0 and specu = ref 0.0 and prep = ref 0.0 in
  let progs, total_s =
    timed "setup" (fun sid ->
        List.map
          (fun p ->
            let m, d1 =
              timed ~parent:sid ~prog:p.pname "compile" (fun _ -> Mutls.compile p.lang p.source)
            in
            let front_instrs = mir_instrs m in
            let t, d2 = timed ~parent:sid ~prog:p.pname "speculate" (fun _ -> Mutls.speculate m) in
            let prog, d3 = timed ~parent:sid ~prog:p.pname "prepare" (fun _ -> Eval.prepare t) in
            front := !front +. d1;
            specu := !specu +. d2;
            prep := !prep +. d3;
            (p, m, prog, front_instrs, mir_instrs t))
          programs)
  in
  { progs; total_s; frontend_s = !front; speculator_s = !specu; prepare_s = !prep }

(* --- one program run -------------------------------------------------- *)

type run_obs = {
  name : string;
  tls_s : float;
  seq_s : float option;
  tn : float;
  failure : string option;
  det : string;  (** the run's deterministic fingerprint (sim only) *)
  counts : (string * float) list;  (** telemetry counts, traced runs *)
  vt : (string * float) list;  (** virtual-time split, cycles (sim) *)
  busy : float;  (** mean domain busy fraction (domains, traced) *)
}

(* Read the counters the runtime exported into a run's own registry. *)
let counts_of snap =
  let pick ?label name =
    List.fold_left
      (fun acc (m : Tele.metric) ->
        if m.Tele.m_name <> name then acc
        else if Option.fold ~none:false ~some:(fun l -> not (List.mem l m.Tele.m_labels)) label
        then acc
        else
          match m.Tele.m_value with
          | Tele.Counter n -> acc +. float_of_int n
          | Tele.Histogram { sum; _ } -> acc +. sum
          | Tele.Gauge _ -> acc)
      0.0 snap
  in
  let busy =
    List.filter_map
      (fun (m : Tele.metric) ->
        match m.Tele.m_value with
        | Tele.Gauge g when m.Tele.m_name = "mutls_domain_busy_fraction" -> Some g
        | _ -> None)
      snap
  in
  ( [ ("tm.forks", pick "mutls_forks_total"); ("tm.commits", pick "mutls_commits_total");
      ("tm.rollbacks", pick "mutls_rollbacks_total"); ("tm.nosyncs", pick "mutls_nosyncs_total");
      ("policy.denied", pick ~label:("decision", "deny") "mutls_policy_decisions_total");
      ("policy.expands", pick ~label:("decision", "expand") "mutls_policy_decisions_total");
      ("gbuf.loads", pick "mutls_loads_total"); ("gbuf.stores", pick "mutls_stores_total");
      ("gbuf.validate_words", pick "mutls_validate_words");
      ("gbuf.commit_words", pick "mutls_commit_words");
      ("gbuf.parks", pick "mutls_gbuf_parks_total");
      ("gbuf.spills", pick "mutls_gbuf_spills_total");
      ("gbuf.overflows", pick "mutls_overflows_total");
      ("par.steals", pick "mutls_domain_steals_total");
      ("par.tasks", pick "mutls_domain_tasks_total") ],
    if busy = [] then 0.0 else sum busy /. float_of_int (List.length busy) )

let counter_names = List.map fst (fst (counts_of []))

(* The Fig. 8/9 categories: metric name, breakdown, Metrics' label. *)
let vt_split =
  List.map (fun k -> ("vt.crit." ^ k, `Crit, k)) [ "work"; "join"; "idle"; "fork" ]
  @ List.map
      (fun k -> ("vt.spec." ^ k, `Spec, String.map (function '_' -> ' ' | c -> c) k))
      [ "work"; "wasted_work"; "finalize"; "commit"; "validation"; "overflow"; "idle"; "fork" ]

let vt_names = List.map (fun (n, _, _) -> n) vt_split

(* Fig. 8/9 split in virtual cycles: Metrics gives fractions of the
   critical-path runtime (Tn) and of the summed speculative runtime. *)
let vt_of ~ts (r : Eval.tls_result) =
  let m = Metrics.compute ~ts r in
  let spec_rt = List.fold_left (fun a t -> a +. t.TM.r_runtime) 0.0 r.Eval.tretired in
  let get bd k = Option.value ~default:0.0 (List.assoc_opt k bd) in
  let crit k = get m.Metrics.crit_breakdown k *. m.Metrics.tn
  and spec k = get m.Metrics.spec_breakdown k *. spec_rt in
  (m, List.map (fun (n, bd, k) -> (n, if bd = `Crit then crit k else spec k)) vt_split)

let describe = function
  | Eval.Trap s -> "trap: " ^ s
  | Mutls_par.Sched.Deadlock n -> Printf.sprintf "deadlock (%d fibers)" n
  | Mutls_sim.Engine.Deadlock n -> Printf.sprintf "deadlock (%d threads)" n
  | e -> "exception: " ^ Printexc.to_string e

(* Run one prepared program under TLS (and sequentially when [seq]),
   verify against the oracle, and collect what the run exported. *)
let run_program wl ~traced ~seq ~parent pr =
  let cfg =
    { Config.default with
      Config.ncpus = wl.ncpus;
      domains = wl.domains;
      telemetry = (if traced then Tele.create () else Config.default.Config.telemetry) }
  in
  let name = pr.p.pname in
  let failure = ref None in
  let fail why = if !failure = None then failure := Some why in
  let res, tls_s =
    timed ~parent ~prog:name (if wl.backend = Sim then "run_tls" else "run_tls_par") (fun _ ->
        let r =
          try
            Ok
              (match wl.backend with
              | Sim -> Eval.run_tls_prepared cfg pr.tls_prog
              | Domains -> Eval.run_tls_par_prepared cfg pr.tls_prog)
          with e -> Error (describe e)
        in
        (match r with
        | Ok r when r.Eval.toutput <> pr.expect -> fail "TLS output differs from the oracle"
        | Ok _ -> ()
        | Error why -> fail why);
        r)
  in
  let seq_s =
    if not seq then None
    else
      let r, d =
        timed ~parent ~prog:name "run_sequential" (fun _ ->
            try Ok (Eval.run_sequential_prepared (Lazy.force pr.seq_prog))
            with e -> Error (describe e))
      in
      (match r with
      | Ok s when s.Eval.soutput <> pr.expect -> fail "sequential output differs from the oracle"
      | Ok s when s.Eval.scost <> pr.ts -> fail "sequential Ts differs from the Reference Ts"
      | Ok _ -> ()
      | Error why -> fail ("sequential " ^ why));
      Some d
  in
  let counts, busy =
    if traced then counts_of (Tele.snapshot cfg.Config.telemetry) else ([], 0.0)
  in
  match res with
  | Error _ ->
    { name; tls_s; seq_s; tn = 0.0; failure = !failure; det = ""; counts; vt = []; busy }
  | Ok r ->
    let m, vt = vt_of ~ts:pr.ts r in
    let det =
      if wl.backend <> Sim then ""
      else
        String.concat " "
          (Printf.sprintf "tn=%h forks=%d commits=%d rollbacks=%d" m.Metrics.tn
             m.Metrics.forks m.Metrics.commits m.Metrics.rollbacks
          :: List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) vt)
    in
    { name; tls_s; seq_s; tn = r.Eval.tfinish; failure = !failure; det; counts;
      vt = (if wl.backend = Sim then vt else []); busy }

(* --- passes ----------------------------------------------------------- *)

type pass = {
  traced : bool;
  pass_s : float;  (** TLS runs plus their checks; sequential runs excluded *)
  runs : run_obs list;
  minor_mwords : float;  (** Gc.quick_stat deltas over the pass *)
  promoted_mwords : float;
  major_collections : float;
}

let shuffle ~seed ~index xs =
  let a = Array.of_list xs in
  let rng = Random.State.make [| seed; index |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let run_pass wl ~seed ~index ~traced prepared =
  let g0 = Gc.quick_stat () in
  let order = shuffle ~seed ~index prepared in
  let runs, _ =
    let saved = !tracing in
    tracing := traced;
    let r =
      timed "pass" (fun pid ->
          List.map
            (fun pr -> run_program wl ~traced ~seq:(traced || wl.backend = Domains) ~parent:pid pr)
            order)
    in
    tracing := saved;
    r
  in
  let g1 = Gc.quick_stat () in
  { traced;
    pass_s = sum (List.map (fun r -> r.tls_s) runs);
    runs;
    minor_mwords = (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6;
    promoted_mwords = (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6;
    major_collections = float_of_int (g1.Gc.major_collections - g0.Gc.major_collections) }

(* --- layer probes (traced runs only) ----------------------------------- *)

(* Median nanoseconds per operation of [op] over [rounds] rounds of
   [per_round] operations; [prep] runs untimed before each round. *)
let per_op_ns ~parent name ~rounds ~per_round ?(prep = fun () -> ()) op =
  let samples =
    List.init rounds (fun _ ->
        prep ();
        let (), d = timed ~parent name (fun _ -> op ()) in
        d *. 1e9 /. float_of_int per_round)
  in
  median samples

let probe_gbuf ~parent =
  let b = Config.effective_buffers Config.default in
  let backing = Bytes.make (1 lsl 20) '\000' in
  let mask = (1 lsl 20) - 8 in
  let mem =
    { Mutls_runtime.Memio.read_word = (fun a -> Bytes.get_int64_le backing (a land mask));
      write_word = (fun a v -> Bytes.set_int64_le backing (a land mask) v);
      read_byte = (fun a -> Char.code (Bytes.get backing (a land 0xFFFFF)));
      write_byte = (fun a v -> Bytes.set backing (a land 0xFFFFF) (Char.chr (v land 0xff))) }
  in
  let gb =
    GB.create ~shards:b.Config.Buffers.shards ~spill_slots:b.Config.Buffers.spill_slots
      ~line_words:b.Config.Buffers.line_words ~slots:b.Config.Buffers.slots
      ~temp_slots:b.Config.Buffers.temp_slots ()
  in
  let words = 4096 and rounds = 100 in
  let addr i = 0x1000 + (8 * i) in
  let reads () = for i = 0 to words - 1 do ignore (GB.read gb mem (addr i) 8) done in
  let writes () =
    for i = 0 to words - 1 do ignore (GB.write gb mem (addr i) 8 (Int64.of_int i)) done
  in
  let fresh () = ignore (GB.finalize gb) in
  let miss = per_op_ns ~parent "gbuf.read_miss" ~rounds ~per_round:words ~prep:fresh reads in
  let hit = per_op_ns ~parent "gbuf.read_hit" ~rounds ~per_round:words reads in
  let validate =
    per_op_ns ~parent "gbuf.validate" ~rounds ~per_round:words (fun () ->
        ignore (GB.validate gb mem))
  in
  let write = per_op_ns ~parent "gbuf.write" ~rounds ~per_round:words ~prep:fresh writes in
  let commit =
    per_op_ns ~parent "gbuf.commit" ~rounds ~per_round:words (fun () ->
        ignore (GB.commit gb mem))
  in
  fresh ();
  [ ("gbuf.read_hit_ns", hit); ("gbuf.read_miss_ns", miss); ("gbuf.write_ns", write);
    ("gbuf.validate_ns_per_word", validate); ("gbuf.commit_ns_per_word", commit) ]

let probe_engine ~parent =
  let module E = Mutls_sim.Engine in
  let n = 20_000 in
  let (), d =
    timed ~parent "engine.spawn_wait" (fun _ ->
        let e = E.create () in
        ignore
          (E.run e (fun () ->
               for _ = 1 to n do
                 let iv = E.new_ivar () in
                 E.spawn e (fun () -> E.ivar_set e iv 1);
                 ignore (E.wait e iv)
               done)))
  in
  d *. 1e9 /. float_of_int n

let probe_sched ~parent ~domains =
  let n = 5_000 in
  let (), d =
    timed ~parent "sched.spawn_wait" (fun _ ->
        ignore
          (Mutls_par.Sched.run ~domains (fun s ->
               let ex = Mutls_par.Sched.exec s in
               for _ = 1 to n do
                 let f = ex.Mutls_runtime.Exec.new_flag () in
                 ex.Mutls_runtime.Exec.spawn (fun () -> ex.Mutls_runtime.Exec.set f 1);
                 ignore (ex.Mutls_runtime.Exec.wait f)
               done)))
  in
  d *. 1e9 /. float_of_int n

let probe_deque ~parent =
  let module D = Mutls_par.Deque in
  let d = D.create () in
  let n = 200_000 in
  let push_pop =
    per_op_ns ~parent "deque.push_pop" ~rounds:5 ~per_round:n (fun () ->
        for i = 1 to n do
          ignore (D.push d i);
          ignore (D.pop d)
        done)
  in
  let steal =
    per_op_ns ~parent "deque.steal" ~rounds:5 ~per_round:n (fun () ->
        for i = 1 to n do
          ignore (D.push d i);
          ignore (D.steal d)
        done)
  in
  (push_pop, steal)

(* Memory.create at the sizes every TLS run of this workload allocates. *)
let probe_memory ~parent wl =
  median
    (List.init 5 (fun _ ->
         snd
           (timed ~parent "memory.create" (fun _ ->
                ignore
                  (Mutls_interp.Memory.create ~globals_size:Eval.default_globals
                     ~heap_size:Eval.default_heap ~stack_size:Eval.default_stack
                     ~nstacks:wl.ncpus)))))

(* --- reporting -------------------------------------------------------- *)

let num x = Json.Num x
let metric (name, unit_, v) = (name, Json.Obj [ ("value", num v); ("unit", Json.Str unit_) ])

let quart xs =
  Json.Obj
    [ ("median", num (median xs)); ("q1", num (quantile xs 0.25)); ("q3", num (quantile xs 0.75));
      ("n", num (float_of_int (List.length xs))) ]

let assoc_sum rows =
  List.map (fun k -> (k, sum (List.map (fun r -> Option.value ~default:0.0 (List.assoc_opt k r)) rows)))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

(* --- main ------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10.0 and trace = ref 0 in
  let commit = ref "unknown" and out_dir = ref "" and corrupt = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "paper-sim | conflict-sim | paper-domains");
      ("--seed", Arg.Set_int seed, "workload seed (program order)");
      ("--seconds", Arg.Set_float seconds, "measurement length");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics, 1: per-layer metrics");
      ("--commit", Arg.Set_string commit, "source revision, for the record");
      ("--out-dir", Arg.Set_string out_dir, "where the detail report and spans are written");
      ("--corrupt-oracle", Arg.Set_string corrupt,
       "self-test: make this program's expected output wrong") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "harness.exe --workload W --seed N --seconds S --trace 0|1";
  let wl = workload_of !workload in
  let traced_run = !trace = 1 in
  (* Oracle: Reference interpreter on the untransformed module, computed
     once and kept out of setup_s. *)
  let oracle =
    List.map
      (fun p ->
        let r = Mutls_interp.Reference.run_sequential (Mutls.compile p.lang p.source) in
        let out = if p.pname = !corrupt then r.Eval.soutput ^ "#corrupt" else r.Eval.soutput in
        (p.pname, (out, r.Eval.scost)))
      wl.programs
  in
  if !corrupt <> "" && not (List.mem_assoc !corrupt oracle) then
    invalid_arg ("--corrupt-oracle: no program " ^ !corrupt);
  (* Set-up, repeated: three times before the passes and once after each
     pass, so the median samples the host across the whole run. *)
  let setup_rep () =
    let saved = !tracing in
    tracing := traced_run;
    let r = setup_once wl.programs in
    tracing := saved;
    r
  in
  let first_reps = List.init 3 (fun _ -> setup_rep ()) in
  let progs = (List.hd first_reps).progs in
  let prepared =
    List.map
      (fun (p, m, prog, fi, si) ->
        let expect, ts = List.assoc p.pname oracle in
        { p; tls_prog = prog; seq_prog = lazy (Eval.prepare m); expect; ts; front_instrs = fi;
          spec_instrs = si })
      progs
  in
  (* Passes: at least one of each kind, then until the time is up. *)
  let t_measure = now () in
  let deadline = t_measure +. !seconds in
  let rec loop index passes reps =
    let traced = traced_run && index mod 2 = 0 in
    let enough = index >= if traced_run then 2 else 1 in
    if enough && now () >= deadline then (List.rev passes, first_reps @ List.rev reps)
    else
      let ps = run_pass wl ~seed:!seed ~index ~traced prepared in
      loop (index + 1) (ps :: passes) (setup_rep () :: reps)
  in
  let passes, reps = loop 0 [] [] in
  let rep_field f = median (List.map f reps) in
  let setup_s = rep_field (fun r -> r.total_s) in
  let measured_s = now () -. t_measure in
  let heap_peak_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
  in
  let all_runs = List.concat_map (fun ps -> ps.runs) passes in
  let failures =
    List.concat
      (List.mapi
         (fun i ps ->
           List.filter_map
             (fun r -> Option.map (fun why -> (i, r.name, why)) r.failure)
             ps.runs)
         passes)
  in
  (* Determinism self-check on the simulator: every run of a program
     must reproduce its first run's fingerprint exactly. *)
  let det_failures =
    if wl.backend <> Sim then []
    else
      let first = Hashtbl.create 16 and first_counts = Hashtbl.create 16 in
      List.concat
        (List.mapi
           (fun i ps ->
             List.filter_map
               (fun r ->
                 if r.failure <> None then None
                 else
                   let check tbl v =
                     match Hashtbl.find_opt tbl r.name with
                     | None -> Hashtbl.add tbl r.name v; true
                     | Some v0 -> v0 = v
                   in
                   let ok = check first r.det && ((not ps.traced) || check first_counts r.counts) in
                   if ok then None else Some (i, r.name, "virtual time or counters differ between passes"))
               ps.runs)
           passes)
  in
  let failures = failures @ det_failures in
  let failed_runs =
    List.sort_uniq compare (List.map (fun (i, n, _) -> (i, n)) failures)
  in
  let attempted = List.length all_runs in
  let failed = List.length failed_runs in
  let measured = List.filter (fun ps -> not ps.traced) passes in
  let traced_passes = List.filter (fun ps -> ps.traced) passes in
  let pass_times = List.map (fun ps -> ps.pass_s) measured in
  let pass_s = median pass_times in
  let tail_s, tail_pct, tail_beyond = tail pass_times in
  let ok_runs name =
    List.filter (fun r -> r.name = name && r.failure = None) all_runs
  in
  (* Per-program rows: median TLS wall, virtual Ts/Tn, failures. *)
  let rows =
    List.map
      (fun pr ->
        let name = pr.p.pname in
        let rs = ok_runs name in
        let tls = median (List.map (fun r -> r.tls_s) rs) in
        let seqs = List.filter_map (fun r -> r.seq_s) rs in
        let tn = match rs with r :: _ -> r.tn | [] -> nan in
        let speedup =
          match wl.backend with
          | Sim -> pr.ts /. tn
          | Domains -> median seqs /. tls
        in
        (pr, tls, seqs, tn, speedup,
         List.length (List.filter (fun (_, n) -> n = name) failed_runs)))
      prepared
  in
  (* A program with no verified run has no speedup; [correct] is false. *)
  let speedup_geomean =
    geomean (List.filter Float.is_finite (List.map (fun (_, _, _, _, s, _) -> s) rows))
  in
  let end_to_end =
    [ ("setup_s", "s", setup_s); ("pass_s", "s", pass_s); ("pass_tail_s", "s", tail_s);
      ("speedup_geomean", "x", speedup_geomean); ("heap_peak_mb", "MB", heap_peak_mb) ]
  in
  let per_layer () =
    tracing := true;
    let (gbuf_costs, engine_ns, sched_ns, (push_pop, steal), mem_s), _ =
      timed "probes" (fun parent ->
          let g = probe_gbuf ~parent in
          let e = probe_engine ~parent in
          let s = probe_sched ~parent ~domains:host_domains in
          let d = probe_deque ~parent in
          let m = probe_memory ~parent wl in
          (g, e, s, d, m))
    in
    tracing := false;
    let per_pass f = median (List.map f traced_passes) in
    let seq_pass ps = sum (List.filter_map (fun r -> r.seq_s) ps.runs) in
    let counts = List.map (fun ps -> assoc_sum (List.map (fun r -> r.counts) ps.runs) counter_names) traced_passes in
    let count k = median (List.map (fun c -> List.assoc k c) counts) in
    (* Summed by program name, not in the seed's order, so the float
       sums repeat exactly across seeds. *)
    let vt =
      let runs = (List.hd traced_passes).runs in
      let runs = List.sort (fun a b -> compare a.name b.name) runs in
      assoc_sum (List.map (fun r -> r.vt) runs) vt_names
    in
    let commits = count "tm.commits" and rollbacks = count "tm.rollbacks" in
    let traced_pass_s = per_pass (fun ps -> ps.pass_s) in
    let seq_s = per_pass seq_pass in
    let ts_sum = sum (List.map (fun pr -> pr.ts) prepared) in
    let cost k = List.assoc k gbuf_costs in
    let gbuf_est_s =
      ((count "gbuf.loads" *. cost "gbuf.read_hit_ns")
      +. (count "gbuf.stores" *. cost "gbuf.write_ns")
      +. (count "gbuf.validate_words" *. cost "gbuf.validate_ns_per_word")
      +. (count "gbuf.commit_words" *. cost "gbuf.commit_ns_per_word"))
      /. 1e9
    in
    [ ("frontend.s", "s", rep_field (fun r -> r.frontend_s));
      ("frontend.mir_instrs", "count", float_of_int (List.fold_left (fun a pr -> a + pr.front_instrs) 0 prepared));
      ("speculator.s", "s", rep_field (fun r -> r.speculator_s));
      ("speculator.mir_instrs", "count", float_of_int (List.fold_left (fun a pr -> a + pr.spec_instrs) 0 prepared));
      ("prepare.s", "s", rep_field (fun r -> r.prepare_s));
      ("interp.seq_s", "s", seq_s);
      ("interp.ns_per_vcycle", "ns", seq_s *. 1e9 /. ts_sum);
      ("interp.memory_create_s", "s", mem_s *. float_of_int (List.length prepared));
      ("runtime.tls_over_seq", "x", traced_pass_s /. seq_s) ]
    @ List.map (fun k -> (k, "count", count k)) counter_names
    @ [ ("tm.commit_frac", "frac", if commits +. rollbacks = 0.0 then 1.0 else commits /. (commits +. rollbacks));
        ("par.busy_frac", "frac", per_pass (fun ps -> median (List.map (fun r -> r.busy) ps.runs)));
        ("vtime_cycles", "cycles", if wl.backend = Sim then sum (List.map (fun (_, _, _, tn, _, _) -> tn) rows) else 0.0) ]
    @ List.map (fun (k, v) -> (k, "cycles", v)) vt
    @ List.map (fun (k, v) -> (k, "ns", v)) gbuf_costs
    @ [ ("gbuf.share_est", "frac", gbuf_est_s /. traced_pass_s);
        ("engine.spawn_wait_ns", "ns", engine_ns);
        ("sched.spawn_wait_ns", "ns", sched_ns);
        ("deque.push_pop_ns", "ns", push_pop);
        ("deque.steal_ns", "ns", steal);
        ("gc.minor_mwords", "Mwords", per_pass (fun ps -> ps.minor_mwords));
        ("gc.promoted_mwords", "Mwords", per_pass (fun ps -> ps.promoted_mwords));
        ("gc.major_collections", "count", per_pass (fun ps -> ps.major_collections));
        ("failed_frac", "frac", float_of_int failed /. float_of_int attempted);
        ("obs.trace_overhead", "x", traced_pass_s /. pass_s) ]
  in
  let metrics = if traced_run then per_layer () else end_to_end in
  let detail =
    Json.Obj
      [ ("workload", Json.Str wl.wname);
        ("seed", num (float_of_int !seed));
        ("trace", num (float_of_int !trace));
        ( "provenance",
          Json.Obj
            [ ("nproc", num (float_of_int nproc)); ("ocaml", Json.Str Sys.ocaml_version);
              ("commit", Json.Str !commit); ("backend", Json.Str (if wl.backend = Sim then "sim" else "domains"));
              ("vcpus", num (float_of_int wl.ncpus)); ("domains", num (float_of_int wl.domains));
              ("domains_forced_below_2", Json.Bool (wl.backend = Domains && wl.domains < 2));
              ("seconds_requested", num !seconds); ("seconds_measured", num measured_s);
              ("passes", num (float_of_int (List.length measured)));
              ("traced_passes", num (float_of_int (List.length traced_passes))) ] );
        ("setup_s_reps", Json.List (List.map (fun r -> num r.total_s) reps));
        ("pass_s", quart pass_times);
        ("pass_s_series", Json.List (List.map num pass_times));
        ( "pass_tail_s",
          Json.Obj
            [ ("value", num tail_s); ("percentile", num tail_pct);
              ("samples_beyond", num (float_of_int tail_beyond));
              ("samples", num (float_of_int (List.length pass_times))) ] );
        ( "programs",
          Json.List
            (List.map
               (fun (pr, tls, seqs, tn, speedup, nfail) ->
                 Json.Obj
                   [ ("program", Json.Str pr.p.pname); ("tls_s", num tls);
                     ("seq_s", if seqs = [] then Json.Null else num (median seqs));
                     ("ts_vcycles", num pr.ts);
                     ("tn", if wl.backend = Sim then num tn else Json.Null);
                     ("speedup", num speedup); ("failed", num (float_of_int nfail)) ])
               rows) );
        ( "failures",
          Json.List
            (List.map
               (fun (i, n, why) ->
                 Json.Obj [ ("pass", num (float_of_int i)); ("program", Json.Str n); ("why", Json.Str why) ])
               failures) );
        ( "counts_quartiles",
          if traced_run && wl.backend = Domains then
            Json.Obj
              (List.map
                 (fun k ->
                   (k, quart (List.map (fun ps -> sum (List.map (fun r -> Option.value ~default:0.0 (List.assoc_opt k r.counts)) ps.runs)) traced_passes)))
                 counter_names)
          else Json.Null );
        ("self_s", Json.Obj (List.map (fun (k, v) -> (k, num v)) (self_times ())));
        ("metrics", Json.Obj (List.map metric metrics)) ]
  in
  if !out_dir <> "" then begin
    let stem = Printf.sprintf "%s/%s-trace%d-seed%d" !out_dir wl.wname !trace !seed in
    write_file (stem ^ ".json") (Json.to_string detail);
    if traced_run then write_file (stem ^ "-spans.json") (Json.to_string (spans_json ()))
  end;
  print_endline (Json.to_string detail);
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0)); ("attempted", num (float_of_int attempted));
            ("failed", num (float_of_int failed)); ("metrics", Json.Obj (List.map metric metrics)) ]))
