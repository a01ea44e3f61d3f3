(* mutlsc: command-line driver for the MUTLS system.

     mutlsc run prog.mc --cpus 8            compile + speculate + run
     mutlsc run prog.f90 --lang fortran --seq
     mutlsc dump prog.mc --transformed      print MIR before/after the pass
     mutlsc bench 3x+1 --cpus 64            run a built-in benchmark
     mutlsc bench fft --trace t.jsonl       write an event trace
     mutlsc bench fft --profile p.txt       profile the run while it executes
     mutlsc report t.jsonl                  fold a trace into Fig. 8/9
     mutlsc profile t.jsonl                 per-fork-point payoff, hot
                                            addresses, rank utilization
     mutlsc chaos --seed 7 --runs 500       randomized fault-injection
                                            campaign with shrinking
     mutlsc chaos --replay repro.json       re-run a minimized repro *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

type input_lang = Lang of Mutls.language | Mir

let lang_of_string path = function
  | Some "c" -> Lang Mutls.C
  | Some "fortran" | Some "f" -> Lang Mutls.Fortran
  | Some "mir" -> Mir
  | Some other -> invalid_arg ("unknown language " ^ other)
  | None ->
    if Filename.check_suffix path ".f" || Filename.check_suffix path ".f90"
       || Filename.check_suffix path ".mf"
    then Lang Mutls.Fortran
    else if Filename.check_suffix path ".mir" then Mir
    else Lang Mutls.C

(* .mir files are textual IR dumps (mutlsc dump); anything else goes
   through a front-end *)
let compile_input ~optimize path lang source =
  match lang_of_string path lang with
  | Lang l -> Mutls.compile ~optimize l source
  | Mir ->
    let m =
      try Mutls_mir.Parse.parse source
      with Mutls_mir.Parse.Error e -> raise (Mutls.Compile_error e)
    in
    (try Mutls.Verify.check_module m
     with Mutls.Verify.Invalid e -> raise (Mutls.Compile_error e));
    if optimize then Mutls.Opt.run_module m;
    m

let model_conv = function
  | "mixed" -> Mutls.Config.Mixed
  | "inorder" | "in-order" -> Mutls.Config.In_order
  | "outoforder" | "out-of-order" -> Mutls.Config.Out_of_order
  | other -> invalid_arg ("unknown model " ^ other)

(* --- shared options ---------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"Source file.")

let lang_arg =
  Arg.(value & opt (some string) None & info [ "lang" ] ~docv:"LANG"
         ~doc:"Source language: c, fortran or mir (default: from extension).")

let cpus_arg =
  Arg.(value & opt int 4 & info [ "cpus" ] ~docv:"N" ~doc:"Virtual CPUs.")

let domains_arg =
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"N"
         ~doc:"Run on the parallel OCaml 5 domains backend with $(docv) \
               domains (work stealing spreads the virtual CPUs' threads \
               over them) instead of the deterministic simulator.  Timing \
               becomes wall-clock; outputs still match the simulator.  0 \
               (the default) selects the simulator.")

let model_arg =
  Arg.(value & opt (some string) None & info [ "model" ]
         ~doc:"Force all fork points to one model: mixed, inorder, outoforder.")

let rollback_arg =
  Arg.(value & opt float 0.0 & info [ "rollback" ]
         ~doc:"Injected rollback probability (paper Fig. 11).")

let policy_arg =
  Arg.(value & opt string "static" & info [ "policy" ] ~docv:"POLICY"
         ~doc:"Speculation policy: $(b,static) (the paper's fixed \
               backoff/degrade scheme; combine with Config's backoff \
               knobs), $(b,adaptive) (closed-loop per-fork-point engine: \
               denies unprofitable points, expands store-free regions to \
               tracking-free execution), or $(b,hostile) (adversarial \
               decision stream, for robustness testing).")

(* "static"/"adaptive"/"hostile" -> a Policy.t with that kind's defaults *)
let policy_conv s =
  match Mutls.Config.Policy.kind_of_string s with
  | Mutls.Config.Policy.Static -> Mutls.Config.Policy.static ()
  | Mutls.Config.Policy.Adaptive -> Mutls.Config.Policy.adaptive ()
  | Mutls.Config.Policy.Hostile -> Mutls.Config.Policy.hostile ()

let shards_arg =
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N"
         ~doc:"GlobalBuffer shards (power of two); 64-byte lines \
               interleave across shards.")

let spill_slots_arg =
  Arg.(value & opt int 0 & info [ "spill-slots" ] ~docv:"N"
         ~doc:"GlobalBuffer spill-tier capacity (power of two; 0 disables). \
               With a spill tier, hash conflicts and full home slots spill \
               at a latency penalty instead of stalling or rolling back.")

let line_words_arg =
  Arg.(value & opt int 1 & info [ "line-words" ] ~docv:"N"
         ~doc:"Validation/commit granularity in words: 1 (per-word) or 8 \
               (64-byte lines).")

let buffers_of shards spill_slots line_words =
  { Mutls.Config.Buffers.default with
    Mutls.Config.Buffers.shards;
    spill_slots;
    line_words }

let buffers_term = Term.(const buffers_of $ shards_arg $ spill_slots_arg $ line_words_arg)

let seq_arg =
  Arg.(value & flag & info [ "seq" ] ~doc:"Run sequentially (no speculation).")

let opt_arg =
  Arg.(value & flag & info [ "O" ] ~doc:"Run the scalar optimizer first.")

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print TLS metrics after the run.")

let trace_arg =
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
         ~doc:"Write an event trace: $(i,.jsonl) files get JSON Lines (the \
               format $(b,mutlsc report) consumes), anything else Chrome \
               trace_event JSON loadable in chrome://tracing or Perfetto.")

let file_sink path =
  let oc = open_out path in
  let base =
    if Filename.check_suffix path ".jsonl" then
      Mutls.Trace.jsonl (output_string oc)
    else Mutls.Trace.chrome (output_string oc)
  in
  (* Idempotent close: the commands close their sink in a Fun.protect
     finalizer, which can run after an orderly close already happened —
     a second close_out on the same channel would raise. *)
  let closed = ref false in
  { base with
    Mutls.Trace.close =
      (fun () ->
        if not !closed then begin
          closed := true;
          Fun.protect
            ~finally:(fun () -> close_out_noerr oc)
            (fun () -> base.Mutls.Trace.close ())
        end) }

let make_sink trace =
  match trace with None -> Mutls.Trace.null | Some path -> file_sink path

let make_cfg cpus model rollback policy buffers sink =
  { Mutls.Config.default with
    ncpus = cpus;
    model_override = Option.map model_conv model;
    rollback_probability = rollback;
    policy = policy_conv policy;
    buffers;
    trace_sink = sink }

(* --- profile output ----------------------------------------------------- *)

let profile_arg =
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE"
         ~doc:"Profile the run with the streaming aggregator and write the \
               result to $(docv): $(i,.json) files get the machine-readable \
               profile, anything else the text tables (see \
               $(b,mutlsc profile)).")

let write_profile path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      if Filename.check_suffix path ".json" then
        output_string oc (Mutls.Json.to_string (Mutls.Profile.to_json p) ^ "\n")
      else begin
        let fmt = Format.formatter_of_out_channel oc in
        Mutls.Profile.pp fmt p;
        Format.pp_print_flush fmt ()
      end)

(* --- telemetry output ---------------------------------------------------- *)

let metrics_arg =
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE"
         ~doc:"Write the run's telemetry snapshot (always-on counters, \
               gauges, histograms) to $(docv): $(i,.json) files get JSON, \
               anything else Prometheus text exposition format.")

let write_metrics path snap =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      if Filename.check_suffix path ".json" then
        output_string oc
          (Mutls.Json.to_string (Mutls.Telemetry.to_json snap) ^ "\n")
      else output_string oc (Mutls.Telemetry.to_prometheus snap))

(* Observability finalizer shared by run/bench/chaos: flush and close
   the trace sink, then write the profile and metrics files — even
   when the protected run Trap'd or chaos injection raised mid-run
   (the sink-lifecycle bug this replaces dropped the buffered tail of
   the trace on those paths).  Never raises: a secondary I/O failure
   here must not mask the run's own exception, so it becomes a
   warning on stderr instead. *)
let obs_finally ?(sink = Mutls.Trace.null) ?write_prof ?write_snap () =
  let warn what e =
    Printf.eprintf "mutlsc: warning: failed to write %s: %s\n%!" what e
  in
  (try Mutls.Trace.close sink with Sys_error e -> warn "trace" e);
  (match write_prof with
  | None -> ()
  | Some f -> ( try f () with Sys_error e -> warn "profile" e));
  match write_snap with
  | None -> ()
  | Some f -> ( try f () with Sys_error e -> warn "metrics" e)

(* --- lenient trace input ------------------------------------------------- *)

(* Clean diagnostics for the trace-consuming subcommands: an empty file
   and non-JSONL input are errors; a partially malformed trace (e.g. a
   truncated last line from a killed run) folds the good records and
   warns about the skipped ones. *)
let fold_trace_file feed path =
  let stats = Mutls.Report.fold_jsonl_file_lenient feed path in
  if stats.Mutls.Report.lines = 0 then
    Error (Printf.sprintf "%s: empty trace (no records)" path)
  else if stats.Mutls.Report.parsed = 0 then
    Error
      (Printf.sprintf "%s: not a JSON Lines trace (%s)" path
         (Option.value stats.Mutls.Report.first_error
            ~default:"no parseable line"))
  else begin
    if stats.Mutls.Report.skipped > 0 then
      Printf.eprintf
        "mutlsc: warning: skipped %d malformed line(s) of %d (first: %s)\n%!"
        stats.Mutls.Report.skipped stats.Mutls.Report.lines
        (Option.value stats.Mutls.Report.first_error ~default:"?");
    Ok ()
  end

(* --- run ---------------------------------------------------------------- *)

let run_cmd =
  let run file lang cpus domains model rollback policy buffers seq stats
      optimize trace profile metrics =
    try
      let source = read_file file in
      let m = compile_input ~optimize file lang source in
      if seq then begin
        let r = Mutls.run_sequential m in
        print_string r.Mutls.Eval.soutput;
        Printf.printf "[sequential: %.0f virtual cycles]\n" r.Mutls.Eval.scost;
        `Ok ()
      end
      else begin
        (* the profiler is a streaming sink tee'd beside the trace file
           sink: no trace is buffered to produce the profile *)
        let prof = Option.map (fun _ -> Mutls.Profile.create ()) profile in
        let sink =
          match prof with
          | None -> make_sink trace
          | Some agg ->
            Mutls.Trace.tee [ make_sink trace; Mutls.Profile.sink agg ]
        in
        (* a fresh registry scopes --metrics to this run, rather than
           accumulating into the process-wide default *)
        let reg = Mutls.Telemetry.create () in
        let cfg =
          { (make_cfg cpus model rollback policy buffers sink) with
            Mutls.Config.telemetry = reg;
            Mutls.Config.domains = max 1 domains }
        in
        let seq_r = Mutls.run_sequential ~cost:cfg.Mutls.Config.cost m in
        let t = Mutls.speculate m in
        let r =
          Fun.protect
            ~finally:
              (obs_finally ~sink
                 ?write_prof:
                   (match (profile, prof) with
                   | Some path, Some agg ->
                     Some
                       (fun () ->
                         write_profile path (Mutls.Profile.finish agg))
                   | _ -> None)
                 ?write_snap:
                   (Option.map
                      (fun path () ->
                        write_metrics path (Mutls.Telemetry.snapshot reg))
                      metrics))
            (fun () ->
              if domains > 0 then Mutls.run_tls_par cfg t
              else Mutls.run_tls cfg t)
        in
        print_string r.Mutls.Eval.toutput;
        if domains > 0 then
          (* wall-clock time; the virtual-cycle metrics belong to the
             simulator path *)
          Printf.printf "[TLS on %d CPUs over %d domains: %.4f s wall]\n" cpus
            domains r.Mutls.Eval.tfinish
        else begin
          let metrics = Mutls.Metrics.compute ~ts:seq_r.Mutls.Eval.scost r in
          Printf.printf "[TLS on %d CPUs: %.0f cycles, speedup %.2f]\n" cpus
            r.Mutls.Eval.tfinish metrics.Mutls.Metrics.speedup;
          if stats then Format.printf "%a@." Mutls.Metrics.pp metrics
        end;
        if r.Mutls.Eval.toutput <> seq_r.Mutls.Eval.soutput then begin
          Printf.eprintf "error: TLS output diverged from sequential run\n";
          exit 2
        end;
        `Ok ()
      end
    with
    | Mutls.Compile_error e -> `Error (false, "compile error: " ^ e)
    | Mutls.Eval.Trap e -> `Error (false, "runtime trap: " ^ e)
    | Invalid_argument e -> `Error (false, e)
    | Sys_error e -> `Error (false, e)
  in
  let info = Cmd.info "run" ~doc:"Compile a program and run it under TLS." in
  Cmd.v info
    Term.(
      ret
        (const run $ file_arg $ lang_arg $ cpus_arg $ domains_arg $ model_arg
       $ rollback_arg $ policy_arg $ buffers_term $ seq_arg $ stats_arg
       $ opt_arg $ trace_arg $ profile_arg $ metrics_arg))

(* --- dump --------------------------------------------------------------- *)

let dump_cmd =
  let dump file lang transformed optimize =
    try
      let source = read_file file in
      let m = compile_input ~optimize file lang source in
      let m = if transformed then Mutls.speculate m else m in
      print_string (Mutls.Printer.module_to_string m);
      `Ok ()
    with
    | Mutls.Compile_error e -> `Error (false, "compile error: " ^ e)
    | Invalid_argument e -> `Error (false, e)
  in
  let transformed_arg =
    Arg.(value & flag & info [ "transformed" ]
           ~doc:"Print the IR after the speculator pass.")
  in
  let info = Cmd.info "dump" ~doc:"Print the MIR of a program." in
  Cmd.v info
    Term.(ret (const dump $ file_arg $ lang_arg $ transformed_arg $ opt_arg))

(* --- bench -------------------------------------------------------------- *)

let bench_cmd =
  let bench name cpus domains model rollback policy buffers stats trace profile
      metrics_file =
    try
      let w = Mutls.Workloads.find name in
      if domains > 0 then begin
        (* parallel backend: a wall-clock measurement with the oracle
           check; the virtual-time metrics and observability hooks
           belong to the simulator path *)
        let wall =
          Mutls.Experiments.run_par ~policy:(policy_conv policy) ~domains
            ~ncpus:cpus w
        in
        Printf.printf "%s on %d CPUs over %d domains: %.4f s wall\n" name cpus
          domains wall;
        `Ok ()
      end
      else begin
      let sink = make_sink trace in
      (* --metrics scopes telemetry to a fresh registry for this run;
         passing ?telemetry also bypasses the metrics cache so the
         benchmark really executes *)
      let reg =
        Option.map (fun _ -> Mutls.Telemetry.create ()) metrics_file
      in
      let metrics =
        Fun.protect
          ~finally:
            (obs_finally ~sink
               ?write_snap:
                 (match (metrics_file, reg) with
                 | Some path, Some reg ->
                   Some
                     (fun () ->
                       write_metrics path (Mutls.Telemetry.snapshot reg))
                 | _ -> None))
          (fun () ->
            Mutls.Experiments.run
              ~model_override:(Option.map model_conv model)
              ~rollback ~trace_sink:sink
              ?profile:(Option.map (fun path -> write_profile path) profile)
              ?telemetry:reg ~policy:(policy_conv policy) ~buffers ~ncpus:cpus
              w)
      in
      Format.printf "%s on %d CPUs: %a@." name cpus Mutls.Metrics.pp metrics;
      if stats then
        List.iter
          (fun (c, v) -> Printf.printf "  critical %-10s %5.1f%%\n" c (100. *. v))
          metrics.Mutls.Metrics.crit_breakdown;
      `Ok ()
    end
    with
    | Invalid_argument e -> `Error (false, e)
    | Sys_error e -> `Error (false, e)
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"BENCHMARK"
           ~doc:"One of the paper's benchmarks (Table II), e.g. 3x+1, fft.")
  in
  let info = Cmd.info "bench" ~doc:"Run a built-in benchmark under TLS." in
  Cmd.v info
    Term.(
      ret
        (const bench $ name_arg $ cpus_arg $ domains_arg $ model_arg
       $ rollback_arg $ policy_arg $ buffers_term $ stats_arg $ trace_arg
       $ profile_arg $ metrics_arg))

(* --- report ------------------------------------------------------------- *)

let trace_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE"
         ~doc:"A JSON Lines trace written by $(b,--trace FILE.jsonl).")

let report_cmd =
  let report file =
    try
      (* report needs the records in order but not all at once; the
         accumulation keeps `mutlsc report` working on traces with
         damaged lines (e.g. truncated by a killed run) *)
      let acc = ref [] in
      match fold_trace_file (fun r -> acc := r :: !acc) file with
      | Error e -> `Error (false, e)
      | Ok () ->
        let r = Mutls.Report.of_records (List.rev !acc) in
        Format.printf "%a@." Mutls.Report.pp r;
        `Ok ()
    with
    | Sys_error e -> `Error (false, e)
  in
  let info =
    Cmd.info "report"
      ~doc:"Fold a JSON Lines trace into the paper's Fig. 8/9 breakdowns."
  in
  Cmd.v info Term.(ret (const report $ trace_file_arg))

(* --- profile ------------------------------------------------------------- *)

let profile_cmd =
  let profile file json threshold min_forks top =
    try
      let agg = Mutls.Profile.create () in
      match fold_trace_file (Mutls.Profile.feed agg) file with
      | Error e -> `Error (false, e)
      | Ok () ->
        let p = Mutls.Profile.finish agg in
        (if json then
           print_string
             (Mutls.Json.to_string
                (Mutls.Profile.to_json ~threshold ~min_forks p)
             ^ "\n")
         else
           Format.printf "%a@."
             (fun fmt -> Mutls.Profile.pp ~threshold ~min_forks ~top fmt)
             p);
        `Ok ()
    with
    | Sys_error e -> `Error (false, e)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the profile as machine-readable JSON.")
  in
  let threshold_arg =
    Arg.(value & opt float 0.5 & info [ "threshold" ] ~docv:"R"
           ~doc:"Advisor: flag fork points whose wasted-work ratio exceeds \
                 $(docv) as no-speculate candidates.")
  in
  let min_forks_arg =
    Arg.(value & opt int 1 & info [ "min-forks" ] ~docv:"N"
           ~doc:"Advisor: ignore fork points with fewer than $(docv) forks.")
  in
  let top_arg =
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"N"
           ~doc:"Show the $(docv) hottest conflict addresses.")
  in
  let info =
    Cmd.info "profile"
      ~doc:"Aggregate a JSON Lines trace into a speculation profile: \
            per-fork-point payoff, conflict hot addresses, per-rank \
            utilization and no-speculate advice."
  in
  Cmd.v info
    Term.(
      ret
        (const profile $ trace_file_arg $ json_arg $ threshold_arg
       $ min_forks_arg $ top_arg))

(* --- spans --------------------------------------------------------------- *)

let spans_cmd =
  let spans file json =
    try
      let acc = ref [] in
      match fold_trace_file (fun r -> acc := r :: !acc) file with
      | Error e -> `Error (false, e)
      | Ok () ->
        let t = Mutls.Spans.of_records (List.rev !acc) in
        (if json then
           print_string (Mutls.Json.to_string (Mutls.Spans.to_json t) ^ "\n")
         else Format.printf "%a@?" Mutls.Spans.pp t);
        `Ok ()
    with Sys_error e -> `Error (false, e)
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Emit the span tree and critical path as JSON.")
  in
  let info =
    Cmd.info "spans"
      ~doc:"Fold a JSON Lines trace into causal span timelines: one span \
            per thread with fork/join causality edges, plus the critical \
            path through the speculation DAG (whose segment durations sum \
            to the run's total runtime)."
  in
  Cmd.v info Term.(ret (const spans $ trace_file_arg $ json_arg))

(* --- top ----------------------------------------------------------------- *)

let top_cmd =
  let top name cpus model rollback policy buffers interval seed runs =
    try
      (* In-place redraw: move the cursor back over the previous frame
         and clear to end of screen, then print the fresh snapshot. *)
      let lines = ref 0 in
      let draw reg =
        let s =
          Format.asprintf "%a" Mutls.Telemetry.pp (Mutls.Telemetry.snapshot reg)
        in
        if !lines > 0 then Printf.printf "\027[%dA\027[J" !lines;
        print_string s;
        flush stdout;
        lines := List.length (String.split_on_char '\n' s) - 1
      in
      if name = "chaos" then begin
        (* chaos cases build their own configs, which record into the
           process-wide default registry; redraw once per case *)
        let reg = Mutls.Telemetry.default in
        let c =
          Fun.protect
            ~finally:(fun () -> draw reg)
            (fun () ->
              Mutls.Chaos.run_campaign
                ~progress:(fun _ _ -> draw reg)
                ~policy:(Mutls.Config.Policy.kind_of_string policy)
                ~seed ~runs ())
        in
        Printf.printf "chaos: %d/%d cases passed (seed %d)\n"
          c.Mutls.Chaos.passed c.Mutls.Chaos.requested seed;
        if c.Mutls.Chaos.failed = None then `Ok ()
        else `Error (false, "chaos campaign failed (re-run mutlsc chaos)")
      end
      else begin
        let w = Mutls.Workloads.find name in
        let reg = Mutls.Telemetry.create () in
        (* the refresher is an enabled trace sink, so the run bypasses
           the metrics cache and really executes; every [interval]
           records it redraws the live snapshot *)
        let count = ref 0 in
        let refresher =
          {
            Mutls.Trace.enabled = true;
            emit =
              (fun _ ->
                incr count;
                if !count mod interval = 0 then draw reg);
            close = (fun () -> ());
          }
        in
        let metrics =
          Fun.protect
            ~finally:(fun () -> draw reg)
            (fun () ->
              Mutls.Experiments.run ~trace_sink:refresher ~telemetry:reg
                ~model_override:(Option.map model_conv model)
                ~rollback ~policy:(policy_conv policy) ~buffers ~ncpus:cpus w)
        in
        Format.printf "%s on %d CPUs: %a@." name cpus Mutls.Metrics.pp metrics;
        `Ok ()
      end
    with
    | Invalid_argument e -> `Error (false, e)
    | Sys_error e -> `Error (false, e)
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TARGET"
           ~doc:"A built-in benchmark (e.g. 3x+1, fft), or the literal \
                 $(b,chaos) to watch a fault-injection campaign.")
  in
  let interval_arg =
    Arg.(value & opt int 2000 & info [ "interval" ] ~docv:"N"
           ~doc:"Refresh the view every $(docv) trace records.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed (chaos target only).")
  in
  let runs_arg =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N"
           ~doc:"Campaign cases (chaos target only).")
  in
  let info =
    Cmd.info "top"
      ~doc:"Live terminal view of the always-on telemetry while a benchmark \
            or chaos campaign runs: fork/commit/rollback rates by reason, \
            policy decisions, buffer occupancy — refreshed in place."
  in
  Cmd.v info
    Term.(
      ret
        (const top $ name_arg $ cpus_arg $ model_arg $ rollback_arg
       $ policy_arg $ buffers_term $ interval_arg $ seed_arg $ runs_arg))

(* --- chaos --------------------------------------------------------------- *)

let chaos_cmd =
  let chaos seed runs policy out replay quiet metrics =
    try
      Fun.protect
        ~finally:
          (obs_finally
             ?write_snap:
               (Option.map
                  (fun path () ->
                    (* chaos cases run on Config.default, so their
                       telemetry lands in the process-wide registry *)
                    write_metrics path
                      (Mutls.Telemetry.snapshot Mutls.Telemetry.default))
                  metrics))
        (fun () ->
      match replay with
      | Some path ->
        let case =
          Mutls.Chaos.case_of_json (Mutls.Json.of_string (read_file path))
        in
        let r = Mutls.Chaos.run_case case in
        (match r.Mutls.Chaos.failure with
        | None ->
          Printf.printf "replay: case %d passed (%d fault(s) injected%s)\n"
            case.Mutls.Chaos.label
            (List.fold_left (fun a (_, n) -> a + n) 0 r.Mutls.Chaos.injected)
            (if r.Mutls.Chaos.degraded then ", degraded to sequential" else "");
          `Ok ()
        | Some f ->
          `Error
            ( false,
              Printf.sprintf "replay: case %d still fails: %s"
                case.Mutls.Chaos.label
                (Mutls.Chaos.failure_to_string f) ))
      | None ->
        let progress i n =
          if (not quiet) && (i mod 25 = 0 || i = n - 1) then
            Printf.eprintf "chaos: case %d/%d\n%!" i n
        in
        let c =
          Mutls.Chaos.run_campaign ~progress
            ~policy:(Mutls.Config.Policy.kind_of_string policy)
            ~seed ~runs ()
        in
        (match (c.Mutls.Chaos.failed, c.Mutls.Chaos.minimized) with
        | None, _ ->
          Printf.printf
            "chaos: %d/%d cases passed (seed %d, %d fault(s) injected, %d \
             degraded run(s))\n"
            c.Mutls.Chaos.passed c.Mutls.Chaos.requested seed
            c.Mutls.Chaos.injected_total c.Mutls.Chaos.degraded_runs;
          `Ok ()
        | Some (case0, r0), minimized ->
          let mcase, mr = Option.value minimized ~default:(case0, r0) in
          let oc = open_out out in
          output_string oc
            (Mutls.Json.to_string
               (Mutls.Chaos.repro_to_json ~campaign_seed:seed mcase mr)
            ^ "\n");
          close_out oc;
          let fdesc =
            match mr.Mutls.Chaos.failure with
            | Some f -> Mutls.Chaos.failure_to_string f
            | None -> "unknown failure"
          in
          `Error
            ( false,
              Printf.sprintf
                "chaos: case %d of seed %d failed after %d clean case(s): %s \
                 (minimized repro written to %s; re-run it with --replay)"
                case0.Mutls.Chaos.label seed c.Mutls.Chaos.passed fdesc out )))
    with
    | Mutls.Compile_error e -> `Error (false, "compile error: " ^ e)
    | Invalid_argument e -> `Error (false, e)
    | Sys_error e -> `Error (false, e)
    | Mutls.Json.Parse_error e -> `Error (false, "replay: not a repro file: " ^ e)
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Campaign seed; the same seed replays the identical campaign, \
                 faults and all.")
  in
  let runs_arg =
    Arg.(value & opt int 200 & info [ "runs" ] ~docv:"N"
           ~doc:"Number of randomized cases to run.")
  in
  let out_arg =
    Arg.(value & opt string "chaos-repro.json" & info [ "out" ] ~docv:"FILE"
           ~doc:"Where to write the minimized JSON repro when a case fails.")
  in
  let replay_arg =
    Arg.(value & opt (some file) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-run the single case stored in a repro file instead of \
                 running a campaign.")
  in
  let chaos_policy_arg =
    Arg.(value & opt string "static" & info [ "policy" ] ~docv:"POLICY"
           ~doc:"Speculation policy for every generated case: static, \
                 adaptive or hostile.  The case generator is untouched, so \
                 the same seed explores the same programs and fault \
                 schedules under the chosen policy.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet" ] ~doc:"Suppress progress output.")
  in
  let info =
    Cmd.info "chaos"
      ~doc:"Randomized robustness campaign: random annotated programs crossed \
            with fault-injection schedules, CPU counts and shrunken buffers, \
            checking sequential equivalence and the trace-protocol oracle on \
            every case; failures shrink to a minimal JSON repro."
  in
  Cmd.v info
    Term.(
      ret
        (const chaos $ seed_arg $ runs_arg $ chaos_policy_arg $ out_arg
       $ replay_arg $ quiet_arg $ metrics_arg))

(* User-facing failures exit 1 (bad programs, runtime traps, unreadable
   or malformed inputs, failed chaos campaigns) and command-line misuse
   exits 2; anything escaping the per-command handlers becomes a
   one-line diagnostic rather than a raw OCaml backtrace. *)
let () =
  let info =
    Cmd.info "mutlsc" ~version:"1.0"
      ~doc:"Mixed-model universal software thread-level speculation"
  in
  let group =
    Cmd.group info
      [ run_cmd; dump_cmd; bench_cmd; report_cmd; profile_cmd; chaos_cmd;
        spans_cmd; top_cmd ]
  in
  let code =
    try Cmd.eval ~catch:false ~term_err:1 group with
    | Mutls.Compile_error e ->
      Printf.eprintf "mutlsc: compile error: %s\n%!" e;
      1
    | Mutls.Eval.Trap e ->
      Printf.eprintf "mutlsc: runtime trap: %s\n%!" e;
      1
    | Sys_error e | Invalid_argument e | Failure e ->
      Printf.eprintf "mutlsc: %s\n%!" e;
      1
    | e ->
      Printf.eprintf "mutlsc: internal error: %s\n%!" (Printexc.to_string e);
      125
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
