(* campaign: run any of the paper's experiments from the command line.

   Subcommands mirror the per-experiment index of DESIGN.md:
     table1 | table2 | table3 | table4 | table5 | figure1 | figure2
     | races | reduce | triage | fuzz | report
   with -n to scale the sample sizes. The table campaigns persist their
   cells to a crash-safe journal (--journal FILE), continue interrupted or
   smaller runs (--resume), and archive their distinct-bug witnesses to a
   content-addressed corpus (--corpus DIR); triage deduplicates a journal
   into buckets; fuzz replaces the blind seed sweep with coverage-guided,
   feedback-directed search (DESIGN.md section 11). Every subcommand exits
   nonzero on failure. *)

open Cmdliner

(* every operator-facing diagnostic goes through [report], so all of them
   carry the "campaign:" prefix *)
let report fmt = Printf.ksprintf (fun m -> prerr_endline ("campaign: " ^ m)) fmt
let warn fmt = report ("warning: " ^^ fmt)
let fail fmt =
  Printf.ksprintf
    (fun m ->
      report "%s" m;
      1)
    fmt

(* every subcommand renders its report into a string and emits it here *)
let emit out text =
  match out with
  | None ->
      print_string text;
      0
  | Some path -> (
      try
        let oc = open_out path in
        output_string oc text;
        close_out oc;
        0
      with Sys_error m -> fail "%s" m)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE"
        ~doc:"Write the report to $(docv) instead of stdout.")

let n_arg default doc = Arg.(value & opt int default & info [ "n" ] ~doc)

let jobs_arg =
  Arg.(
    value
    & opt int (Pool.recommended_jobs ())
    & info [ "j"; "jobs" ]
        ~doc:
          "Size of the execution pool (worker domains). Defaults to the \
           recommended domain count. Output is byte-identical across -j \
           values.")

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ]
        ~doc:
          "Per-task soft timeout: the interpreter's per-thread step budget. \
           Exhaustion is counted as a timeout.")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:
          "Persist every completed cell to a crash-safe JSONL journal at \
           $(docv), appended and flushed in deterministic task order.")

let resume_arg =
  Arg.(
    value & flag
    & info [ "resume" ]
        ~doc:
          "Replay the journal named by $(b,--journal) first: cells already \
           recorded are not re-executed, only the remainder runs, and the \
           finished run (table and rewritten journal) is byte-identical to \
           an uninterrupted one. The journal's campaign parameters must \
           match; sample sizes (-n) may differ.")

let corpus_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "corpus" ] ~docv:"DIR"
        ~doc:
          "Archive each distinct-bug bucket's exemplar kernel to the \
           content-addressed corpus at $(docv).")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Dump the campaign's metrics registry (cell totals, interpreter \
           work, outcome-class tallies, pool gauges) to $(docv) as canonical \
           JSON after the run. The deterministic totals are identical across \
           $(b,-j) values.")

let prom_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "prom" ] ~docv:"FILE"
        ~doc:
          "Dump the metrics registry to $(docv) in Prometheus text \
           exposition format after the run — every counter, plus \
           cumulative power-of-two histogram buckets — ready for a \
           textfile collector to scrape.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Record a span for every pipeline stage (generate, typecheck, \
           optimisation passes, per-config execution, vote, journal append) \
           and write a Chrome trace-event JSON to $(docv) — load it in \
           ui.perfetto.dev or chrome://tracing; one pid per domain.")

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"FILE"
        ~doc:
          "Arm the interpreter cost profiler: count one tick per AST-node \
           visit, keyed by construct kind and static location, and write the \
           per-cell profile to $(docv) as checksummed JSONL (plus a \
           $(docv).folded collapsed-stack aggregate for flamegraph.pl / \
           speedscope). Counts fold over the ordered merged cell stream, so \
           the file is byte-identical across $(b,-j) values; render it with \
           $(b,campaign profile) $(docv).")

let progress_arg =
  Arg.(
    value & flag
    & info [ "progress" ]
        ~doc:
          "Render a live stderr progress line: done/total cells, cells/s, \
           ETA and running class tallies. Purely cosmetic — table and \
           journal bytes are unchanged.")

let events_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "events" ] ~docv:"FILE"
        ~doc:
          "Write a schema-versioned structured eventlog (campaign lifecycle, \
           per-cell completions, fuzz generations, coverage deltas, triage \
           hits) to $(docv) as checksummed JSONL. Lifecycle events are \
           emitted in deterministic task order: without $(b,--trace) or a \
           watchdog, the file is byte-identical across $(b,-j) values.")

let watchdog_timeout_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "watchdog-timeout" ] ~docv:"SECS"
        ~doc:
          "Arm a stall watchdog: a monitoring domain that warns after \
           $(docv)/2 seconds without a completed cell and records a stall \
           event (listing stale worker domains) after $(docv) seconds. \
           Choose $(docv) above the longest legitimate quiet window (e.g. \
           $(b,--minimize) reduction runs).")

let watchdog_abort_arg =
  Arg.(
    value & flag
    & info [ "watchdog-abort" ]
        ~doc:
          "Escalate a watchdog stall to an abort: exit nonzero instead of \
           hanging forever, so CI fails fast rather than hitting the \
           job-level timeout. Requires $(b,--watchdog-timeout).")

(* everything observability-related that rides alongside a campaign *)
type obs_opts = {
  o_metrics : string option;
  o_prom : string option;
  o_trace : string option;
  o_profile : string option;
  o_progress : bool;
  o_events : string option;
  o_wd_timeout : int option;  (* seconds *)
  o_wd_abort : bool;
}

let telemetry_term =
  let combine o_metrics o_prom o_trace o_profile o_progress o_events
      o_wd_timeout o_wd_abort =
    { o_metrics; o_prom; o_trace; o_profile; o_progress; o_events;
      o_wd_timeout; o_wd_abort }
  in
  Term.(
    const combine $ metrics_arg $ prom_arg $ trace_arg $ profile_arg
    $ progress_arg $ events_arg $ watchdog_timeout_arg $ watchdog_abort_arg)

(* one short class tag per journalled cell, for the progress tallies *)
let tag_of_cell (c : Journal.cell) =
  match c.Journal.outcomes with
  | [] -> if c.Journal.note = "" then "ok" else c.Journal.note
  | outcomes -> (
      match List.find_opt (fun o -> not (Outcome.is_computed o)) outcomes with
      | Some o -> Outcome.short_tag o
      | None -> "ok")

(* Arm span collection, the eventlog, the watchdog and the progress line
   around [k], then emit the requested telemetry files. [k] receives a
   sink wrapper that teaches a campaign's cell stream to drive the
   progress display and the eventlog, plus an event emitter for campaigns
   that produce their own lifecycle events (fuzz). The run's one watchdog
   polls [probe] (the local pool by default) and hands every event with
   the emitter to [on_stall]. Telemetry never touches stdout, the table
   or the journal; a file that cannot be written fails the run only
   after the campaign itself finished. *)
let with_telemetry ~telemetry:t ?fleet_groups ?probe
    ?(on_stall = fun _ (_ : Watchdog.snapshot) -> ()) ~header ~label ~total k =
  if t.o_trace <> None then begin
    Span.reset ();
    Span.enable ()
  end;
  if t.o_profile <> None then begin
    Costprof.reset ();
    Costprof.enable ()
  end;
  match
    try Ok (Option.map (fun path -> Eventlog.create ~path) t.o_events)
    with Sys_error m -> Error m
  with
  | Error m -> fail "events: %s" m
  | Ok ev_writer ->
      let emit_ev e =
        match ev_writer with Some w -> Eventlog.emit w e | None -> ()
      in
      emit_ev
        (Eventlog.Campaign_start
           {
             campaign = header.Journal.campaign;
             ident = header.Journal.ident;
             scale = header.Journal.scale;
             total;
           });
      let cells_seen = ref 0 in
      (* the line starts when the cell stream is first wrapped: a local
         campaign wraps at once, coordinate only for its merge, so the
         merge's rate is not measured against the fabric phase's wall *)
      let prog = ref None in
      let wrap sink =
        if t.o_progress && !prog = None then
          prog := Some (Progress.create ~label ~total ());
        let prog = !prog in
        match (prog, ev_writer) with
        | None, None -> sink
        | _ ->
            Some
              (fun (c : Journal.cell) ->
                let tag = tag_of_cell c in
                (match prog with
                | Some p -> Progress.step p ~tag
                | None -> ());
                incr cells_seen;
                emit_ev
                  (Eventlog.Cell
                     {
                       index = c.Journal.index;
                       seed = c.Journal.seed;
                       mode = c.Journal.mode;
                       config = c.Journal.config;
                       opt = c.Journal.opt;
                       cls = tag;
                     });
                match sink with Some s -> s c | None -> ())
      in
      let wd =
        match t.o_wd_timeout with
        | None ->
            if t.o_wd_abort then
              warn "--watchdog-abort has no effect without --watchdog-timeout";
            None
        | Some secs ->
            let on_event level (s : Watchdog.snapshot) =
              warn "watchdog %s: no progress for %d ms (%d completed, %d in \
                    flight%s)"
                (Watchdog.level_name level)
                s.Watchdog.idle_ms s.Watchdog.completed s.Watchdog.in_flight
                (match s.Watchdog.stalled_domains with
                | [] -> ""
                | ds ->
                    Printf.sprintf ", stale domains %s"
                      (String.concat "," (List.map string_of_int ds)));
              emit_ev
                (Eventlog.Watchdog
                   {
                     level = Watchdog.level_name level;
                     completed = s.Watchdog.completed;
                     in_flight = s.Watchdog.in_flight;
                     stalled_domains = s.Watchdog.stalled_domains;
                     idle_ms = s.Watchdog.idle_ms;
                   });
              on_stall emit_ev s
            in
            let abort =
              if t.o_wd_abort then
                Some
                  (fun (_ : Watchdog.snapshot) ->
                    report "watchdog: stalled campaign aborted";
                    (match ev_writer with
                    | Some w -> Eventlog.close w
                    | None -> ());
                    Stdlib.exit 2)
              else None
            in
            Some
              (Watchdog.start ~timeout_ms:(secs * 1000) ?probe ?abort ~on_event
                 ())
      in
      let rc = k wrap emit_ev in
      (match wd with Some w -> Watchdog.stop w | None -> ());
      (match !prog with Some p -> Progress.finish p | None -> ());
      let write_json path json =
        try
          let oc = open_out path in
          output_string oc (Jsonl.to_string json);
          output_char oc '\n';
          close_out oc;
          0
        with Sys_error m -> fail "%s" m
      in
      let rc_metrics =
        match t.o_metrics with
        | None -> 0
        | Some path -> write_json path (Metrics.to_json ())
      in
      let rc_prom =
        match t.o_prom with
        | None -> 0
        | Some path -> (
            try
              let oc = open_out path in
              output_string oc (Metrics.to_prometheus ());
              close_out oc;
              0
            with Sys_error m -> fail "%s" m)
      in
      let rc_trace =
        match t.o_trace with
        | None -> 0
        | Some path ->
            Span.disable ();
            let spans = Span.drain () in
            (match Span.stage_us spans with
            | [] -> ()
            | stages -> emit_ev (Eventlog.Stage_timing stages));
            (* worker span buffers shipped over the fabric merge into
               the same trace, one pid per worker with the coordinator
               as pid 0 *)
            let groups =
              match fleet_groups with None -> [] | Some f -> f ()
            in
            (try
               (if groups = [] then Trace.write ~path spans
                else Trace.write_groups ~path (("coordinator", spans) :: groups));
               0
             with Sys_error m -> fail "%s" m)
      in
      let rc_profile =
        match t.o_profile with
        | None -> 0
        | Some path -> (
            Costprof.disable ();
            let cells = Costprof.snapshot () in
            Costprof.reset ();
            try
              Costprof.write ~path cells;
              Costprof.write_folded ~path:(path ^ ".folded") cells;
              0
            with Sys_error m -> fail "%s" m)
      in
      emit_ev (Eventlog.Campaign_end { cells = !cells_seen });
      (match ev_writer with Some w -> Eventlog.close w | None -> ());
      max rc (max rc_metrics (max rc_prom (max rc_trace rc_profile)))

(* run [k sink resumed_cells] under the requested journal plumbing *)
let with_journal ~header ~journal ~resume k =
  match (journal, resume) with
  | None, true -> Error "--resume requires --journal FILE"
  | None, false -> Ok (k None [])
  | Some path, false -> (
      try
        let w = Journal.create ~path header in
        let r = k (Some (Journal.write_cell w)) [] in
        Journal.commit w;
        Ok r
      with Sys_error m -> Error m)
  | Some path, true -> (
      match Journal.resume ~path header with
      | Error e -> Error (Journal.error_to_string e)
      | Ok (w, cells) -> (
          try
            let r = k (Some (Journal.write_cell w)) cells in
            Journal.commit w;
            Ok r
          with Sys_error m -> Error m))

(* one exemplar kernel per bucket into the corpus at [dir], its count
   appended to [report] *)
let archive ~dir buckets report =
  Result.map
    (fun added ->
      report
      ^ Printf.sprintf "corpus: %d new of %d exemplars in %s\n" added
          (List.length buckets) dir)
    (Corpus.add_all ~dir (Triage.corpus_entries buckets))

(* the text a campaign run prints *)
let report_of = function
  | Spec.Table text -> text ^ "\n"
  | Spec.Fuzz r -> Fuzz_loop.to_table r ^ "\n"

(* Run one campaign spec in this process under the journal and telemetry
   plumbing — the path of every campaign subcommand. [tap] sees the
   journal sink (table4's corpus collects the cell stream there);
   [finish] turns the run's summary into the exit code. *)
let run_campaign ~jobs ~journal ~resume ~telemetry ~tap ~finish = function
  | Error m -> fail "%s" m
  | Ok spec -> (
      let header = Spec.header spec in
      with_telemetry ~telemetry ~header ~label:spec.Spec.campaign
        ~total:(Spec.total_cells spec)
      @@ fun wrap ev ->
      match
        with_journal ~header ~journal ~resume (fun sink cells ->
            Spec.run_local ~jobs ?sink:(wrap (tap sink)) ~events:ev
              ~resume:cells spec)
      with
      | Error m -> fail "%s" m
      | Ok summary -> finish spec summary)

let table1_cmd =
  let run n jobs fuel journal resume out telemetry =
    run_campaign ~jobs ~journal ~resume ~telemetry ~tap:Fun.id
      ~finish:(fun _ s -> emit out (report_of s))
      (Spec.make ~campaign:"table1" ~n ?fuel ())
  in
  Cmd.v (Cmd.info "table1" ~doc:"Initial testing and reliability threshold")
    Term.(
      const run
      $ n_arg (Spec.default_n "table1") "initial kernels per mode (paper: 100)"
      $ jobs_arg $ fuel_arg $ journal_arg $ resume_arg $ out_arg
      $ telemetry_term)

let table2_cmd =
  let run out = emit out (Suite.table2 () ^ "\n") in
  Cmd.v (Cmd.info "table2" ~doc:"Benchmark suite summary") Term.(const run $ out_arg)

let table3_cmd =
  let run n jobs fuel journal resume out telemetry =
    run_campaign ~jobs ~journal ~resume ~telemetry ~tap:Fun.id
      ~finish:(fun _ s -> emit out (report_of s))
      (Spec.make ~campaign:"table3" ~n:0 ?fuel ~variants:n ())
  in
  Cmd.v (Cmd.info "table3" ~doc:"EMI testing over the Parboil/Rodinia ports")
    Term.(
      const run
      $ n_arg (Spec.default_n "table3") "EMI variants per benchmark (paper: 125)"
      $ jobs_arg $ fuel_arg $ journal_arg $ resume_arg $ out_arg
      $ telemetry_term)

let table4_cmd =
  let run n jobs fuel journal resume corpus out telemetry =
    (* the corpus is populated from the run's own cell stream, so it works
       with or without a journal *)
    let collected = ref [] in
    let tap sink =
      match (corpus, sink) with
      | None, s -> s
      | Some _, None -> Some (fun c -> collected := c :: !collected)
      | Some _, Some s ->
          Some
            (fun c ->
              collected := c :: !collected;
              s c)
    in
    let finish spec s =
      let report = report_of s in
      match corpus with
      | None -> emit out report
      | Some dir -> (
          match
            Result.bind
              (Triage.of_journal (Spec.header spec) (List.rev !collected))
              (fun buckets -> archive ~dir buckets report)
          with
          | Error m -> fail "corpus: %s" m
          | Ok report -> emit out report)
    in
    run_campaign ~jobs ~journal ~resume ~telemetry ~tap ~finish
      (Spec.make ~campaign:"table4" ~n ?fuel ())
  in
  Cmd.v (Cmd.info "table4" ~doc:"Intensive CLsmith differential testing")
    Term.(
      const run
      $ n_arg (Spec.default_n "table4") "kernels per mode (paper: 10000)"
      $ jobs_arg $ fuel_arg $ journal_arg $ resume_arg $ corpus_arg $ out_arg
      $ telemetry_term)

let table5_cmd =
  let run n v jobs fuel journal resume out telemetry =
    run_campaign ~jobs ~journal ~resume ~telemetry ~tap:Fun.id
      ~finish:(fun _ s -> emit out (report_of s))
      (Spec.make ~campaign:"table5" ~n ?fuel ~variants:v ())
  in
  Cmd.v (Cmd.info "table5" ~doc:"CLsmith+EMI metamorphic testing")
    Term.(
      const run
      $ n_arg (Spec.default_n "table5") "base programs (paper: 180)"
      $ Arg.(
          value & opt int 10
          & info [ "variants" ] ~doc:"variants per base (paper: 40)")
      $ jobs_arg $ fuel_arg $ journal_arg $ resume_arg $ out_arg
      $ telemetry_term)

let triage_cmd =
  let run path corpus out =
    match Journal.load ~path with
    | Error e -> fail "%s: %s" path (Journal.error_to_string e)
    | Ok (header, cells, truncated) -> (
        if truncated then
          warn
            "journal ended in a torn line (interrupted run); triaging the \
             clean prefix";
        match Triage.of_journal header cells with
        | Error m -> fail "%s" m
        | Ok buckets -> (
            let report = Triage.to_table header buckets ^ "\n" in
            match corpus with
            | None -> emit out report
            | Some dir -> (
                match archive ~dir buckets report with
                | Error m -> fail "corpus: %s" m
                | Ok report -> emit out report)))
  in
  Cmd.v
    (Cmd.info "triage"
       ~doc:
         "Deduplicate a journal's findings into distinct-bug buckets \
          (outcome class x configuration x opt level x trigger-feature \
          signature), with one exemplar kernel per bucket")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"JOURNAL" ~doc:"journal file to triage")
      $ corpus_arg $ out_arg)

let fuzz_cmd =
  let run budget seed gen_size no_feedback minimize jobs fuel journal resume
      corpus covmap out telemetry =
    let finish _ = function
      | Spec.Table _ as s -> emit out (report_of s)
      | Spec.Fuzz r as s -> (
          let report = report_of s in
          let rc_cov =
            match covmap with
            | None -> 0
            | Some path -> (
                try
                  let oc = open_out path in
                  output_string oc (Covmap.to_hex r.Fuzz_loop.covmap);
                  output_char oc '\n';
                  close_out oc;
                  0
                with Sys_error m -> fail "covmap: %s" m)
          in
          if rc_cov <> 0 then rc_cov
          else
            match corpus with
            | None -> emit out report
            | Some dir -> (
                match Seedpool.persist r.Fuzz_loop.pool ~dir with
                | Error m -> fail "corpus: %s" m
                | Ok new_seeds -> (
                    match Corpus.add_all ~dir (Fuzz_loop.finding_entries r) with
                    | Error m -> fail "corpus: %s" m
                    | Ok new_bugs -> (
                        (* one pass over the archive just written: entry and
                           distinct-kernel tallies for the report *)
                        match Corpus.load_all ~dir with
                        | Error m -> fail "corpus: %s" m
                        | Ok all ->
                            let seeds, bugs =
                              List.partition
                                (fun ((e : Corpus.entry), _) -> e.Corpus.cls = "seed")
                                all
                            in
                            let kernels =
                              List.length
                                (List.sort_uniq String.compare
                                   (List.map
                                      (fun ((e : Corpus.entry), _) -> e.Corpus.hash)
                                      all))
                            in
                            emit out
                              (report
                              ^ Printf.sprintf
                                  "corpus: +%d seed / +%d bug entries this run; \
                                   %d seed + %d bug entries, %d distinct kernels \
                                   in %s\n"
                                  new_seeds new_bugs (List.length seeds)
                                  (List.length bugs) kernels dir)))))
    in
    run_campaign ~jobs ~journal ~resume ~telemetry ~tap:Fun.id ~finish
      (Spec.make ~campaign:"fuzz" ~n:budget ~seed0:seed ?fuel
         ~feedback:(not no_feedback) ~gen_size ~minimize ())
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided fuzzing: feedback-directed search scheduling a \
          mutation corpus by behavioral-coverage novelty, replacing the \
          blind seed sweep. Deterministic: corpus, bitmap and triage output \
          are byte-identical across $(b,-j) values and across resumed runs.")
    Term.(
      const run
      $ Arg.(
          value & opt int (Spec.default_n "fuzz")
          & info [ "budget" ]
              ~doc:"Total kernels to execute (the search budget).")
      $ Arg.(
          value & opt int 1
          & info [ "seed" ] ~doc:"Root seed: generator seeds and every \
                                  scheduling decision derive from it.")
      $ Arg.(
          value & opt int Fuzz_loop.default_gen_size
          & info [ "gen" ] ~doc:"Kernels per generation (identity parameter).")
      $ Arg.(
          value & flag
          & info [ "no-feedback" ]
              ~doc:
                "Degrade to blind sampling: fresh kernels only, the corpus \
                 scheduler is never consulted. The feedback advantage is the \
                 difference against a default run at equal budget.")
      $ Arg.(
          value & flag
          & info [ "minimize" ]
              ~doc:
                "Reduce each admitted seed with the delta-debugging reducer \
                 under a keep-coverage predicate before it enters the corpus.")
      $ jobs_arg $ fuel_arg $ journal_arg $ resume_arg $ corpus_arg
      $ Arg.(
          value
          & opt (some string) None
          & info [ "covmap" ] ~docv:"FILE"
              ~doc:"Write the final coverage bitmap to $(docv) as canonical hex.")
      $ out_arg $ telemetry_term)

let report_cmd =
  let run path html events out =
    match Journal.load ~path with
    | Error e -> fail "%s: %s" path (Journal.error_to_string e)
    | Ok (header, cells, truncated) ->
        if truncated then
          warn
            "journal ended in a torn line (interrupted run); reporting the \
             clean prefix";
        let evs =
          match events with
          | None -> []
          | Some p -> (
              match Eventlog.load ~path:p with
              | Error m ->
                  warn "events: %s (continuing without the eventlog)" m;
                  []
              | Ok (evs, torn) ->
                  if torn then
                    warn "eventlog ended in a torn line; using the clean prefix";
                  evs)
        in
        let text =
          if html then
            Report_html.render ~header ~cells ~truncated ~events:evs ()
          else Report_html.summary ~header ~cells ~truncated ~events:evs ()
        in
        emit out text
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a journal (and optionally its eventlog) into a campaign \
          report: outcome grids with majority-vote wrong-code counts, \
          per-configuration heatmap, coverage and bug curves, stage timing, \
          incidents and per-bug mutation lineage. $(b,--html) produces a \
          self-contained zero-dependency HTML file; the default is a \
          plain-text digest.")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"JOURNAL" ~doc:"journal file to render")
      $ Arg.(
          value & flag
          & info [ "html" ]
              ~doc:
                "Emit a self-contained HTML report (inline CSS and SVG, no \
                 scripts, no external assets).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "events" ] ~docv:"FILE"
              ~doc:
                "Eventlog written by the campaign's $(b,--events): enables \
                 the coverage/bug curves, stage-timing and incident sections.")
      $ out_arg)

let profile_cmd =
  let run path out =
    match Costprof.load ~path with
    | Error m -> fail "%s: %s" path m
    | Ok (cells, truncated) ->
        if truncated then
          warn
            "profile ended in a torn line (interrupted run); reporting the \
             clean prefix";
        emit out (Costprof.report cells)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Render an interpreter cost profile written by a campaign's \
          $(b,--profile) $(i,FILE): constructs ranked by share of execute \
          ticks, with per-kernel cell and attribution totals. The \
          $(i,FILE).folded sibling is already in collapsed-stack format for \
          flamegraph.pl or speedscope.")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"PROFILE" ~doc:"profile file to render")
      $ out_arg)

let figure_cmd name exhibits doc =
  let run verbose out =
    if verbose then
      emit out
        (String.concat "\n" (List.map Exhibit.demonstrate exhibits) ^ "\n")
    else emit out (Exhibit.summary_table exhibits ^ "\n")
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run
      $ Arg.(value & flag & info [ "verbose"; "v" ] ~doc:"print kernels")
      $ out_arg)

let races_cmd =
  let run out =
    let b = Buffer.create 256 in
    List.iter
      (fun (bm : Suite.benchmark) ->
        let r =
          Interp.run
            ~config:{ Interp.default_config with Interp.detect_races = true }
            (bm.Suite.testcase ())
        in
        Buffer.add_string b
          (Printf.sprintf "%-11s %s\n" bm.Suite.name
             (match r.Interp.races with
             | [] -> "race-free"
             | race :: _ -> Race.race_to_string race)))
      Suite.all;
    emit out (Buffer.contents b)
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:"Race-detect the benchmark suite (rediscovers the spmv/myocyte races)")
    Term.(const run $ out_arg)

let reduce_cmd =
  let run seed config_id opt max_attempts out =
    let cfg = Gen_config.scaled Gen_config.All in
    let tc, info = Generate.generate ~cfg ~seed () in
    if info.Generate.counter_sharing then
      fail "seed %d discarded (counter sharing); try another seed" seed
    else begin
      let c = Config.find config_id in
      let reference tc = Driver.reference_outcome tc in
      let interesting tc =
        match (reference tc, Driver.run c ~opt tc) with
        | Outcome.Success a, Outcome.Success b -> not (String.equal a b)
        | _ -> false
      in
      if not (interesting tc) then
        fail "config %d%s compiles seed %d correctly; try another seed"
          config_id
          (if opt then "+" else "-")
          seed
      else begin
        let reduced, stats = Reduce.reduce ~max_attempts ~interesting tc in
        emit out
          (Printf.sprintf
             "reduced from %d to %d statements\n\
              stats: attempts %d (budget %d), accepted %d\n\n"
             stats.Reduce.initial_stmts stats.Reduce.final_stmts
             stats.Reduce.attempts max_attempts stats.Reduce.accepted
          ^ Pp.program_to_string reduced.Ast.prog)
      end
    end
  in
  Cmd.v (Cmd.info "reduce" ~doc:"Reduce a wrong-code kernel for a configuration")
    Term.(
      const run
      $ Arg.(value & opt int 1 & info [ "seed" ] ~doc:"generator seed")
      $ Arg.(value & opt int 19 & info [ "config" ] ~doc:"configuration id")
      $ Arg.(value & flag & info [ "opt" ] ~doc:"optimisations on")
      $ Arg.(
          value & opt int 5000
          & info [ "max-attempts" ]
              ~doc:
                "Budget on candidate-variant evaluations. Candidates are \
                 tried in deterministic statement order (remove before \
                 unwrap, rescanning from the top after each accepted step).")
      $ out_arg)

(* ------------------------------------------------------------------ *)
(* Distributed fabric: coordinate / worker                             *)
(* ------------------------------------------------------------------ *)

(* a distribution failure must abort the run without committing the
   journal (the .tmp rewrite must not replace a good journal with an
   empty one) and without a raw backtrace: raise through with_journal,
   catch before with_telemetry's cleanup *)
exception Dist_failed of string

let addr_conv =
  let parse s =
    match Netaddr.of_string s with Ok a -> Ok a | Error e -> Error (`Msg e)
  in
  Arg.conv (parse, fun ppf a -> Format.pp_print_string ppf (Netaddr.to_string a))

let campaign_pos =
  Arg.(
    required
    & pos 0 (some (enum (List.map (fun c -> (c, c)) Spec.campaigns))) None
    & info [] ~docv:"CAMPAIGN"
        ~doc:"Campaign to distribute: table1 | table3 | table4 | table5 | fuzz.")

let listen_arg =
  Arg.(
    required
    & opt (some addr_conv) None
    & info [ "listen" ] ~docv:"ADDR"
        ~doc:"Address to serve workers on: $(b,unix:PATH) or $(b,HOST:PORT).")

let workers_arg =
  Arg.(
    value & opt int 2
    & info [ "workers" ]
        ~doc:
          "Connected workers to wait for before leasing begins (late \
           joiners are put to work too).")

let chunk_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "lease" ] ~docv:"CELLS"
        ~doc:
          "Cells per lease. Default: the grid split twice per worker \
           (fuzz: each generation split across the workers).")

let ttl_arg =
  Arg.(
    value & opt int 60
    & info [ "lease-ttl" ] ~docv:"SECS"
        ~doc:
          "Heartbeat expiry: a lease silent for $(docv) seconds is \
           revoked and re-granted (streamed cells count as beats).")

let status_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "status" ] ~docv:"FILE|ADDR"
        ~doc:
          "Publish a live fleet status snapshot — one checksummed JSON \
           line. A plain $(docv) is a file, atomically rewritten about \
           twice a second; $(b,unix:PATH) or $(b,HOST:PORT) serves one \
           snapshot per connection (fabric phase only). Read either with \
           $(b,campaign status). Campaign output is byte-identical with \
           or without it.")

let coordinate_cmd =
  let run campaign addr workers chunk ttl n seed variants gen_size no_feedback
      minimize jobs fuel journal resume out status telemetry =
    let n = match n with Some n -> n | None -> Spec.default_n campaign in
    match
      Spec.make ~campaign
        ~n:(if campaign = "table3" then 0 else n)
        ?seed0:seed ?fuel
        ?variants:(if campaign = "table3" then Some n else variants)
        ~feedback:(not no_feedback) ~gen_size ~minimize ()
    with
    | Error m -> fail "%s" m
    | Ok spec ->
        let header = Spec.header spec in
        let total = Spec.total_cells spec in
        let chunk =
          Some
            (match chunk with
            | Some c -> max 1 c
            | None -> Spec.lease_cells spec ~workers)
        in
        let mon = Coordinator.monitor () in
        let fleet = Fleet.create ~total ~now:(Mclock.now_ns ()) () in
        let phase = ref "fabric" in
        (* (collected, in_flight), fed from the coordinator's probe each
           tick; read unsynchronised by the watchdog domain — a stale
           pair only skews a monitoring snapshot *)
        let counts = ref (0, 0) in
        let fleet_snapshot () =
          let collected, in_flight = !counts in
          Fleet.snapshot fleet ~now:(Mclock.now_ns ()) ~collected ~in_flight
        in
        let fleet_line () =
          Fleet.snapshot_to_line ~campaign ~phase:!phase (fleet_snapshot ())
        in
        let status_mode =
          match status with
          | None -> `Off
          | Some s -> (
              match Netaddr.of_string s with
              | Ok a -> `Sock a
              | Error _ -> `File s)
        in
        let status_addr =
          match status_mode with `Sock a -> Some a | `Off | `File _ -> None
        in
        let last_status = ref Int64.min_int in
        let write_status ?(force = false) () =
          match status_mode with
          | `Off | `Sock _ -> ()
          | `File path ->
              let now = Mclock.now_ns () in
              if force || Int64.sub now !last_status >= 500_000_000L then begin
                last_status := now;
                (* replaced whole: a reader never sees a torn snapshot *)
                try
                  let w = Recordlog.replace ~path in
                  Recordlog.output w (fleet_line () ^ "\n");
                  Recordlog.close w
                with Sys_error _ -> ()
              end
        in
        let on_tick (_ : int64) =
          (match Coordinator.probe mon () with
          | Some (c, i, _) -> counts := (c, i)
          | None -> ());
          write_status ()
        in
        (* what a stall looked like from the fabric, beside the
           watchdog record: the eventlog's pool_health dimension with
           fabric workers in place of pool domains, one per stale
           worker, and the per-worker fleet snapshot, so the incident
           names who was slow, not just that the fabric was *)
        let on_stall ev (s : Watchdog.snapshot) =
          List.iter
            (fun w ->
              ev
                (Eventlog.Pool_health
                   {
                     worker = w;
                     submitted = s.Watchdog.completed + s.Watchdog.in_flight;
                     completed = s.Watchdog.completed;
                     in_flight = s.Watchdog.in_flight;
                     stalled_domains = s.Watchdog.stalled_domains;
                   }))
            s.Watchdog.stalled_domains;
          let snap = fleet_snapshot () in
          ev
            (Eventlog.Fleet_health
               {
                 total = snap.Fleet.total;
                 collected = snap.Fleet.collected;
                 in_flight = snap.Fleet.in_flight;
                 fleet_milli = snap.Fleet.fleet_milli;
                 workers =
                   List.map
                     (fun (r : Fleet.row) ->
                       {
                         Eventlog.fw_worker = r.Fleet.worker;
                         fw_cells = r.Fleet.cells;
                         fw_rate_milli = r.Fleet.rate_milli;
                         fw_last_ms = r.Fleet.last_ms;
                         fw_alive = r.Fleet.alive;
                         fw_straggler = r.Fleet.straggler;
                       })
                     snap.Fleet.rows;
               })
        in
        with_telemetry ~telemetry
          ~fleet_groups:(fun () -> Fleet.span_groups fleet)
          ~probe:(Coordinator.probe mon) ~on_stall ~header
          ~label:("dist-" ^ campaign) ~total
        @@ fun wrap ev ->
        let progress_step = max 1 (total / 10) in
        let on_event = function
          | Coordinator.Worker_joined w -> report "worker %d joined" w
          | Coordinator.Worker_left (w, reason) ->
              warn "worker %d left: %s (its leases are requeued)" w reason
          | Coordinator.Lease_granted _ -> ()
          | Coordinator.Lease_expired (l, w) ->
              warn "lease %d (cells [%d,%d)) of worker %d expired; requeued"
                l.Lease.lease_id l.Lease.lo l.Lease.hi w
          | Coordinator.Progress (c, t) ->
              if c mod progress_step = 0 || c = t then
                report "fabric: %d/%d cells collected" c t
          | Coordinator.Fallback missing ->
              warn
                "all workers gone; finishing the remaining %d cells locally"
                missing
        in
        (* the scratch journal holds streamed cells in arrival order as
           they land, so a killed coordinator resumes with the work its
           workers already did; it is dropped once the real (ordered)
           journal commits *)
        let scratch = Option.map (fun p -> p ^ ".dist") journal in
        match
          try
            with_journal ~header ~journal ~resume (fun sink cells ->
                let sw, salvaged =
                  match scratch with
                  | None -> (None, [])
                  | Some path when resume -> (
                      match Journal.append ~path header with
                      | Ok (w, cs) -> (Some w, cs)
                      | Error e ->
                          raise (Dist_failed (Journal.error_to_string e)))
                  | Some path -> (
                      match Journal.create ~path header with
                      | w -> (Some w, [])
                      | exception Sys_error m -> raise (Dist_failed m))
                in
                (* resumed/salvaged cells were produced locally (or in a
                   prior life): they are this process's contribution, so
                   worker cells + local cells still sum to the grid *)
                let prefilled = List.length cells + List.length salvaged in
                counts := (prefilled, 0);
                Fleet.note_local fleet prefilled;
                let fprog =
                  if telemetry.o_progress then
                    Some
                      (Progress.create ~label:("fleet-" ^ campaign)
                         ~start:prefilled ~total ())
                  else None
                in
                let on_cell c =
                  (match fprog with
                  | Some p -> Progress.step p ~tag:(tag_of_cell c)
                  | None -> ());
                  match sw with
                  | None -> ()
                  | Some w -> Journal.write_cell w c
                in
                write_status ~force:true ();
                let collected =
                  match
                    try
                      Coordinator.serve ~addr ~spec ~workers ?chunk
                        ~lease_ttl_ms:(ttl * 1000)
                        ~resume:(cells @ salvaged) ~monitor:mon ~fleet
                        ~telemetry:(telemetry.o_trace <> None)
                        ?status_addr ~status_payload:fleet_line ~on_tick
                        ~on_event ~on_cell ()
                    with Unix.Unix_error (e, fn, _) ->
                      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
                  with
                  | Ok collected -> collected
                  | Error e -> raise (Dist_failed e)
                in
                (match fprog with Some p -> Progress.finish p | None -> ());
                (match sw with Some w -> Journal.commit w | None -> ());
                phase := "merge";
                counts := (List.length collected, 0);
                Fleet.note_local fleet (total - List.length collected);
                write_status ~force:true ();
                (* the deterministic merge IS an ordinary local run that
                   replays every collected cell — and executes whatever
                   the fabric failed to deliver *)
                let r =
                  Spec.run_local ~jobs ?sink:(wrap sink) ~events:ev
                    ~resume:collected spec
                in
                phase := "done";
                counts := (total, 0);
                write_status ~force:true ();
                r)
          with Dist_failed m -> Error m
        with
        | Error m -> fail "%s" m
        | Ok r ->
            (* the ordered journal is committed; the scratch is now
               redundant *)
            Option.iter
              (fun p -> try Sys.remove p with Sys_error _ -> ())
              scratch;
            emit out (report_of r)
  in
  Cmd.v
    (Cmd.info "coordinate"
       ~doc:
         "Coordinate a distributed campaign: shard the deterministic cell \
          grid into heartbeat-guarded leases over connected workers, stream \
          their results, then fold them through the ordinary ordered merge \
          — journal, tables and eventlog come out byte-identical to a \
          single-process run at the same seed and scale, and a dead \
          worker's cells are re-leased or finished locally.")
    Term.(
      const run $ campaign_pos $ listen_arg $ workers_arg $ chunk_arg
      $ ttl_arg
      $ Arg.(
          value
          & opt (some int) None
          & info [ "n" ]
              ~doc:
                "Scale: kernels per mode (table1/4), EMI variants per \
                 benchmark (table3), bases (table5) or kernel budget \
                 (fuzz). Defaults match the single-process subcommands.")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "seed" ] ~doc:"Root seed (defaults per campaign).")
      $ Arg.(
          value
          & opt (some int) None
          & info [ "variants" ] ~doc:"Variants per base (table5).")
      $ Arg.(
          value & opt int Fuzz_loop.default_gen_size
          & info [ "gen" ] ~doc:"Kernels per generation (fuzz).")
      $ Arg.(
          value & flag
          & info [ "no-feedback" ] ~doc:"Blind sampling (fuzz).")
      $ Arg.(
          value & flag
          & info [ "minimize" ] ~doc:"Minimize admitted seeds (fuzz).")
      $ jobs_arg $ fuel_arg $ journal_arg $ resume_arg $ out_arg
      $ status_arg $ telemetry_term)

let status_cmd =
  let read_file path =
    try
      let ic = open_in path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match input_line ic with
          | line -> Ok line
          | exception End_of_file -> Error "empty status file")
    with Sys_error m -> Error m
  in
  let read_sock addr =
    match Netaddr.connect addr with
    | Error e -> Error e
    | Ok fd ->
        Fun.protect
          ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
          (fun () ->
            let b = Buffer.create 4096 in
            let buf = Bytes.create 4096 in
            let rec drain () =
              match Unix.read fd buf 0 (Bytes.length buf) with
              | 0 -> ()
              | n ->
                  Buffer.add_subbytes b buf 0 n;
                  drain ()
              | exception Unix.Unix_error _ -> ()
            in
            drain ();
            match String.index_opt (Buffer.contents b) '\n' with
            | Some i -> Ok (String.sub (Buffer.contents b) 0 i)
            | None ->
                if Buffer.length b > 0 then Ok (Buffer.contents b)
                else Error "empty status reply")
  in
  let fetch target =
    (* same address grammar as --status: if it parses as an endpoint it
       is one; anything else is a snapshot file *)
    match Netaddr.of_string target with
    | Ok a -> read_sock a
    | Error _ -> read_file target
  in
  let run target watch json =
    let once () =
      match fetch target with
      | Error m -> Error m
      | Ok line -> (
          match Fleet.snapshot_of_line line with
          | Error m -> Error m
          | Ok (campaign, phase, snap) ->
              if json then
                print_endline
                  (Jsonl.to_string (Fleet.snapshot_to_json ~campaign ~phase snap))
              else print_string (Fleet.to_table ~campaign ~phase snap);
              flush stdout;
              Ok phase)
    in
    if watch <= 0 then
      match once () with Ok _ -> 0 | Error m -> fail "status: %s" m
    else
      (* keep polling through transient failures (coordinator not up
         yet, snapshot mid-rename) but give up after a run of them *)
      let rec loop failures =
        match once () with
        | Ok "done" -> 0
        | Ok _ ->
            Unix.sleepf (float_of_int watch);
            loop 0
        | Error m ->
            if failures >= 5 then fail "status: %s" m
            else begin
              Unix.sleepf (float_of_int watch);
              loop (failures + 1)
            end
      in
      loop 0
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Render a coordinator's live fleet status: per-worker throughput, \
          lease latency, transport totals and straggler flags, plus the \
          fleet-wide rate and ETA. Reads the snapshot a $(b,coordinate \
          --status) run publishes — a file or a status socket address.")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some string) None
          & info [] ~docv:"FILE|ADDR"
              ~doc:
                "Status target: the $(b,--status) file, or the status \
                 socket as $(b,unix:PATH) / $(b,HOST:PORT).")
      $ Arg.(
          value & opt int 0
          & info [ "watch" ] ~docv:"SECS"
              ~doc:
                "Redraw every $(docv) seconds until the snapshot reports \
                 phase $(b,done). Default: render once and exit.")
      $ Arg.(
          value & flag
          & info [ "json" ]
              ~doc:
                "Print the snapshot as one canonical JSON object (the \
                 status-line schema without its checksum field) instead of \
                 the table, for scripts."))

let worker_cmd =
  let run addr jobs retries journal =
    let on_progress = function
      | Dist_worker.Connected w -> report "connected as worker %d" w
      | Dist_worker.Leased { gen; lo; hi } ->
          report "lease: generation %d, cells [%d,%d)" gen lo hi
      | Dist_worker.Finished { lease_id = _; executed } ->
          report "lease done: %d cells executed" executed
    in
    match
      try Dist_worker.run ~addr ~jobs ~retries ?journal ~on_progress ()
      with Unix.Unix_error (e, fn, _) ->
        Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
    with
    | Ok cells ->
        report "shutdown: %d cells executed in total" cells;
        0
    | Error m -> fail "worker: %s" m
  in
  Cmd.v
    (Cmd.info "worker"
       ~doc:
         "Serve a coordinator as a fabric worker: receive the campaign \
          spec over the wire, execute leased shards of the cell grid \
          through the local execution pool, stream every result back. \
          Takes no campaign parameters — the coordinator owns them all.")
    Term.(
      const run
      $ Arg.(
          required
          & opt (some addr_conv) None
          & info [ "connect" ] ~docv:"ADDR"
              ~doc:"Coordinator address: $(b,unix:PATH) or $(b,HOST:PORT).")
      $ jobs_arg
      $ Arg.(
          value & opt int 20
          & info [ "retries" ]
              ~doc:
                "Connection attempts while the coordinator is not up yet \
                 (half a second apart).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "journal" ] ~docv:"FILE"
              ~doc:
                "Per-worker scratch journal: durably record every executed \
                 cell, and on restart replay it instead of re-executing \
                 cells that land in a fresh lease."))

(* ------------------------------------------------------------------ *)
(* Corpus as a service: serve daemon, campaign client, corpus fsck     *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let run listen state max_inflight max_queue read_timeout_ms queue_timeout_ms
      trace =
    match Svstore.open_ ~path:state with
    | Error m -> fail "serve: %s" m
    | Ok store -> (
        let stop = Atomic.make false in
        let arm signal =
          try Sys.set_signal signal (Sys.Signal_handle (fun _ -> Atomic.set stop true))
          with Invalid_argument _ | Sys_error _ -> ()
        in
        arm Sys.sigint;
        arm Sys.sigterm;
        (* metrics time series: one snapshot per second of daemon life,
           served at /metrics/history and charted in /report *)
        let history = Svhistory.create () in
        if trace <> None then begin
          Span.reset ();
          Span.enable ()
        end;
        let write_trace () =
          match trace with
          | None -> 0
          | Some path -> (
              Span.disable ();
              let spans = Span.drain () in
              try
                Trace.write_groups ~path [ ("serve", spans) ];
                0
              with Sys_error m -> fail "%s" m)
        in
        report "serving on %s (journal %s: %d kernels, %d cells)"
          (Netaddr.to_string listen)
          state
          (Svstore.kernel_count store)
          (Svstore.cell_count store);
        match
          Server.run ~addr:listen ~store ~max_inflight ~max_queue
            ~read_timeout_ms ~queue_timeout_ms ~stop ~history ()
        with
        | Ok stats ->
            Svstore.close store;
            let rc_trace = write_trace () in
            report "served %d requests (%d shed, %d timeouts)"
              stats.Server.requests stats.Server.shed stats.Server.timeouts;
            rc_trace
        | Error m ->
            Svstore.close store;
            ignore (write_trace ());
            fail "serve: %s" m)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the corpus service: a long-lived daemon owning the \
          content-addressed kernel corpus, the coverage bitmap and the \
          distinct-bug store behind a small HTTP/1.1 JSON API (submit \
          kernels, claim work, report observations, query bugs / coverage \
          / corpus, Prometheus $(b,/metrics), live HTML $(b,/report)). \
          Every state change is journalled and flushed before it is \
          acknowledged, so a daemon killed at any instant restarts from \
          $(b,--state) to byte-identical query results. Under overload it \
          sheds with 429 + Retry-After instead of queueing without bound.")
    Term.(
      const run
      $ Arg.(
          required
          & opt (some addr_conv) None
          & info [ "listen" ] ~docv:"ADDR"
              ~doc:"Address to serve on: $(b,unix:PATH) or $(b,HOST:PORT).")
      $ Arg.(
          value
          & opt string "serve.journal"
          & info [ "state" ] ~docv:"FILE"
              ~doc:
                "The append-only server journal: created if absent, \
                 replayed if present.")
      $ Arg.(
          value & opt int 64
          & info [ "max-inflight" ]
              ~doc:"Connections admitted (read and served) concurrently.")
      $ Arg.(
          value & opt int 64
          & info [ "max-queue" ]
              ~doc:
                "Connections parked beyond the admitted set before new \
                 arrivals are shed with 429.")
      $ Arg.(
          value & opt int 10_000
          & info [ "read-timeout-ms" ]
              ~doc:
                "Close an admitted connection with no read progress for \
                 this long (408 if it left a partial request).")
      $ Arg.(
          value & opt int 2_000
          & info [ "queue-timeout-ms" ]
              ~doc:"Shed a parked connection that waited this long (429).")
      $ Arg.(
          value
          & opt (some string) None
          & info [ "trace" ] ~docv:"FILE"
              ~doc:
                "Write a Chrome/Perfetto trace of per-request handling \
                 spans on shutdown. Observation submissions carry their \
                 cell's causal flow id, so this trace stitches into a \
                 worker/coordinator trace merged over the same campaign."))

(* the serve client's execution loop shares the campaign's outcome
   classification: majority vote across the above-threshold configs,
   exactly like table 4 *)
let client_execute ~addr ~configs (e : Corpus.entry) text =
  match Gen_config.mode_of_string e.Corpus.mode with
  | None -> Error (Printf.sprintf "unknown generation mode %S" e.Corpus.mode)
  | Some m ->
      let tc, _ =
        Generate.generate ~cfg:(Gen_config.scaled m) ~seed:e.Corpus.seed ()
      in
      if not (String.equal (Corpus.hash_text (Pp.program_to_string tc.Ast.prog)) e.Corpus.hash)
      then Error (Printf.sprintf "kernel %s does not regenerate from its seed" e.Corpus.hash)
      else begin
        ignore text;
        let prepared = Driver.prepare tc in
        let features = Driver.features_of_prepared prepared in
        let signature = Triage.signature_of_features features in
        let runs =
          List.concat_map
            (fun id ->
              List.map
                (fun opt ->
                  let outcome, stats =
                    Driver.run_prepared_stats (Config.find id) ~opt prepared
                  in
                  (id, opt, outcome, stats))
                [ false; true ])
            configs
        in
        let majority =
          Majority.majority_output (List.map (fun (_, _, o, _) -> o) runs)
        in
        let results =
          List.map
            (fun (id, opt, outcome, stats) ->
              let divergent = Majority.is_wrong_code ~majority outcome in
              let cov =
                Covmap.indices ~features ~config:id ~opt ~divergent ~outcome
                  ~stats
              in
              let opt_s = if opt then "+" else "-" in
              let cell =
                {
                  Journal.index = 0;
                  seed = e.Corpus.seed;
                  mode = e.Corpus.mode;
                  config = id;
                  opt = opt_s;
                  outcomes = [ outcome ];
                  note = "";
                }
              in
              let obs =
                Option.map
                  (fun cls ->
                    {
                      Triage.o_cls = cls;
                      o_config = id;
                      o_opt = opt_s;
                      o_signature = signature;
                      o_seed = e.Corpus.seed;
                      o_mode = e.Corpus.mode;
                      o_hash = e.Corpus.hash;
                    })
                  (Majority.bucket_class (Majority.bucket_of ~majority outcome))
              in
              (cell, obs, cov))
            runs
        in
        let rec ship = function
          | [] -> Ok (List.length results)
          | (cell, obs, cov) :: rest -> (
              match Sclient.report_observation ~addr ~cell ~obs ~cov () with
              | Error m -> Error m
              | Ok _ -> ship rest)
        in
        ship results
      end

let client_cmd =
  let run action addr retries count mode seed_base max_claims configs out =
    let addr_s = Netaddr.to_string addr in
    let get path =
      match Sclient.get ~addr ~retries path with
      | Error m -> Error m
      | Ok r when r.Sclient.status <> 200 ->
          Error (Printf.sprintf "%s: status %d: %s" path r.Sclient.status r.Sclient.body)
      | Ok r -> Ok r.Sclient.body
    in
    match action with
    | `Get path -> (
        match get path with
        (* JSON answers end with a newline; the HTML report prints as served *)
        | Ok body -> emit out (if path = "/report" then body else body ^ "\n")
        | Error m -> fail "client: %s" m)
    | `Gen -> (
        match Gen_config.mode_of_string mode with
        | None -> fail "client: unknown generation mode %S" mode
        | Some m -> (
            let rec go i added =
              if i >= count then Ok added
              else
                let seed = seed_base + i in
                let tc, _ =
                  Generate.generate ~cfg:(Gen_config.scaled m) ~seed ()
                in
                let text = Pp.program_to_string tc.Ast.prog in
                let e =
                  {
                    Corpus.hash = Corpus.hash_text text;
                    seed;
                    mode;
                    cls = "candidate";
                    config = 0;
                    opt = "-";
                  }
                in
                match Sclient.submit_kernel ~addr ~retries e text with
                | Error m -> Error m
                | Ok fresh -> go (i + 1) (added + if fresh then 1 else 0)
            in
            match go 0 0 with
            | Ok added ->
                report "submitted %d kernels to %s (%d new)" count addr_s added;
                0
            | Error m -> fail "client: %s" m))
    | `Run -> (
        let config_ids =
          match configs with
          | [] -> Config.above_threshold_ids
          | ids -> ids
        in
        let rec go claimed cells =
          if max_claims > 0 && claimed >= max_claims then Ok (claimed, cells)
          else
            match Sclient.claim ~addr ~retries () with
            | Error m -> Error m
            | Ok None -> Ok (claimed, cells)
            | Ok (Some (e, text)) -> (
                match client_execute ~addr ~configs:config_ids e text with
                | Error m -> Error m
                | Ok n -> go (claimed + 1) (cells + n))
        in
        match go 0 0 with
        | Ok (claimed, cells) ->
            report "ran %d claimed kernels (%d cells reported) against %s"
              claimed cells addr_s;
            0
        | Error m -> fail "client: %s" m)
  in
  let action_conv =
    Arg.enum
      [
        ("health", `Get "/healthz"); ("gen", `Gen); ("run", `Run);
        ("bugs", `Get "/bugs"); ("coverage", `Get "/coverage");
        ("corpus", `Get "/corpus"); ("metrics", `Get "/metrics.json");
        ("report", `Get "/report");
      ]
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Talk to a $(b,campaign serve) daemon: $(b,gen) submits freshly \
          generated kernels, $(b,run) claims submitted kernels and executes \
          them across the device matrix (reporting every cell, its triage \
          classification and its coverage points back), and $(b,health) / \
          $(b,bugs) / $(b,coverage) / $(b,corpus) / $(b,metrics) / \
          $(b,report) print the daemon's live answers.")
    Term.(
      const run
      $ Arg.(
          required
          & pos 0 (some action_conv) None
          & info [] ~docv:"ACTION"
              ~doc:
                "One of $(b,health), $(b,gen), $(b,run), $(b,bugs), \
                 $(b,coverage), $(b,corpus), $(b,metrics), $(b,report).")
      $ Arg.(
          required
          & opt (some addr_conv) None
          & info [ "connect" ] ~docv:"ADDR"
              ~doc:"Daemon address: $(b,unix:PATH) or $(b,HOST:PORT).")
      $ Arg.(
          value & opt int 20
          & info [ "retries" ]
              ~doc:
                "Connection attempts while the daemon is not up yet (half \
                 a second apart).")
      $ Arg.(
          value & opt int 10
          & info [ "count" ] ~doc:"Kernels to generate and submit ($(b,gen)).")
      $ Arg.(
          value & opt string "basic"
          & info [ "mode" ] ~docv:"MODE"
              ~doc:"Generation mode for $(b,gen) (see $(b,table4)).")
      $ Arg.(
          value & opt int 1
          & info [ "seed-base" ] ~docv:"SEED"
              ~doc:"First generator seed for $(b,gen); kernel i uses SEED+i.")
      $ Arg.(
          value & opt int 0
          & info [ "max-claims" ]
              ~doc:
                "Stop $(b,run) after this many claimed kernels. Default 0: \
                 run until the daemon has no unclaimed work.")
      $ Arg.(
          value
          & opt (list int) []
          & info [ "configs" ] ~docv:"IDS"
              ~doc:
                "Configuration ids $(b,run) executes against. Default: the \
                 above-threshold set (as in table 4).")
      $ out_arg)

let corpus_cmd =
  let verify_cmd =
    let run dir =
      match Corpus.fsck ~dir with
      | [] -> (
          match Corpus.index ~dir with
          | Ok entries ->
              report "corpus %s: healthy (%d index entries)" dir
                (List.length entries);
              0
          | Error m -> fail "corpus: %s" m)
      | damage ->
          List.iter
            (fun d -> report "damage: %s" (Corpus.damage_to_string d))
            damage;
          fail "corpus %s: %d problem%s found" dir (List.length damage)
            (if List.length damage = 1 then "" else "s")
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Fsck a content-addressed corpus: re-hash every indexed kernel, \
            flag index entries whose kernel file is missing, kernel files \
            the index does not reference, and duplicate index keys. Exits \
            nonzero when any damage is found.")
      Term.(
        const run
        $ Arg.(
            required
            & pos 0 (some string) None
            & info [] ~docv:"DIR" ~doc:"The corpus directory."))
  in
  Cmd.group
    (Cmd.info "corpus" ~doc:"Inspect and verify a content-addressed corpus")
    [ verify_cmd ]

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "campaign" ~doc:"Reproduce the paper's experiments")
          [
            table1_cmd; table2_cmd; table3_cmd; table4_cmd; table5_cmd;
            fuzz_cmd; triage_cmd; report_cmd; profile_cmd; status_cmd;
            figure_cmd "figure1" Exhibit.figure1 "Figure 1 bug exhibits";
            figure_cmd "figure2" Exhibit.figure2 "Figure 2 bug exhibits";
            races_cmd; reduce_cmd; coordinate_cmd; worker_cmd;
            serve_cmd; client_cmd; corpus_cmd;
          ]))
