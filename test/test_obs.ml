(* The telemetry subsystem: spans, the metrics registry, Chrome-trace
   export and the progress line — and the property the whole thing hangs
   off: telemetry observes the deterministic campaign surface without
   perturbing it. Metric totals fed from the ordered result stream are
   -j-invariant; tables and journal bytes are identical with tracing on
   and off. *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  nn = 0 || go 0

(* --- spans --- *)

let test_span_disabled_records_nothing () =
  Span.reset ();
  let r = Span.with_ ~cat:"gen" "generate" (fun () -> 41 + 1) in
  Alcotest.(check int) "with_ is transparent" 42 r;
  Alcotest.(check int) "no spans while disabled" 0 (List.length (Span.drain ()))

let test_span_records_and_survives_raise () =
  Span.reset ();
  Span.enable ();
  Fun.protect ~finally:Span.disable (fun () ->
      ignore (Span.with_ ~cat:"gen" "generate" (fun () -> Sys.opaque_identity 1));
      Span.set_task 7;
      (try Span.with_ ~cat:"exec" "exec:1+" (fun () -> failwith "boom")
       with Failure _ -> ());
      Span.clear_task ());
  let spans = Span.drain () in
  Alcotest.(check int) "crashing scope still recorded" 2 (List.length spans);
  List.iter
    (fun (s : Span.t) ->
      Alcotest.(check bool) "duration non-negative" true (s.Span.dur_ns >= 0L))
    spans;
  let exec = List.find (fun (s : Span.t) -> String.equal s.Span.cat "exec") spans in
  Alcotest.(check int) "pool task index tagged" 7 exec.Span.task;
  Alcotest.(check int) "drain empties the buffers" 0 (List.length (Span.drain ()))

(* --- Chrome trace export --- *)

let test_trace_export () =
  Span.reset ();
  Span.enable ();
  Fun.protect ~finally:Span.disable (fun () ->
      ignore (Span.with_ ~cat:"gen" "generate" (fun () -> Sys.opaque_identity 1));
      ignore (Span.with_ ~cat:"exec" "exec:1+" (fun () -> Sys.opaque_identity 2)));
  let spans = Span.drain () in
  let path = Filename.temp_file "test_obs_trace" ".json" in
  Trace.write ~path spans;
  let body = read_file path in
  Sys.remove path;
  match Jsonl.of_string (String.trim body) with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok j ->
      let events =
        match Jsonl.member "traceEvents" j with
        | Some (Jsonl.List l) -> l
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let phase e = Option.bind (Jsonl.member "ph" e) Jsonl.get_str in
      let xs = List.filter (fun e -> phase e = Some "X") events in
      let ms = List.filter (fun e -> phase e = Some "M") events in
      Alcotest.(check int) "one complete event per span" (List.length spans)
        (List.length xs);
      Alcotest.(check bool) "process_name metadata present" true (ms <> []);
      List.iter
        (fun e ->
          List.iter
            (fun k ->
              if Jsonl.member k e = None then Alcotest.failf "X event lacks %S" k)
            [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ];
          match Option.bind (Jsonl.member "dur" e) Jsonl.get_int with
          | Some d ->
              Alcotest.(check bool) "durations clamped to >= 1us" true (d >= 1)
          | None -> Alcotest.fail "dur is not an int")
        xs

(* --- metrics registry --- *)

let test_metrics_counters_and_json () =
  Metrics.reset ();
  let c = Metrics.counter "test.alpha" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "incr + add" 5 (Metrics.value c);
  Alcotest.(check int) "same name finds the same cell" 5
    (Metrics.value (Metrics.counter "test.alpha"));
  let j = Metrics.to_json () in
  (match Jsonl.of_string (Jsonl.to_string j) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "metrics JSON does not round-trip: %s" e);
  match Jsonl.member "counters" j with
  | Some counters -> (
      match Option.bind (Jsonl.member "test.alpha" counters) Jsonl.get_int with
      | Some v -> Alcotest.(check int) "exported value" 5 v
      | None -> Alcotest.fail "counter missing from JSON")
  | None -> Alcotest.fail "no counters object"

let test_histogram_bucketing () =
  Metrics.reset ();
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 0; 1; 2; 3; 4; 1024; 1500 ];
  let buckets = List.assoc "test.hist" (Metrics.histograms ()) in
  Alcotest.(check (list (pair int int)))
    "log2 buckets: <=1 share floor 1; [2,3] floor 2; [1024,1500] floor 1024"
    [ (1, 2); (2, 2); (4, 1); (1024, 2) ]
    buckets

(* exactness over crafted bucket contents: 5 observations in the floor-1
   bucket, 4 in floor-4, 1 in floor-64 — every percentile is a known
   cumulative-rank lookup, nothing interpolated *)
let test_histogram_percentiles () =
  Metrics.reset ();
  let h = Metrics.histogram "test.pct" in
  List.iter (Metrics.observe h) [ 0; 1; 1; 1; 1; 4; 5; 6; 7; 64 ];
  let pct p = Metrics.percentile h p in
  Alcotest.(check (option int)) "p0 clamps to rank 1" (Some 1) (pct 0);
  Alcotest.(check (option int)) "p50 = rank 5 -> floor 1" (Some 1) (pct 50);
  Alcotest.(check (option int)) "p51 = rank 6 -> floor 4" (Some 4) (pct 51);
  Alcotest.(check (option int)) "p90 = rank 9 -> floor 4" (Some 4) (pct 90);
  Alcotest.(check (option int)) "p99 = rank 10 -> floor 64" (Some 64) (pct 99);
  Alcotest.(check (option int)) "p100 -> last bucket" (Some 64) (pct 100);
  Alcotest.(check (option int))
    "empty histogram has no percentiles" None
    (Metrics.percentile (Metrics.histogram "test.pct.empty") 50);
  (* the JSON export carries the same summaries *)
  let j = Metrics.to_json () in
  let hist =
    Option.bind (Jsonl.member "histograms" j) (Jsonl.member "test.pct")
  in
  (match Option.bind hist (Jsonl.member "p50") with
  | Some (Jsonl.Int v) -> Alcotest.(check int) "p50 in to_json" 1 v
  | _ -> Alcotest.fail "p50 missing from to_json");
  (match Option.bind hist (Jsonl.member "p99") with
  | Some (Jsonl.Int v) -> Alcotest.(check int) "p99 in to_json" 64 v
  | _ -> Alcotest.fail "p99 missing from to_json");
  match
    Option.bind
      (Option.bind (Jsonl.member "histograms" j) (Jsonl.member "test.pct.empty"))
      (Jsonl.member "p50")
  with
  | Some Jsonl.Null -> ()
  | _ -> Alcotest.fail "empty histogram should export null percentiles"

let test_prometheus_exposition () =
  Metrics.reset ();
  Metrics.add (Metrics.counter "test.prom.total") 7;
  let h = Metrics.histogram "test.prom.lat" in
  List.iter (Metrics.observe h) [ 1; 2; 8 ];
  let text = Metrics.to_prometheus () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "exposition contains %S" needle)
        true (contains text needle))
    [
      "# TYPE test_prom_total counter";
      "test_prom_total 7";
      "# TYPE test_prom_lat histogram";
      (* power-of-two buckets as inclusive cumulative upper bounds:
         floor 1 -> le 1, floor 2 -> le 3, floor 8 -> le 15 *)
      "test_prom_lat_bucket{le=\"1\"} 1";
      "test_prom_lat_bucket{le=\"3\"} 2";
      "test_prom_lat_bucket{le=\"+Inf\"} 3";
      "test_prom_lat_count 3";
    ]

(* the merged fleet trace: one pid per process group, per-group epoch
   rebase (worker monotonic clocks are unrelated), thread per domain *)
let test_trace_groups_pid_separation () =
  let sp ~cat ~name ~t0 ~dur ~domain =
    { Span.cat; name; t0_ns = t0; dur_ns = dur; domain; task = -1; flow = -1; flow_n = 0 }
  in
  let coord =
    [ sp ~cat:"merge" ~name:"merge" ~t0:5_000_000L ~dur:1_000_000L ~domain:0 ]
  in
  let w1 =
    [
      sp ~cat:"exec" ~name:"exec:1+" ~t0:9_000_000_000L ~dur:2_000_000L
        ~domain:1;
      sp ~cat:"gen" ~name:"generate" ~t0:8_000_000_000L ~dur:1_000_000L
        ~domain:0;
    ]
  in
  let path = Filename.temp_file "test_obs_groups" ".json" in
  Trace.write_groups ~path
    [ ("coordinator", coord); ("worker 1 (host, pid 42)", w1) ];
  let body = read_file path in
  Sys.remove path;
  match Jsonl.of_string (String.trim body) with
  | Error e -> Alcotest.failf "grouped trace does not parse: %s" e
  | Ok j ->
      let events =
        match Jsonl.member "traceEvents" j with
        | Some (Jsonl.List l) -> l
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let phase e = Option.bind (Jsonl.member "ph" e) Jsonl.get_str in
      let pid e = Option.bind (Jsonl.member "pid" e) Jsonl.get_int in
      let xs = List.filter (fun e -> phase e = Some "X") events in
      Alcotest.(check (list int)) "distinct pid per group" [ 0; 1 ]
        (List.sort_uniq compare (List.filter_map pid xs));
      let labels =
        List.filter_map
          (fun e ->
            if
              phase e = Some "M"
              && Option.bind (Jsonl.member "name" e) Jsonl.get_str
                 = Some "process_name"
            then
              Option.bind (Jsonl.member "args" e) (fun a ->
                  Option.bind (Jsonl.member "name" a) Jsonl.get_str)
            else None)
          events
      in
      Alcotest.(check (list string)) "groups labelled in order"
        [ "coordinator"; "worker 1 (host, pid 42)" ]
        labels;
      let min_ts p =
        List.fold_left
          (fun acc e ->
            if pid e = Some p then
              match Option.bind (Jsonl.member "ts" e) Jsonl.get_int with
              | Some t -> min acc t
              | None -> acc
            else acc)
          max_int xs
      in
      Alcotest.(check int) "coordinator epoch rebased to 0" 0 (min_ts 0);
      Alcotest.(check int) "worker epoch rebased to 0" 0 (min_ts 1)

(* the causal-flow machinery: a lease span originating a window of flow
   ids must be stitched to the worker exec spans participating in them *)
let test_trace_flow_events () =
  let sp ~cat ~name ~t0 ~dur ~flow ~flow_n =
    {
      Span.cat;
      name;
      t0_ns = t0;
      dur_ns = dur;
      domain = 0;
      task = -1;
      flow;
      flow_n;
    }
  in
  let coord =
    [
      sp ~cat:"lease" ~name:"lease 0 [9,11)" ~t0:1_000_000L ~dur:9_000_000L
        ~flow:9 ~flow_n:2;
    ]
  in
  let w1 =
    [
      sp ~cat:"exec" ~name:"exec:9" ~t0:2_000_000L ~dur:1_000_000L ~flow:9
        ~flow_n:0;
      sp ~cat:"exec" ~name:"exec:10" ~t0:4_000_000L ~dur:1_000_000L ~flow:10
        ~flow_n:0;
      (* untagged span: must not join any flow *)
      sp ~cat:"gen" ~name:"generate" ~t0:3_000_000L ~dur:500_000L ~flow:(-1)
        ~flow_n:0;
    ]
  in
  let path = Filename.temp_file "test_obs_flow" ".json" in
  Trace.write_groups ~path [ ("coordinator", coord); ("worker 1", w1) ];
  let body = read_file path in
  Sys.remove path;
  match Jsonl.of_string (String.trim body) with
  | Error e -> Alcotest.failf "flow trace does not parse: %s" e
  | Ok j ->
      let events =
        match Jsonl.member "traceEvents" j with
        | Some (Jsonl.List l) -> l
        | _ -> Alcotest.fail "no traceEvents array"
      in
      let phase e = Option.bind (Jsonl.member "ph" e) Jsonl.get_str in
      let id e = Option.bind (Jsonl.member "id" e) Jsonl.get_int in
      let flows =
        List.filter
          (fun e -> match phase e with Some ("s" | "t" | "f") -> true | _ -> false)
          events
      in
      (* two flows, each source -> participant: one "s" + one "f" apiece *)
      Alcotest.(check int) "four flow events" 4 (List.length flows);
      let ids ph =
        List.sort compare
          (List.filter_map
             (fun e -> if phase e = Some ph then id e else None)
             flows)
      in
      Alcotest.(check (list int)) "flow starts per id" [ 9; 10 ] (ids "s");
      Alcotest.(check (list int)) "flow finishes per id" [ 9; 10 ] (ids "f");
      List.iter
        (fun e ->
          (match Option.bind (Jsonl.member "cat" e) Jsonl.get_str with
          | Some "flow" -> ()
          | _ -> Alcotest.fail "flow event lacks cat \"flow\"");
          if phase e = Some "f" then
            match Option.bind (Jsonl.member "bp" e) Jsonl.get_str with
            | Some "e" -> ()
            | _ -> Alcotest.fail "finish step lacks bp:\"e\" (enclosing bind)")
        flows

(* the exact bytes of both layouts for one fixed span list: [write] puts
   each domain on its own pid with tid 1 and rebases to the earliest
   span; [write_groups] gives each group a pid, each domain a tid, and
   rebases every group to its own earliest span. A lease originates
   flows 9 and 10; the exec spans join them, the untagged one does not *)
let test_trace_bytes_pinned () =
  let sp ~cat ~name ~t0 ~dur ~domain ~task ~flow ~flow_n =
    { Span.cat; name; t0_ns = t0; dur_ns = dur; domain; task; flow; flow_n }
  in
  let coord =
    [
      sp ~cat:"merge" ~name:"merge" ~t0:20_000_000L ~dur:400L ~domain:0
        ~task:(-1) ~flow:(-1) ~flow_n:0;
      sp ~cat:"lease" ~name:"lease 0 [9,11)" ~t0:1_000_000L ~dur:9_000_000L
        ~domain:0 ~task:(-1) ~flow:9 ~flow_n:2;
    ]
  in
  let worker =
    [
      sp ~cat:"exec" ~name:"exec:10" ~t0:7_004_000_000L ~dur:1_500_000L
        ~domain:2 ~task:4 ~flow:10 ~flow_n:0;
      sp ~cat:"exec" ~name:"exec:9" ~t0:7_002_000_000L ~dur:1_000_000L
        ~domain:1 ~task:3 ~flow:9 ~flow_n:0;
      sp ~cat:"gen" ~name:"generate" ~t0:7_000_000_000L ~dur:2_000L ~domain:1
        ~task:(-1) ~flow:(-1) ~flow_n:0;
    ]
  in
  let written f =
    let path = Filename.temp_file "test_obs_pinned" ".json" in
    f path;
    let body = read_file path in
    Sys.remove path;
    body
  in
  Alcotest.(check string)
    "write"
    "{\"traceEvents\":[\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":1,\"args\":{\"name\":\"domain 0\"}},\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"domain 1\"}},\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":1,\"args\":{\"name\":\"domain 2\"}},\
     {\"name\":\"lease 0 [9,11)\",\"cat\":\"lease\",\"ph\":\"X\",\"ts\":0,\"dur\":9000,\"pid\":0,\"tid\":1,\"args\":{}},\
     {\"name\":\"merge\",\"cat\":\"merge\",\"ph\":\"X\",\"ts\":19000,\"dur\":1,\"pid\":0,\"tid\":1,\"args\":{}},\
     {\"name\":\"generate\",\"cat\":\"gen\",\"ph\":\"X\",\"ts\":6999000,\"dur\":2,\"pid\":1,\"tid\":1,\"args\":{}},\
     {\"name\":\"exec:9\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":7001000,\"dur\":1000,\"pid\":1,\"tid\":1,\"args\":{\"task\":3}},\
     {\"name\":\"exec:10\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":7003000,\"dur\":1500,\"pid\":2,\"tid\":1,\"args\":{\"task\":4}},\
     {\"name\":\"cell\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":9,\"ts\":0,\"pid\":0,\"tid\":1},\
     {\"name\":\"cell\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":9,\"ts\":7001000,\"pid\":1,\"tid\":1,\"bp\":\"e\"},\
     {\"name\":\"cell\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":10,\"ts\":0,\"pid\":0,\"tid\":1},\
     {\"name\":\"cell\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":10,\"ts\":7003000,\"pid\":2,\"tid\":1,\"bp\":\"e\"}\
     ],\"displayTimeUnit\":\"ms\"}\n"
    (written (fun path -> Trace.write ~path (coord @ worker)));
  Alcotest.(check string)
    "write_groups"
    "{\"traceEvents\":[\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"coordinator\"}},\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\"args\":{\"name\":\"domain 0\"}},\
     {\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"worker 1\"}},\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"domain 1\"}},\
     {\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":2,\"args\":{\"name\":\"domain 2\"}},\
     {\"name\":\"lease 0 [9,11)\",\"cat\":\"lease\",\"ph\":\"X\",\"ts\":0,\"dur\":9000,\"pid\":0,\"tid\":0,\"args\":{}},\
     {\"name\":\"merge\",\"cat\":\"merge\",\"ph\":\"X\",\"ts\":19000,\"dur\":1,\"pid\":0,\"tid\":0,\"args\":{}},\
     {\"name\":\"generate\",\"cat\":\"gen\",\"ph\":\"X\",\"ts\":0,\"dur\":2,\"pid\":1,\"tid\":1,\"args\":{}},\
     {\"name\":\"exec:9\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":2000,\"dur\":1000,\"pid\":1,\"tid\":1,\"args\":{\"task\":3}},\
     {\"name\":\"exec:10\",\"cat\":\"exec\",\"ph\":\"X\",\"ts\":4000,\"dur\":1500,\"pid\":1,\"tid\":2,\"args\":{\"task\":4}},\
     {\"name\":\"cell\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":9,\"ts\":0,\"pid\":0,\"tid\":0},\
     {\"name\":\"cell\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":9,\"ts\":2000,\"pid\":1,\"tid\":1,\"bp\":\"e\"},\
     {\"name\":\"cell\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":10,\"ts\":0,\"pid\":0,\"tid\":0},\
     {\"name\":\"cell\",\"cat\":\"flow\",\"ph\":\"f\",\"id\":10,\"ts\":4000,\"pid\":1,\"tid\":2,\"bp\":\"e\"}\
     ],\"displayTimeUnit\":\"ms\"}\n"
    (written (fun path ->
         Trace.write_groups ~path [ ("coordinator", coord); ("worker 1", worker) ]))

(* --- cost profiler --- *)

let cp ~khash ~config ~opt ~ticks constructs =
  {
    Costprof.khash;
    config;
    opt;
    ticks;
    constructs =
      List.map
        (fun (kind, loc, path, n) -> { Costprof.kind; loc; path; n })
        constructs;
  }

let test_costprof_accumulates_and_roundtrips () =
  Costprof.reset ();
  Alcotest.(check int) "fresh accumulator is empty" 0
    (List.length (Costprof.snapshot ()));
  (* same (khash, config, opt) key: cells merge, per-construct counts sum *)
  Costprof.record
    (cp ~khash:"aa" ~config:1 ~opt:"+" ~ticks:5
       [ ("binop", 3, "kernel:k;for", 5) ]);
  Costprof.record
    (cp ~khash:"aa" ~config:1 ~opt:"+" ~ticks:2
       [ ("binop", 3, "kernel:k;for", 2) ]);
  Costprof.record
    (cp ~khash:"aa" ~config:1 ~opt:"-" ~ticks:1
       [ ("if", 0, "kernel:k", 1) ]);
  let cells = Costprof.snapshot () in
  Costprof.reset ();
  Alcotest.(check int) "one cell per (khash, config, opt)" 2
    (List.length cells);
  let merged = List.find (fun c -> String.equal c.Costprof.opt "+") cells in
  Alcotest.(check int) "ticks summed across records" 7 merged.Costprof.ticks;
  (match merged.Costprof.constructs with
  | [ k ] -> Alcotest.(check int) "construct counts summed" 7 k.Costprof.n
  | l -> Alcotest.failf "expected one merged construct, got %d" (List.length l));
  let path = Filename.temp_file "test_obs_prof" ".jsonl" in
  Costprof.write ~path cells;
  (match Costprof.load ~path with
  | Error e -> Alcotest.failf "clean profile fails to load: %s" e
  | Ok (cells', torn) ->
      Alcotest.(check bool) "clean file is not torn" false torn;
      Alcotest.(check int) "roundtrip preserves cells" (List.length cells)
        (List.length cells');
      List.iter2
        (fun a b ->
          Alcotest.(check string) "khash" a.Costprof.khash b.Costprof.khash;
          Alcotest.(check int) "ticks" a.Costprof.ticks b.Costprof.ticks)
        cells cells');
  (* the report attributes every tick to a named construct *)
  let rep = Costprof.report cells in
  Alcotest.(check bool) "report names the hot construct" true
    (contains rep "binop");
  Alcotest.(check bool) "report shows full attribution" true
    (contains rep "100.0%");
  Sys.remove path

let test_costprof_torn_tail_recovery () =
  Costprof.reset ();
  Costprof.record
    (cp ~khash:"bb" ~config:2 ~opt:"+" ~ticks:3 [ ("for", 1, "kernel:k", 3) ]);
  let cells = Costprof.snapshot () in
  Costprof.reset ();
  let path = Filename.temp_file "test_obs_torn" ".jsonl" in
  Costprof.write ~path cells;
  (* a torn final line (the crash-mid-write case) is recoverable *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"h\":\"dead";
  close_out oc;
  (match Costprof.load ~path with
  | Error e -> Alcotest.failf "torn tail should recover, got: %s" e
  | Ok (cells', torn) ->
      Alcotest.(check bool) "torn flag raised" true torn;
      Alcotest.(check int) "clean prefix intact" (List.length cells)
        (List.length cells'));
  (* corruption anywhere but the final line is an error, not silently
     skipped: append a valid-looking second garbage line after the torn
     one so the damage is no longer tail-only *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "\n{\"h\":\"beef\"}\n";
  close_out oc;
  (match Costprof.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-file corruption must not load");
  Sys.remove path

(* --- progress line --- *)

let test_progress_line () =
  let path = Filename.temp_file "test_obs_progress" ".txt" in
  let oc = open_out path in
  let p = Progress.create ~out:oc ~min_interval_ms:0 ~label:"cells" ~total:3 () in
  Progress.step p ~tag:"ok";
  Progress.step p ~tag:"w";
  Progress.step p ~tag:"ok";
  Progress.finish p;
  close_out oc;
  let body = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "shows done/total" true (contains body "3/3");
  Alcotest.(check bool) "tallies classes in arrival order" true
    (contains body "ok:2" && contains body "w:1")

(* resumed/prefilled cells show in done/total but must not inflate the
   session's rate: only this session's steps feed the tallies *)
let test_progress_resumed_start () =
  let path = Filename.temp_file "test_obs_start" ".txt" in
  let oc = open_out path in
  let p =
    Progress.create ~out:oc ~min_interval_ms:0 ~start:2 ~label:"cells"
      ~total:4 ()
  in
  Progress.step p ~tag:"ok";
  Progress.step p ~tag:"ok";
  Progress.finish p;
  close_out oc;
  let body = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "prefill counts toward done/total" true
    (contains body "4/4");
  Alcotest.(check bool) "session tallies exclude the prefill" true
    (contains body "ok:2")

(* a non-tty out channel must degrade to plain newline updates: no
   carriage returns, no escape sequences, parseable by any log viewer *)
let test_progress_plain_fallback () =
  let path = Filename.temp_file "test_obs_plain" ".txt" in
  let oc = open_out path in
  Alcotest.(check bool) "file out detected as plain" true
    (Progress.detect_style oc = Progress.Plain);
  let p = Progress.create ~out:oc ~min_interval_ms:0 ~label:"cells" ~total:2 () in
  Progress.step p ~tag:"ok";
  Progress.step p ~tag:"ok";
  Progress.finish p;
  close_out oc;
  let body = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "no ANSI escapes on a non-tty" true
    (not (String.contains body '\027' || String.contains body '\r'));
  Alcotest.(check bool) "newline-terminated updates" true
    (String.length body > 0 && body.[String.length body - 1] = '\n');
  Alcotest.(check bool) "final state present" true (contains body "2/2")

let test_progress_ansi_style () =
  let path = Filename.temp_file "test_obs_ansi" ".txt" in
  let oc = open_out path in
  let p =
    Progress.create ~out:oc ~style:Progress.Ansi ~min_interval_ms:0
      ~label:"cells" ~total:1 ()
  in
  Progress.step p ~tag:"ok";
  Progress.finish p;
  close_out oc;
  let body = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "carriage-return redraw when forced to ANSI" true
    (String.contains body '\r' && contains body "\027[K")

(* --- host info --- *)

let test_hostinfo () =
  Alcotest.(check bool) "at least one core" true (Hostinfo.cores () >= 1);
  match Jsonl.of_string (Jsonl.to_string (Hostinfo.to_json ())) with
  | Ok j ->
      Alcotest.(check (option string)) "ocaml version exported"
        (Some Sys.ocaml_version)
        (Option.bind (Jsonl.member "ocaml" j) Jsonl.get_str)
  | Error e -> Alcotest.failf "host JSON does not round-trip: %s" e

(* --- the determinism contract on a real campaign --- *)

let per_mode = 2
let modes = [ Gen_config.Basic ]
let config_ids = [ 1; 19 ]

(* the counters under the -j-invariance contract: totals fed from the
   ordered result stream. Pool gauges (busy time, queue depth) are
   scheduling-dependent by design and excluded. *)
let deterministic_counters () =
  List.filter
    (fun (name, _) ->
      List.exists
        (fun p -> String.starts_with ~prefix:p name)
        [ "cells."; "interp."; "outcomes." ])
    (Metrics.counters ())

let run_and_snapshot jobs =
  Metrics.reset ();
  let table =
    Campaign.to_table (Campaign.run ~jobs ~per_mode ~modes ~config_ids ())
  in
  (table, deterministic_counters ())

let test_metrics_j_invariant () =
  let t1, c1 = run_and_snapshot 1 in
  let t4, c4 = run_and_snapshot 4 in
  Alcotest.(check string) "tables agree" t1 t4;
  Alcotest.(check (list (pair string int)))
    "deterministic counter totals agree across -j" c1 c4;
  Alcotest.(check bool) "cells were actually counted" true
    (match List.assoc_opt "cells.completed" c1 with
    | Some n -> n > 0
    | None -> false);
  Alcotest.(check bool) "interpreter work was tallied" true
    (match List.assoc_opt "interp.steps" c1 with
    | Some n -> n > 0
    | None -> false)

let run_with_telemetry enabled =
  Span.reset ();
  Metrics.reset ();
  if enabled then Span.enable ();
  let path = Filename.temp_file "test_obs_journal" ".jsonl" in
  let w =
    Journal.create ~path (Campaign.journal_header ~per_mode ~modes ~config_ids ())
  in
  let table =
    Campaign.to_table
      (Campaign.run ~jobs:2 ~per_mode ~modes ~config_ids
         ~sink:(Journal.write_cell w) ())
  in
  Journal.commit w;
  let journal = read_file path in
  Sys.remove path;
  Span.disable ();
  let spans = Span.drain () in
  (table, journal, List.length spans)

let test_telemetry_does_not_change_bytes () =
  let t_off, j_off, s_off = run_with_telemetry false in
  let t_on, j_on, s_on = run_with_telemetry true in
  Alcotest.(check string) "table bytes identical with tracing on" t_off t_on;
  Alcotest.(check string) "journal bytes identical with tracing on" j_off j_on;
  Alcotest.(check int) "no spans while disabled" 0 s_off;
  Alcotest.(check bool) "spans recorded while enabled" true (s_on > 0)

let run_with_profile enabled jobs =
  Metrics.reset ();
  Costprof.reset ();
  if enabled then Costprof.enable ();
  let table =
    Campaign.to_table (Campaign.run ~jobs ~per_mode ~modes ~config_ids ())
  in
  Costprof.disable ();
  let cells = Costprof.snapshot () in
  Costprof.reset ();
  (table, cells)

let profile_bytes cells =
  let path = Filename.temp_file "test_obs_profbytes" ".jsonl" in
  Costprof.write ~path cells;
  let body = read_file path in
  Sys.remove path;
  body

let test_costprof_leaves_bytes_alone () =
  let t_off, c_off = run_with_profile false 2 in
  let t_on, c_on = run_with_profile true 2 in
  Alcotest.(check string) "table bytes identical with profiling on" t_off t_on;
  Alcotest.(check int) "no cells recorded while disabled" 0
    (List.length c_off);
  Alcotest.(check bool) "cells recorded while enabled" true (c_on <> [])

let test_costprof_j_invariant () =
  let _, c1 = run_with_profile true 1 in
  let _, c4 = run_with_profile true 4 in
  Alcotest.(check string) "profile bytes identical across -j"
    (profile_bytes c1) (profile_bytes c4);
  (* the acceptance bar: the profile attributes the interpreter's work
     to named constructs — here the attribution is exact by design *)
  List.iter
    (fun (c : Costprof.cell) ->
      let sum =
        List.fold_left
          (fun acc (k : Costprof.construct) -> acc + k.Costprof.n)
          0 c.Costprof.constructs
      in
      Alcotest.(check int)
        (Printf.sprintf "cell %s c%d%s fully attributed" c.Costprof.khash
           c.Costprof.config c.Costprof.opt)
        c.Costprof.ticks sum)
    c1

(* --- ETA display --- *)

let test_progress_eta_string () =
  let path = Filename.temp_file "test_obs_eta" ".txt" in
  let oc = open_out path in
  Fun.protect ~finally:(fun () ->
      close_out_noerr oc;
      Sys.remove path)
  @@ fun () ->
  let p =
    Progress.create ~out:oc ~style:Progress.Plain ~start:2 ~label:"x"
      ~total:4 ()
  in
  let now = Mclock.now_ns () in
  (* work remains but only prefill is done: rate is zero, no guess *)
  Alcotest.(check string) "prefill-only shows --:--" "--:--"
    (Progress.eta_string p now);
  Progress.step p ~tag:"ok";
  (* evaluate the ETA as if 10s had elapsed: 1 session cell done, 1 to
     go, so the extrapolation lands in seconds, not "--:--" *)
  let eta = Progress.eta_string p (Int64.add now 10_000_000_000L) in
  Alcotest.(check bool) "measured rate extrapolates" true
    (not (String.equal eta "--:--") && not (String.equal eta "0s"));
  Progress.step p ~tag:"ok";
  Alcotest.(check string) "nothing remaining shows 0s" "0s"
    (Progress.eta_string p (Mclock.now_ns ()))

(* --- the windowed series --- *)

let sec n = Int64.mul (Int64.of_int n) 1_000_000_000L

(* random pushes on an injected clock: the ring keeps exactly the newest
   [capacity] of the pushes that honour the spacing, in push order *)
let prop_series_ring =
  QCheck.Test.make ~count:300 ~name:"ring keeps the newest spaced samples"
    QCheck.(
      triple (int_range 1 6) (int_range 0 3)
        (list_of_size Gen.(0 -- 40) (pair (int_range 0 3) small_int)))
    (fun (capacity, interval, pushes) ->
      let t = Series.create ~capacity ~interval_ns:(Int64.of_int interval) in
      let now = ref 0 and kept = ref [] in
      List.iter
        (fun (gap, v) ->
          now := !now + gap;
          (match !kept with
          | (last, _) :: _ when !now - last < interval -> ()
          | _ -> kept := (!now, v) :: !kept);
          Series.push t ~now:(Int64.of_int !now) v)
        pushes;
      let expected =
        List.rev (List.filteri (fun i _ -> i < capacity) !kept)
      in
      List.map (fun (at, v) -> (Int64.to_int at, v)) (Series.samples t)
      = expected)

(* a steady count of 10 per second, then silence: the rate reads the
   count's growth over the window, and 0 once the ring rolls past the
   last change *)
let test_series_rate () =
  let t = Series.rate_window () in
  for i = 0 to 99 do
    Series.push t ~now:(Int64.of_int (i * 100_000_000)) i
  done;
  let r = Series.rate_milli t ~now:(sec 10) 100 in
  Alcotest.(check bool)
    (Printf.sprintf "10 per second reads about 10,000 milli/s (%d)" r)
    true
    (r >= 9_500 && r <= 10_500);
  let idle =
    List.map
      (fun s ->
        Series.push t ~now:(sec s) 100;
        Series.rate_milli t ~now:(sec s) 100)
      [ 10; 11; 12; 13; 14; 15 ]
  in
  Alcotest.(check bool) "decays while the last change is retained" true
    (List.hd idle > 0);
  Alcotest.(check int) "0 once the ring rolls past it" 0
    (List.nth idle (Series.capacity t));
  Alcotest.(check int) "an empty series reads 0" 0
    (Series.rate_milli (Series.rate_window ()) ~now:(sec 1) 5)

(* the window percentile is the sorted-list rank rule of the metrics
   registry, over the newest [capacity] values *)
let prop_series_percentile =
  QCheck.Test.make ~count:300 ~name:"percentile = sorted-list reference"
    QCheck.(
      triple (int_range 1 8) (int_range 0 100)
        (list_of_size Gen.(0 -- 20) (int_range (-50) 1000)))
    (fun (capacity, p, values) ->
      let t = Series.create ~capacity ~interval_ns:0L in
      List.iter (fun v -> Series.push t ~now:0L v) values;
      let window =
        List.filteri (fun i _ -> i >= List.length values - capacity) values
      in
      let expected =
        match List.sort compare window with
        | [] -> None
        | sorted ->
            let n = List.length sorted in
            let rank = max 1 (((p * n) + 99) / 100) in
            Some (List.nth sorted (rank - 1))
      in
      Series.percentile t p = expected)

let test_series_properties () =
  List.iter QCheck.Test.check_exn [ prop_series_ring; prop_series_percentile ]

(* --- the stage tally --- *)

let prop_stage_tally =
  QCheck.Test.make ~count:300 ~name:"stage tally = Hashtbl fold"
    QCheck.(
      list_of_size Gen.(0 -- 60)
        (pair (oneofl [ "gen"; "opt"; "exec"; "vote"; "persist" ])
           (int_bound 5_000_000)))
    (fun pairs ->
      let spans =
        List.map
          (fun (cat, dur) ->
            {
              Span.cat;
              name = cat;
              t0_ns = 0L;
              dur_ns = Int64.of_int dur;
              domain = 0;
              task = -1;
              flow = -1;
              flow_n = 0;
            })
          pairs
      in
      let tbl = Hashtbl.create 8 in
      List.iter
        (fun (cat, dur) ->
          Hashtbl.replace tbl cat
            ((dur / 1000) + Option.value ~default:0 (Hashtbl.find_opt tbl cat)))
        pairs;
      let expected =
        List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
      in
      Span.stage_us spans = expected)

let test_stage_tally () = QCheck.Test.check_exn prop_stage_tally

let () =
  Alcotest.run "obs"
    [
      ( "span",
        [
          Alcotest.test_case "disabled is free" `Quick
            test_span_disabled_records_nothing;
          Alcotest.test_case "records + survives raise" `Quick
            test_span_records_and_survives_raise;
        ] );
      ( "trace",
        [
          Alcotest.test_case "chrome export" `Quick test_trace_export;
          Alcotest.test_case "grouped fleet export" `Quick
            test_trace_groups_pid_separation;
          Alcotest.test_case "causal flow events" `Quick
            test_trace_flow_events;
          Alcotest.test_case "bytes of both layouts" `Quick
            test_trace_bytes_pinned;
        ] );
      ( "costprof",
        [
          Alcotest.test_case "accumulate + roundtrip" `Quick
            test_costprof_accumulates_and_roundtrips;
          Alcotest.test_case "torn tail recovery" `Quick
            test_costprof_torn_tail_recovery;
        ] );
      ( "series",
        [
          Alcotest.test_case "ring and percentile properties" `Quick
            test_series_properties;
          Alcotest.test_case "rate on an injected clock" `Quick
            test_series_rate;
          Alcotest.test_case "stage tally" `Quick test_stage_tally;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters + json" `Quick
            test_metrics_counters_and_json;
          Alcotest.test_case "histogram buckets" `Quick test_histogram_bucketing;
          Alcotest.test_case "histogram percentiles" `Quick
            test_histogram_percentiles;
          Alcotest.test_case "prometheus exposition" `Quick
            test_prometheus_exposition;
        ] );
      ( "progress",
        [
          Alcotest.test_case "line" `Quick test_progress_line;
          Alcotest.test_case "resumed start" `Quick test_progress_resumed_start;
          Alcotest.test_case "plain fallback" `Quick test_progress_plain_fallback;
          Alcotest.test_case "ansi style" `Quick test_progress_ansi_style;
          Alcotest.test_case "eta string" `Quick test_progress_eta_string;
        ] );
      ("host", [ Alcotest.test_case "info" `Quick test_hostinfo ]);
      ( "determinism",
        [
          Alcotest.test_case "metrics -j invariant" `Slow test_metrics_j_invariant;
          Alcotest.test_case "telemetry leaves bytes alone" `Slow
            test_telemetry_does_not_change_bytes;
          Alcotest.test_case "profiler leaves bytes alone" `Slow
            test_costprof_leaves_bytes_alone;
          Alcotest.test_case "profile -j invariant" `Slow
            test_costprof_j_invariant;
        ] );
    ]
