(* The analytics layer: eventlog codec and writer, lineage reconstruction
   from journal provenance, the HTML report generator and the stall
   watchdog — plus the property the eventlog hangs off: lifecycle events
   stream through the ordered merge path, so the event file is
   byte-identical across -j values, exactly like the journal. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1))
  in
  nn = 0 || go 0

(* --- eventlog codec --- *)

let sample_events =
  [
    Eventlog.Campaign_start
      {
        campaign = "fuzz";
        ident = [ ("fuel", "-"); ("seed", "1") ];
        scale = [ ("budget", "8") ];
        total = 160;
      };
    Eventlog.Cell
      { index = 0; seed = 0; mode = "fuzz"; config = 1; opt = "-"; cls = "ok" };
    Eventlog.Generation
      {
        gen = 0;
        kernels = 8;
        mutants = 2;
        new_bits = 31;
        coverage = 200;
        corpus = 5;
        findings = 3;
        distinct_bugs = 2;
      };
    Eventlog.Coverage_delta { gen = 0; kernel = 3; new_bits = 7; total = 150 };
    Eventlog.Triage_hit
      {
        cls = "wrong-code";
        config = 13;
        opt = "+";
        signature = "vector";
        seed = 3;
        mode = "fuzz";
        hash = "abcdef";
      };
    Eventlog.Pool_health
      {
        worker = -1;
        submitted = 100;
        completed = 90;
        in_flight = 10;
        stalled_domains = [];
      };
    Eventlog.Pool_health
      {
        worker = 2;
        submitted = 40;
        completed = 30;
        in_flight = 10;
        stalled_domains = [ 2 ];
      };
    Eventlog.Stage_timing [ ("exec", 12345); ("gen", 678) ];
    Eventlog.Watchdog
      {
        level = "stall";
        completed = 90;
        in_flight = 10;
        stalled_domains = [ 2; 5 ];
        idle_ms = 30000;
      };
    Eventlog.Fleet_health
      {
        total = 160;
        collected = 80;
        in_flight = 3;
        fleet_milli = 12500;
        workers =
          [
            {
              Eventlog.fw_worker = 0;
              fw_cells = 41;
              fw_rate_milli = 6500;
              fw_last_ms = 120;
              fw_alive = true;
              fw_straggler = false;
            };
            {
              Eventlog.fw_worker = 1;
              fw_cells = 39;
              fw_rate_milli = 600;
              fw_last_ms = 11000;
              fw_alive = true;
              fw_straggler = true;
            };
          ];
      };
    Eventlog.Campaign_end { cells = 160 };
  ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun e ->
      match Eventlog.decode (Eventlog.encode e) with
      | Ok e' ->
          Alcotest.(check bool) "decode (encode e) = e" true (e = e')
      | Error m -> Alcotest.failf "roundtrip failed: %s" m)
    sample_events

let test_decode_rejects_damage () =
  let line = Eventlog.encode (List.hd sample_events) in
  let flipped =
    String.mapi (fun i c -> if i = 8 then (if c = 'z' then 'y' else 'z') else c) line
  in
  (match Eventlog.decode flipped with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted line decoded");
  match Eventlog.decode "{\"v\":99,\"e\":\"campaign_end\",\"cells\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong schema version accepted"

(* the v1 -> v2 schema bump only added event kinds, so a line written
   by the previous schema must still decode *)
let test_decode_old_schema_version () =
  let line =
    Jsonl.encode_line
      [
        ("v", Jsonl.Int 1);
        ("e", Jsonl.Str "campaign_end");
        ("cells", Jsonl.Int 5);
      ]
  in
  match Eventlog.decode line with
  | Ok (Eventlog.Campaign_end { cells }) ->
      Alcotest.(check int) "v1 payload decodes" 5 cells
  | Ok _ -> Alcotest.fail "v1 line decoded to the wrong event"
  | Error m -> Alcotest.failf "v1 line rejected: %s" m

let test_deterministic_split () =
  List.iter
    (fun e ->
      let expected =
        match e with
        | Eventlog.Pool_health _ | Eventlog.Stage_timing _ | Eventlog.Watchdog _
        | Eventlog.Fleet_health _ ->
            false
        | _ -> true
      in
      Alcotest.(check bool) "is_deterministic matches the contract" expected
        (Eventlog.is_deterministic e))
    sample_events

let test_writer_and_torn_tail () =
  let path = Filename.temp_file "test_eventlog" ".jsonl" in
  let w = Eventlog.create ~path in
  List.iter (Eventlog.emit w) sample_events;
  Eventlog.close w;
  (match Eventlog.load ~path with
  | Ok (evs, torn) ->
      Alcotest.(check bool) "clean file is not torn" false torn;
      Alcotest.(check bool) "events replay in order" true (evs = sample_events)
  | Error m -> Alcotest.failf "load failed: %s" m);
  (* a kill -9 mid-append leaves a partial final line: discarded, flagged *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"v\":1,\"e\":\"cell\",\"ind";
  close_out oc;
  (match Eventlog.load ~path with
  | Ok (evs, torn) ->
      Alcotest.(check bool) "torn tail flagged" true torn;
      Alcotest.(check int) "clean prefix kept"
        (List.length sample_events)
        (List.length evs)
  | Error m -> Alcotest.failf "torn tail should not fail the load: %s" m);
  Sys.remove path

(* --- fuzz lifecycle events: -j invariance and lineage --- *)

let fuzz_budget = 24
let fuzz_configs = [ 1; 13; 15 ]

let run_fuzz jobs =
  let cells = ref [] and events = ref [] in
  let r =
    Fuzz_loop.run ~jobs ~budget:fuzz_budget ~seed:3 ~config_ids:fuzz_configs
      ~sink:(fun c -> cells := c :: !cells)
      ~events:(fun e -> events := Eventlog.encode e :: !events)
      ()
  in
  (r, List.rev !cells, List.rev !events)

let fuzz_j1 = lazy (run_fuzz 1)
let fuzz_j4 = lazy (run_fuzz 4)

let test_events_j_invariant () =
  let _, cells1, events1 = Lazy.force fuzz_j1 in
  let _, cells4, events4 = Lazy.force fuzz_j4 in
  Alcotest.(check bool) "journalled cells identical across -j" true
    (cells1 = cells4);
  Alcotest.(check (list string)) "encoded events identical across -j" events1
    events4;
  Alcotest.(check bool) "events were actually emitted" true (events1 <> []);
  (* every emitted kind is inside the determinism contract *)
  List.iter
    (fun line ->
      match Eventlog.decode line with
      | Ok e ->
          Alcotest.(check bool) "fuzz emits only deterministic kinds" true
            (Eventlog.is_deterministic e)
      | Error m -> Alcotest.failf "emitted line does not decode: %s" m)
    events1

let lineage_exn cells =
  match Lineage.of_cells cells with
  | Ok t -> t
  | Error m -> Alcotest.failf "lineage rejected a live journal: %s" m

let test_lineage_properties () =
  let r, cells, _ = Lazy.force fuzz_j1 in
  let t = lineage_exn cells in
  Alcotest.(check int) "one DAG node per kernel" r.Fuzz_loop.kernels_run
    (Lineage.size t);
  let n_mutants = ref 0 in
  List.iter
    (fun id ->
      match Lineage.node t id with
      | None -> Alcotest.failf "kernel %d listed but not resolvable" id
      | Some n -> (
          match n.Lineage.prov with
          | Lineage.Root _ ->
              Alcotest.(check (option int)) "roots have no parent" None
                (Lineage.parent t id)
          | Lineage.Mutant { parent; _ } ->
              incr n_mutants;
              (* the satellite property: every P_mut parent resolves to an
                 earlier journalled kernel *)
              Alcotest.(check bool) "parent strictly earlier" true (parent < id);
              Alcotest.(check bool) "parent resolvable" true
                (Lineage.node t parent <> None);
              (* acyclicity, constructively: the root-first ancestry is
                 finite, strictly increasing and ends at this kernel *)
              let path = Lineage.path_to_root t id in
              Alcotest.(check bool) "path starts at a root" true
                (match path with (_, None) :: _ -> true | _ -> false);
              Alcotest.(check bool) "path ends at the kernel" true
                (match List.rev path with (k, _) :: _ -> k = id | [] -> false);
              let ids = List.map fst path in
              Alcotest.(check bool) "path ids strictly increase" true
                (List.for_all2 ( < ) (List.filteri (fun i _ -> i < List.length ids - 1) ids)
                   (List.tl ids));
              Alcotest.(check bool) "depth = path length - 1" true
                (Lineage.depth t id = List.length path - 1);
              Alcotest.(check bool) "ancestry tops out at a generator seed"
                true
                (Lineage.root_seed t id <> None)))
    (Lineage.ids t);
  Alcotest.(check bool) "the run actually produced mutants" true
    (!n_mutants > 0);
  Alcotest.(check int) "operator counts cover every mutant" !n_mutants
    (List.fold_left (fun a (_, n) -> a + n) 0 (Lineage.operator_counts t))

let test_lineage_j_invariant () =
  let _, cells1, _ = Lazy.force fuzz_j1 in
  let _, cells4, _ = Lazy.force fuzz_j4 in
  let t1 = lineage_exn cells1 and t4 = lineage_exn cells4 in
  Alcotest.(check (list int)) "same kernels in the same order"
    (Lineage.ids t1) (Lineage.ids t4);
  List.iter
    (fun id ->
      Alcotest.(check bool) "same provenance and tags per kernel" true
        (Lineage.node t1 id = Lineage.node t4 id))
    (Lineage.ids t1)

let test_lineage_rejects_bad_provenance () =
  let cell ~seed ~note =
    {
      Journal.index = 0;
      seed;
      mode = "fuzz";
      config = 1;
      opt = "-";
      outcomes = [ Outcome.Success "0" ];
      note;
    }
  in
  (match Lineage.of_cells [ cell ~seed:0 ~note:"s=1;b=0" ] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing provenance accepted");
  (match
     Lineage.of_cells
       [ cell ~seed:0 ~note:"p=g1"; cell ~seed:1 ~note:"p=m2:splice" ]
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "forward parent reference accepted");
  match
    Lineage.of_cells [ cell ~seed:0 ~note:"p=g1"; cell ~seed:1 ~note:"p=m1:splice" ]
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "self-parent accepted"

let test_discovery_paths () =
  let _, cells, events = Lazy.force fuzz_j1 in
  let t = lineage_exn cells in
  let hits =
    List.filter_map
      (fun line ->
        match Eventlog.decode line with
        | Ok (Eventlog.Triage_hit { cls; config; opt; signature; seed; _ }) ->
            Some (cls, config, opt, signature, seed)
        | _ -> None)
      events
  in
  Alcotest.(check bool) "the run produced triage hits" true (hits <> []);
  let ds = Lineage.discovery_paths t hits in
  Alcotest.(check bool) "at least one discovery" true (ds <> []);
  let keys =
    List.map
      (fun d ->
        (d.Lineage.d_cls, d.Lineage.d_config, d.Lineage.d_opt,
         d.Lineage.d_signature))
      ds
  in
  Alcotest.(check int) "one discovery per distinct bucket"
    (List.length (List.sort_uniq compare keys))
    (List.length keys);
  List.iter
    (fun d ->
      Alcotest.(check bool) "path ends at the exemplar kernel" true
        (match List.rev d.Lineage.d_path with
        | (k, _) :: _ -> k = d.Lineage.d_kernel
        | [] -> false))
    ds

(* --- HTML report --- *)

let test_report_html () =
  let r, cells, events = Lazy.force fuzz_j1 in
  let header =
    Fuzz_loop.journal_header ~budget:fuzz_budget ~seed:3
      ~config_ids:fuzz_configs ()
  in
  let evs =
    List.filter_map
      (fun l -> match Eventlog.decode l with Ok e -> Some e | Error _ -> None)
      events
  in
  let html = Report_html.render ~header ~cells ~events:evs () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report contains %S" needle) true
        (contains html needle))
    [
      "<!DOCTYPE html>";
      "Outcomes by configuration and opt level";
      "Interesting-cell heatmap";
      "Campaign curves";
      "<svg";
      "Bug discovery paths";
      "<details>";
    ];
  (* self-contained: no scripts, no external references *)
  List.iter
    (fun banned ->
      Alcotest.(check bool) (Printf.sprintf "report avoids %S" banned) false
        (contains html banned))
    [ "<script"; "http://"; "https://"; "src=" ];
  let summary = Report_html.summary ~header ~cells ~events:evs () in
  Alcotest.(check bool) "summary names the campaign" true
    (contains summary "campaign fuzz:");
  Alcotest.(check bool) "summary reports the kernel count" true
    (contains summary (Printf.sprintf "%d kernels" r.Fuzz_loop.kernels_run))

(* --- watchdog --- *)

let collect_watchdog ?abort ~probe ~warn_ms ~timeout_ms wait_s =
  let events = ref [] and m = Mutex.create () in
  let on_event level snap =
    Mutex.lock m;
    events := (level, snap) :: !events;
    Mutex.unlock m
  in
  let w = Watchdog.start ~poll_ms:5 ~warn_ms ~timeout_ms ~probe ?abort ~on_event () in
  Unix.sleepf wait_s;
  Watchdog.stop w;
  List.rev !events

let test_watchdog_escalates_on_stall () =
  (* a frozen pool: completed never moves, domain 1's heartbeat is
     ancient while domain 2 beats on every probe *)
  let probe () = Some (5, 2, [ (1, 1L); (2, Mclock.now_ns ()) ]) in
  let events =
    collect_watchdog ~probe ~warn_ms:30 ~timeout_ms:90 0.4
  in
  let levels = List.map fst events in
  Alcotest.(check bool) "warns exactly once" true
    (List.length (List.filter (( = ) Watchdog.Warn) levels) = 1);
  Alcotest.(check bool) "stalls exactly once" true
    (List.length (List.filter (( = ) Watchdog.Stall) levels) = 1);
  Alcotest.(check bool) "warn precedes stall" true
    (levels = [ Watchdog.Warn; Watchdog.Stall ]);
  let _, stall = List.nth events 1 in
  Alcotest.(check (list int)) "only the silent domain is stale" [ 1 ]
    stall.Watchdog.stalled_domains;
  Alcotest.(check bool) "idle window measured" true
    (stall.Watchdog.idle_ms >= 90)

let test_watchdog_abort_fires_once () =
  let aborted = ref 0 in
  let probe () = Some (7, 1, []) in
  let events =
    collect_watchdog
      ~abort:(fun _ -> incr aborted)
      ~probe ~warn_ms:20 ~timeout_ms:60 0.3
  in
  Alcotest.(check int) "abort action ran once" 1 !aborted;
  Alcotest.(check bool) "abort event recorded after the stall" true
    (List.map fst events = [ Watchdog.Warn; Watchdog.Stall; Watchdog.Abort ])

let test_watchdog_quiet_while_progressing () =
  let counter = Atomic.make 0 in
  let probe () = Some (Atomic.fetch_and_add counter 1, 1, []) in
  let events = collect_watchdog ~probe ~warn_ms:20 ~timeout_ms:40 0.25 in
  Alcotest.(check int) "no events while completed keeps moving" 0
    (List.length events)

let test_pool_probe_without_pool () =
  Alcotest.(check bool) "no pool, nothing to watch" true
    (Watchdog.pool_probe () = None)

(* --- fleet aggregator --- *)

(* every clock is passed in, so the fold is a deterministic function of
   the crafted beat/cell/lease sequence *)
let at_ms ms = Int64.of_int (ms * 1_000_000)

let test_fleet_coordinator_ewma () =
  let f = Fleet.create ~total:1000 ~now:(at_ms 0) () in
  Fleet.on_join f ~worker:0 ~pid:101 ~host:"a" ~now:(at_ms 0);
  (* a steady 10 cells/s for 10 seconds, one streamed cell every 100 ms *)
  for i = 0 to 99 do
    Fleet.on_cell f ~worker:0 ~now:(at_ms (i * 100))
  done;
  let snap = Fleet.snapshot f ~now:(at_ms 10_000) ~collected:100 ~in_flight:1 in
  let row = List.hd snap.Fleet.rows in
  Alcotest.(check bool) "EWMA converges near 10 cells/s" true
    (row.Fleet.rate_milli > 7000 && row.Fleet.rate_milli < 13000);
  Alcotest.(check int) "fleet rate sums the live workers" row.Fleet.rate_milli
    snap.Fleet.fleet_milli;
  Alcotest.(check bool) "ETA estimated from the fleet rate" true
    (snap.Fleet.eta_ms > 0);
  Alcotest.(check int) "cells attributed to the worker" 100 row.Fleet.cells;
  Alcotest.(check (list int)) "a lone busy worker is no straggler" []
    snap.Fleet.stragglers

(* an idle worker's rate is the growth over its last few one-second
   samples: once the window rolls past its last cell, it reads 0 *)
let test_fleet_idle_rate () =
  let f = Fleet.create ~total:1000 ~now:(at_ms 0) () in
  Fleet.on_join f ~worker:0 ~pid:101 ~host:"a" ~now:(at_ms 0);
  for i = 0 to 49 do
    Fleet.on_cell f ~worker:0 ~now:(at_ms (i * 100))
  done;
  let rate_at s =
    let snap = Fleet.snapshot f ~now:(at_ms (s * 1000)) ~collected:50 ~in_flight:0 in
    (List.hd snap.Fleet.rows).Fleet.rate_milli
  in
  let rates = List.map rate_at [ 5; 6; 7; 8; 9; 10 ] in
  Alcotest.(check bool) "busy worker reads a rate" true (List.hd rates > 0);
  Alcotest.(check int) "idle worker reads 0 once its cells leave the window" 0
    (List.nth rates 5)

let test_fleet_slow_rate_straggler () =
  let f = Fleet.create ~total:10_000 ~now:(at_ms 0) () in
  List.iter
    (fun w -> Fleet.on_join f ~worker:w ~pid:(100 + w) ~host:"h" ~now:(at_ms 0))
    [ 0; 1; 2 ];
  (* four seconds of streamed cells: two healthy workers at 10 and 9
     cells/s, and one at 1 cell/s, a ninth of the median *)
  let stream w ~every_ms =
    let rec go ms =
      if ms <= 4_000 then begin
        Fleet.on_cell f ~worker:w ~now:(at_ms ms);
        go (ms + every_ms)
      end
    in
    go every_ms
  in
  stream 0 ~every_ms:100;
  stream 1 ~every_ms:111;
  stream 2 ~every_ms:1_000;
  let snap = Fleet.snapshot f ~now:(at_ms 4_000) ~collected:80 ~in_flight:3 in
  Alcotest.(check (list int)) "the slow worker is flagged" [ 2 ]
    snap.Fleet.stragglers;
  let row w = List.nth snap.Fleet.rows w in
  Alcotest.(check bool) "healthy workers are not" true
    ((not (row 0).Fleet.straggler) && not (row 1).Fleet.straggler)

let test_fleet_stale_mid_lease () =
  let f = Fleet.create ~total:1_000 ~now:(at_ms 0) () in
  Fleet.on_join f ~worker:0 ~pid:7 ~host:"h" ~now:(at_ms 0);
  Fleet.on_join f ~worker:1 ~pid:8 ~host:"h" ~now:(at_ms 0);
  Fleet.on_lease f ~worker:0 ~lease_id:1 ~cells:100 ~now:(at_ms 500);
  Fleet.on_lease f ~worker:1 ~lease_id:2 ~cells:100 ~now:(at_ms 500);
  (* worker 1 keeps beating (beats refresh liveness too); worker 0 goes
     silent holding its lease *)
  for s = 1 to 14 do
    Fleet.on_beat f ~worker:1 ~now:(at_ms (s * 1000)) ~queue_depth:1
      ~rss_kb:2048
  done;
  let snap = Fleet.snapshot f ~now:(at_ms 14_000) ~collected:0 ~in_flight:2 in
  Alcotest.(check (list int)) "the silent leased worker is flagged" [ 0 ]
    snap.Fleet.stragglers;
  let r0 = List.hd snap.Fleet.rows in
  Alcotest.(check int) "it still holds its lease" 1 r0.Fleet.leases;
  Alcotest.(check bool) "silence measured in ms" true
    (r0.Fleet.last_ms >= 10_000);
  let r1 = List.nth snap.Fleet.rows 1 in
  Alcotest.(check (pair int int)) "the beat's queue depth and RSS surface"
    (1, 2048) (r1.Fleet.queue_depth, r1.Fleet.rss_kb);
  (* the worker comes back and both leases complete: flags clear and the
     grant-to-done latency lands in the rolling window *)
  Fleet.on_beat f ~worker:0 ~now:(at_ms 14_500) ~queue_depth:0 ~rss_kb:1024;
  Fleet.on_done f ~worker:0 ~lease_id:1 ~now:(at_ms 14_500);
  Fleet.on_done f ~worker:1 ~lease_id:2 ~now:(at_ms 14_500);
  let snap = Fleet.snapshot f ~now:(at_ms 15_000) ~collected:200 ~in_flight:0 in
  Alcotest.(check (list int)) "no stragglers after completion" []
    snap.Fleet.stragglers;
  let r0 = List.hd snap.Fleet.rows in
  Alcotest.(check bool) "lease latency percentiles recorded" true
    (r0.Fleet.lease_p50_ms >= 13_000
    && r0.Fleet.lease_p90_ms >= r0.Fleet.lease_p50_ms)

(* the fleet's stage tally is the sum of every span batch the workers
   shipped, however the batches split across workers and leases *)
let test_fleet_stage_tally () =
  let f = Fleet.create ~total:100 ~now:(at_ms 0) () in
  let sp cat us =
    {
      Span.cat;
      name = cat;
      t0_ns = 0L;
      dur_ns = Int64.of_int (us * 1000);
      domain = 0;
      task = -1;
      flow = -1;
      flow_n = 0;
    }
  in
  let batches =
    [
      (0, [ sp "exec" 700; sp "gen" 30 ]);
      (1, [ sp "exec" 500; sp "opt" 20 ]);
      (0, [ sp "exec" 900; sp "opt" 10; sp "gen" 40 ]);
      (1, []);
    ]
  in
  List.iter (fun (worker, spans) -> Fleet.add_spans f ~worker spans) batches;
  let snap = Fleet.snapshot f ~now:(at_ms 1_000) ~collected:0 ~in_flight:0 in
  Alcotest.(check (list (pair string int)))
    "stage_us sums all four batches"
    (Span.stage_us (List.concat_map snd batches))
    snap.Fleet.stage_us

let test_fleet_status_line_roundtrip () =
  let f = Fleet.create ~total:500 ~now:(at_ms 0) () in
  Fleet.on_join f ~worker:0 ~pid:11 ~host:"box" ~now:(at_ms 0);
  Fleet.on_lease f ~worker:0 ~lease_id:1 ~cells:50 ~now:(at_ms 100);
  for i = 1 to 40 do
    Fleet.on_cell f ~worker:0 ~now:(at_ms (100 + (i * 50)))
  done;
  Fleet.set_wire f ~worker:0 ~frames_in:41 ~bytes_in:5000 ~frames_out:7
    ~bytes_out:900;
  Fleet.note_local f 60;
  let snap = Fleet.snapshot f ~now:(at_ms 2_200) ~collected:100 ~in_flight:1 in
  let line = Fleet.snapshot_to_line ~campaign:"table1" ~phase:"fabric" snap in
  (match Fleet.snapshot_of_line line with
  | Error m -> Alcotest.failf "status line rejected: %s" m
  | Ok (campaign, phase, snap') ->
      Alcotest.(check string) "campaign survives" "table1" campaign;
      Alcotest.(check string) "phase survives" "fabric" phase;
      Alcotest.(check string) "re-encoding is byte-identical" line
        (Fleet.snapshot_to_line ~campaign ~phase snap');
      Alcotest.(check int) "local cells survive" 60 snap'.Fleet.local_cells;
      let r = List.hd snap'.Fleet.rows in
      Alcotest.(check int) "wire totals survive" 5000 r.Fleet.bytes_in;
      let table = Fleet.to_table ~campaign ~phase snap' in
      Alcotest.(check bool) "table renders the worker host" true
        (contains table "box"));
  (* a flipped byte must not checksum *)
  let damaged =
    String.mapi
      (fun i c -> if i = 12 then (if c = 'z' then 'y' else 'z') else c)
      line
  in
  match Fleet.snapshot_of_line damaged with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "damaged status line decoded"

(* `campaign status --json` prints this object: it must carry exactly
   the fields of the checksummed status line, minus the checksum *)
let test_fleet_snapshot_json () =
  let f = Fleet.create ~total:100 ~now:(at_ms 0) () in
  Fleet.on_join f ~worker:0 ~pid:42 ~host:"box" ~now:(at_ms 0);
  Fleet.note_local f 7;
  let snap = Fleet.snapshot f ~now:(at_ms 500) ~collected:10 ~in_flight:0 in
  match Fleet.snapshot_to_json ~campaign:"t" ~phase:"serve" snap with
  | Jsonl.Obj fields ->
      Alcotest.(check string) "same fields as the status line"
        (Fleet.snapshot_to_line ~campaign:"t" ~phase:"serve" snap)
        (Jsonl.encode_line fields);
      let j = Jsonl.Obj fields in
      Alcotest.(check (option string)) "campaign field" (Some "t")
        (Option.bind (Jsonl.member "campaign" j) Jsonl.get_str);
      Alcotest.(check (option string)) "phase field" (Some "serve")
        (Option.bind (Jsonl.member "phase" j) Jsonl.get_str)
  | _ -> Alcotest.fail "snapshot_to_json is not an object"

let test_report_fleet_panel () =
  let header =
    Fuzz_loop.journal_header ~budget:fuzz_budget ~seed:3
      ~config_ids:fuzz_configs ()
  in
  let html = Report_html.render ~header ~cells:[] ~events:sample_events () in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "fleet panel contains %S" needle)
        true (contains html needle))
    [ "Fleet"; "straggler"; "6.5" ]

let () =
  Alcotest.run "analytics"
    [
      ( "eventlog",
        [
          Alcotest.test_case "encode/decode roundtrip" `Quick
            test_encode_decode_roundtrip;
          Alcotest.test_case "rejects damage + wrong schema" `Quick
            test_decode_rejects_damage;
          Alcotest.test_case "tolerates the previous schema" `Quick
            test_decode_old_schema_version;
          Alcotest.test_case "determinism split" `Quick test_deterministic_split;
          Alcotest.test_case "writer + torn tail" `Quick
            test_writer_and_torn_tail;
        ] );
      ( "fuzz-events",
        [
          Alcotest.test_case "byte-identical across -j" `Slow
            test_events_j_invariant;
        ] );
      ( "lineage",
        [
          Alcotest.test_case "parents resolve, DAG acyclic" `Slow
            test_lineage_properties;
          Alcotest.test_case "identical across -j" `Slow
            test_lineage_j_invariant;
          Alcotest.test_case "rejects bad provenance" `Quick
            test_lineage_rejects_bad_provenance;
          Alcotest.test_case "discovery paths" `Slow test_discovery_paths;
        ] );
      ( "report",
        [
          Alcotest.test_case "self-contained html" `Slow test_report_html;
          Alcotest.test_case "fleet panel" `Quick test_report_fleet_panel;
        ] );
      ( "fleet",
        [
          Alcotest.test_case "coordinator-side EWMA + ETA" `Quick
            test_fleet_coordinator_ewma;
          Alcotest.test_case "idle worker's rate falls to 0" `Quick
            test_fleet_idle_rate;
          Alcotest.test_case "slow-rate straggler" `Quick
            test_fleet_slow_rate_straggler;
          Alcotest.test_case "stops beating mid-lease" `Quick
            test_fleet_stale_mid_lease;
          Alcotest.test_case "stage tally of shipped spans" `Quick
            test_fleet_stage_tally;
          Alcotest.test_case "status line roundtrip" `Quick
            test_fleet_status_line_roundtrip;
          Alcotest.test_case "status --json mirrors the line" `Quick
            test_fleet_snapshot_json;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "escalates on stall" `Quick
            test_watchdog_escalates_on_stall;
          Alcotest.test_case "abort fires once" `Quick
            test_watchdog_abort_fires_once;
          Alcotest.test_case "quiet while progressing" `Quick
            test_watchdog_quiet_while_progressing;
          Alcotest.test_case "pool probe without pool" `Quick
            test_pool_probe_without_pool;
        ] );
    ]
