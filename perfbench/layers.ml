(* Per-layer metrics of the traced run. Every traced run reports every
   name below, so the traced result always has the same keys; a layer a
   workload bypasses reads 0. *)

open Common

let names =
  [
    ("clsmith.generate_us", "us"); ("clsmith.discard_ratio", "ratio");
    ("minicl.typecheck_us", "us");
    ("vendors.prefilter_us", "us"); ("vendors.prefilter_reject_ratio", "ratio");
    ("vendors.shortcut_share", "ratio");
    ("opt.pass_us", "us");
    ("ocl_vm.exec_us", "us"); ("ocl_vm.steps_per_us", "1/us");
    ("ocl_vm.cell_us.p50", "us"); ("ocl_vm.cell_us.p99", "us");
    ("ocl_vm.steps", "count"); ("ocl_vm.top_kernel_share", "ratio");
    ("harness.vote_us", "us");
    ("store.append_us", "us"); ("store.appends", "count");
    ("fuzz.plan_us", "us"); ("fuzz.mutate_us", "us"); ("fuzz.mutate_ok_ratio", "ratio");
    ("fuzz.gate_us", "us"); ("fuzz.gate_pass_ratio", "ratio");
    ("fuzz.fold_us", "us"); ("fuzz.mutant_share", "ratio");
    ("serve.replay_us", "us"); ("serve.parse_us", "us");
  ]
  @ List.concat_map
      (fun r -> [ ("serve.handle_us." ^ r ^ ".p50", "us"); ("serve.handle_us." ^ r ^ ".p99", "us") ])
      Serve_wl.routes
  @ [
      ("serve.append_us", "us"); ("serve.loop_us", "us"); ("serve.late_us.max", "us");
      ("triage.bucket_us", "us"); ("analytics.render_us", "us");
      ("dist.leases", "count"); ("dist.lease_ms.p50", "ms"); ("dist.frames", "count");
      ("dist.wire_bytes", "bytes"); ("dist.worker_exec_us", "us"); ("dist.worker_redo_us", "us");
      ("dist.merge_us", "us"); ("net.connect_us", "us");
      ("bench.wall_s.traced", "s"); ("bench.wall_s.untraced", "s"); ("bench.trace_overhead", "ratio");
      ("bench.cells", "count");
    ]

(* every name, in order, taking the value from [got] or 0 *)
let complete got =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (mt : metric) -> mt.name = name) got with
      | Some mt -> mt
      | None -> m name unit 0.)
    names

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b
let tail_or_max (s : Stats.summary) durs =
  match s.Stats.tail with Some (_, v) -> v | None -> List.fold_left max 0. durs

(* "Table 4 [MODE] (N tests; D1 discarded: counter sharing, D2: prefilter on 1+)" *)
let table_discards table =
  List.fold_left
    (fun (used, sharing, pre) line ->
      match String.index_opt line '(' with
      | Some i when String.starts_with ~prefix:"Table 4" line -> (
          let rest = String.sub line i (String.length line - i) in
          try
            Scanf.sscanf rest "(%d tests; %d discarded: counter sharing, %d: prefilter"
              (fun u s p -> (used + u, sharing + s, pre + p))
          with Scanf.Scan_failure _ | End_of_file | Failure _ -> (used, sharing, pre))
      | _ -> (used, sharing, pre))
    (0, 0, 0)
    (String.split_on_char '\n' table)

let zero_step_cells () =
  match List.assoc_opt "interp.steps_per_cell" (Metrics.histograms ()) with
  | Some buckets -> List.fold_left (fun acc (floor, n) -> if floor <= 1 then acc + n else acc) 0 buckets
  | None -> 0

(* the mutation engine over the run's admitted seed-pool entries *)
let sample_mutator (results : Fuzz_loop.result list) =
  let mutated = ref 0 and tried = ref 0 and gated = ref 0 and passed = ref 0 in
  List.iteri
    (fun i (r : Fuzz_loop.result) ->
      let entries = Seedpool.entries r.Fuzz_loop.pool in
      let rng = Rng.make (7919 + i) in
      List.iter
        (fun (e : Seedpool.entry) ->
          incr tried;
          let donor () = Seedpool.select r.Fuzz_loop.pool rng |> Option.map (fun d -> d.Seedpool.tc) in
          let gate tc =
            incr gated;
            if Span.with_ ~cat:"bench" "mutator.well_formed" (fun () -> Mutator.well_formed tc) then incr passed
          in
          gate e.Seedpool.tc;
          match Span.with_ ~cat:"bench" "mutator.mutate" (fun () -> Mutator.mutate ~rng ~donor e.Seedpool.tc) with
          | Some (_, tc') ->
              incr mutated;
              gate tc'
          | None -> ())
        entries)
    results;
  (ratio !mutated !tried, ratio !passed !gated, !tried, !gated)

let batch ~(wl : Batch.workload) ~spans ~(units : Batch.unit_out list) ~(b : batch)
    ~mutator:(mutate_ok, gate_ok, mutate_n, gate_n) =
  (* the fabric worker is its own process: its spans come back over the
     wire with telemetry armed, and count with the coordinator's *)
  let wselfs = Spanstat.self_times Batch.fabric_obs.Batch.worker_spans in
  let selfs = Spanstat.self_times spans @ wselfs in
  let total pick = (Spanstat.layer ~pick selfs).Spanstat.self_us in
  let count pick = (Spanstat.layer ~pick selfs).Spanstat.count in
  let durs pick = (Spanstat.layer ~pick selfs).Spanstat.durs_us in
  let open Spanstat in
  let name = wl.Batch.name in
  let is_exec s = cat "exec" s in
  let is_cell s = is_exec s && (name = "fuzz" || s.Span.flow >= 0) in
  let is_prefilter s = is_exec s && name <> "fuzz" && s.Span.flow < 0 in
  let exec_us = total is_exec in
  (* a worker's counters fold into the registry as "fleet.<name>" *)
  let counter n = Metrics.value (Metrics.counter n) + Metrics.value (Metrics.counter ("fleet." ^ n)) in
  let steps = counter "interp.steps" in
  let cells = counter "cells.completed" in
  let cell_durs = durs is_cell in
  let cell_s = Stats.summarize cell_durs in
  let kernel_steps = List.concat_map (fun u -> u.Batch.kernel_steps) units in
  let top = List.fold_left max 0 kernel_steps and all = List.fold_left ( + ) 0 kernel_steps in
  let used, sharing, pre =
    if name = "campaign" then
      List.fold_left
        (fun (u, s, p) (r : Campaign.mode_result) ->
          (u + r.Campaign.tests_used, s + r.Campaign.discarded_sharing, p + r.Campaign.discarded_prefilter))
        (0, 0, 0)
        (List.concat_map (fun u -> u.Batch.mode_results) units)
    else if name = "fabric" then
      List.fold_left
        (fun (u, s, p) x ->
          let u', s', p' = table_discards x.Batch.table in
          (u + u', s + s', p + p'))
        (0, 0, 0) units
    else (0, 0, 0)
  in
  let fuzz_results = List.filter_map (fun u -> u.Batch.fuzz) units in
  let gens = List.concat_map (fun r -> r.Fuzz_loop.generations) fuzz_results in
  let kernels = List.fold_left (fun a g -> a + g.Fuzz_loop.kernels) 0 gens in
  let mutants = List.fold_left (fun a g -> a + g.Fuzz_loop.mutants) 0 gens in
  let wtotal pick = (Spanstat.layer ~pick wselfs).Spanstat.self_us in
  let leases = durs (cat "lease") in
  [
    m "clsmith.generate_us" "us" (total (named "generate"));
    m "clsmith.discard_ratio" "ratio" (ratio (sharing + pre) (used + sharing + pre));
    m "minicl.typecheck_us" "us" (total (cat "check"));
    m "vendors.prefilter_us" "us" (total is_prefilter);
    m "vendors.prefilter_reject_ratio" "ratio" (ratio pre (used + pre));
    m "vendors.shortcut_share" "ratio" (if name = "fabric" then 0. else ratio (zero_step_cells ()) cells);
    m "opt.pass_us" "us" (total (cat "opt"));
    m "ocl_vm.exec_us" "us" exec_us;
    m "ocl_vm.steps_per_us" "1/us" (if exec_us > 0. then float_of_int steps /. exec_us else 0.);
    m "ocl_vm.cell_us.p50" "us" cell_s.Stats.p50;
    m "ocl_vm.cell_us.p99" "us" (tail_or_max cell_s cell_durs);
    m "ocl_vm.steps" "count" (float_of_int steps);
    m "ocl_vm.top_kernel_share" "ratio" (ratio top all);
    m "harness.vote_us" "us" (total (cat "vote"));
    m "store.append_us" "us" (total (cat "persist"));
    m "store.appends" "count" (float_of_int (count (cat "persist")));
    m "fuzz.plan_us" "us" (total (named "fuzz-plan"));
    m "fuzz.mutate_us" "us" (total (named "mutator.mutate"));
    m "fuzz.mutate_ok_ratio" "ratio" mutate_ok;
    m "fuzz.gate_us" "us" (total (named "mutator.well_formed"));
    m "fuzz.gate_pass_ratio" "ratio" gate_ok;
    m "fuzz.fold_us" "us" (total (fun s -> cat "bench" s && named "fuzz.run" s));
    m "fuzz.mutant_share" "ratio" (ratio mutants kernels);
    m "dist.leases" "count" (float_of_int (List.length leases));
    m "dist.lease_ms.p50" "ms" (if leases = [] then 0. else Stats.median leases /. 1000.);
    m "dist.frames" "count" (float_of_int Batch.fabric_obs.Batch.frames);
    m "dist.wire_bytes" "bytes" (float_of_int Batch.fabric_obs.Batch.wire_bytes);
    m "dist.worker_exec_us" "us" (wtotal (fun s -> is_exec s && s.Span.flow >= 0));
    m "dist.worker_redo_us" "us" (wtotal (fun s -> named "generate" s || (is_exec s && s.Span.flow < 0)));
    m "dist.merge_us" "us" (List.fold_left ( +. ) 0. Batch.fabric_obs.Batch.merge_us);
    m "net.connect_us" "us"
      (if Batch.fabric_obs.Batch.connect_us = [] then 0. else Stats.median Batch.fabric_obs.Batch.connect_us);
    m "bench.cells" "count" (float_of_int b.cells);
  ],
  [
    Stats.describe ~name:"ocl_vm.cell_us (exec span per cell)" ~unit:"us" cell_s;
    Printf.sprintf "fuzz mutator sample: %d Mutator.mutate calls over admitted seeds, %d Mutator.well_formed calls"
      mutate_n gate_n;
  ]
