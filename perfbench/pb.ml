(* Benchmark entry point.

     pb.exe --workload W --seed N --seconds S --trace 0|1
     pb.exe record campaign|fuzz|fabric   (prints refs.txt lines)
     pb.exe record serve                  (prints serve_cells.jsonl)

   The last line of a run is one JSON object: correct, attempted,
   failed and metrics (end-to-end with --trace 0, per-layer with
   --trace 1). Every line before it is a human-readable report. *)

open Common

let work_root = "perfbench-work"
let out_root = "perfbench-out"

let json_of_result (r : result) =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun mt -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" mt.name (num mt.value) mt.unit)
          r.metrics))

(* the process that executes the cells *)
let worker_of (wl : Batch.workload) = if wl.Batch.name = "fabric" then "worker" else "benchmark"

let rss_of (wl : Batch.workload) =
  if wl.Batch.name = "fabric" then Batch.fabric_obs.Batch.worker_rss_mb else peak_rss_mb "self"

(* untraced batch run: whole passes until [seconds] have been measured *)
let run_batch (wl : Batch.workload) ~dir ~seed ~seconds =
  let b = batch () in
  let t0 = now_ns () and cpu0 = cpu_s () in
  let passes = ref 0 in
  while !passes = 0 || secs_since t0 < seconds do
    ignore (Batch.pass wl ~dir ~seed b);
    incr passes
  done;
  let cpu = cpu_s () -. cpu0 and passes_s = secs_since t0 in
  let t1 = now_ns () in
  wl.Batch.setup_probes ~dir b;
  let r = batch_result ~what:(worker_of wl) b ~rss:(rss_of wl) ~cpu in
  let head =
    Printf.sprintf "workload %s: %d pass(es) over %d units in %.1f s, then set-up probes in %.1f s" wl.Batch.name
      !passes (List.length wl.Batch.keys) passes_s (secs_since t1)
  in
  { r with lines = head :: r.lines }

(* ---- the traced run ---- *)

let layers_file wl = Filename.concat out_root (wl ^ ".layers.txt")

let save_layers wl (ms : metric list) =
  let oc = open_out (layers_file wl) in
  List.iter (fun mt -> Printf.fprintf oc "%s %.17g\n" mt.name mt.value) ms;
  close_out oc

let load_layers wl =
  match open_in (layers_file wl) with
  | exception Sys_error _ -> None
  | ic ->
      let t = Hashtbl.create 64 in
      (try
         while true do
           Scanf.sscanf (input_line ic) "%s %f" (fun k v -> Hashtbl.replace t k v)
         done
       with End_of_file | Scanf.Scan_failure _ -> ());
      close_in ic;
      Some (fun k -> Option.value ~default:0. (Hashtbl.find_opt t k))

(* ROADMAP item 1's gap report, in the named metrics: why a fuzz cell
   and a fabric cell cost more than a campaign cell *)
let gap_report wl (ms : metric list) =
  let get k = match List.find_opt (fun mt -> mt.name = k) ms with Some mt -> mt.value | None -> 0. in
  let per_cell g = if g "bench.cells" > 0. then g "bench.wall_s.traced" *. 1e6 /. g "bench.cells" else 0. in
  let share g k = if g "bench.wall_s.traced" > 0. then 100. *. g k /. (g "bench.wall_s.traced" *. 1e6) else 0. in
  let steps_per_cell g = if g "bench.cells" > 0. then g "ocl_vm.steps" /. g "bench.cells" else 0. in
  match (wl, load_layers "campaign") with
  | ("fuzz" | "fabric"), None ->
      [ "gap report: no traced campaign run in " ^ out_root ^ " yet (run --workload campaign --trace 1 first)" ]
  | "fuzz", Some c ->
      [
        Printf.sprintf "gap fuzz vs campaign: %.0f vs %.0f us per cell (x%.2f)" (per_cell get) (per_cell c)
          (per_cell get /. per_cell c);
        Printf.sprintf "  steps per cell: %.0f vs %.0f (x%.2f)" (steps_per_cell get) (steps_per_cell c)
          (steps_per_cell get /. steps_per_cell c);
        Printf.sprintf "  ocl_vm.top_kernel_share: %.3f vs %.3f" (get "ocl_vm.top_kernel_share") (c "ocl_vm.top_kernel_share");
        Printf.sprintf "  ocl_vm.exec_us: %.1f%% vs %.1f%% of wall" (share get "ocl_vm.exec_us") (share c "ocl_vm.exec_us");
        Printf.sprintf "  fuzz.plan_us: %.0f us (%.2f%% of wall); fuzz.gate_us (sampled): %.0f us; fuzz.mutate_us (sampled): %.0f us"
          (get "fuzz.plan_us") (share get "fuzz.plan_us") (get "fuzz.gate_us") (get "fuzz.mutate_us");
      ]
  | "fabric", Some c ->
      let cps g = if g "bench.wall_s.traced" > 0. then g "bench.cells" /. g "bench.wall_s.traced" else 0. in
      [
        Printf.sprintf "gap fabric vs campaign: %.1f vs %.1f cells/s (x%.2f); same kernels" (cps get) (cps c)
          (cps get /. cps c);
        Printf.sprintf "  dist.worker_exec_us %.1f%%, dist.worker_redo_us %.1f%%, dist.merge_us %.1f%% of wall"
          (share get "dist.worker_exec_us") (share get "dist.worker_redo_us") (share get "dist.merge_us");
        Printf.sprintf "  wire: %.0f frames, %.0f bytes; %.0f leases, lease p50 %.1f ms; net.connect_us %.0f"
          (get "dist.frames") (get "dist.wire_bytes") (get "dist.leases") (get "dist.lease_ms.p50") (get "net.connect_us");
      ]
  | _ -> []

let overhead ~traced_s ~untraced_s =
  [
    m "bench.wall_s.traced" "s" traced_s;
    m "bench.wall_s.untraced" "s" untraced_s;
    m "bench.trace_overhead" "ratio" (if untraced_s > 0. then (traced_s /. untraced_s) -. 1. else 0.);
  ]

(* a warm-up pass, then an untraced pass, the same pass with spans on
   and a second untraced pass. The warm-up takes the first pass's cold
   start off the untraced time, and comparing the traced pass with the
   mean of the untraced passes on either side of it cancels a host that
   speeds up or slows down over the run. Every pass's checked outputs
   must agree with each other and with the references. *)
let run_batch_traced (wl : Batch.workload) ~dir ~seed =
  (* every pass starts on an empty metrics registry, so that none pays
     for what the passes before it recorded *)
  let timed_pass b =
    Metrics.reset ();
    let t0 = now_ns () and cpu0 = cpu_s () in
    let u = Batch.pass wl ~dir ~seed b in
    (u, secs_since t0, cpu_s () -. cpu0)
  in
  let bw = batch () and b0 = batch () and b2 = batch () in
  let uw, _, _ = timed_pass bw in
  let u0, untraced0_s, untraced0_cpu = timed_pass b0 in
  Batch.reset_fabric_obs ();
  Span.reset ();
  Span.enable ();
  let b1 = batch () in
  let u1, traced_s, traced_cpu = timed_pass b1 in
  let mutator = Layers.sample_mutator (List.filter_map (fun u -> u.Batch.fuzz) u1) in
  Span.disable ();
  let spans = Span.drain () in
  (* the traced pass's figures, before the last pass adds to them *)
  let rss = rss_of wl in
  let ms, more = Layers.batch ~wl ~spans ~units:u1 ~b:b1 ~mutator in
  let u2, untraced2_s, untraced2_cpu = timed_pass b2 in
  let same us = List.sort compare (List.map (fun u -> (u.Batch.key, u.Batch.digests)) us) in
  let agree = List.for_all (fun us -> same us = same u1) [ uw; u0; u2 ] in
  b1.checks <- (("traced = untraced", agree) :: b1.checks) @ b0.checks @ bw.checks @ b2.checks;
  let r = batch_result ~what:(worker_of wl) b1 ~rss ~cpu:traced_cpu in
  let untraced_s = (untraced0_s +. untraced2_s) /. 2. and untraced_cpu = (untraced0_cpu +. untraced2_cpu) /. 2. in
  let cpu_line =
    Printf.sprintf
      "tracing overhead: wall %.3f s traced vs %.3f s untraced (mean of %.3f and %.3f), CPU %.3f s vs %.3f s (%+.1f%%)"
      traced_s untraced_s untraced0_s untraced2_s traced_cpu untraced_cpu
      (if untraced_cpu > 0. then 100. *. ((traced_cpu /. untraced_cpu) -. 1.) else 0.)
  in
  (ms @ overhead ~traced_s ~untraced_s, more @ [ cpu_line ], spans, r)

let workload_of = function
  | "campaign" -> Some Batch.campaign
  | "fuzz" -> Some Batch.fuzz
  | "fabric" -> Some Batch.fabric
  | _ -> None

let usage () =
  prerr_endline
    "usage: pb.exe --workload campaign|fuzz|serve|fabric --seed N --seconds S --trace 0|1\n\
    \       pb.exe record campaign|fuzz|fabric|serve";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  match args with
  | "record" :: names ->
      let dir = Filename.concat work_root "record" in
      mkdir_p dir;
      List.iter
        (fun n ->
          match workload_of n with
          | Some wl -> Batch.record wl ~dir
          | None when n = "serve" -> Serve_wl.record ()
          | None -> usage ())
        names
  | _ ->
      let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
      let rec parse = function
        | "--workload" :: v :: rest -> workload := v; parse rest
        | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
        | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
        | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
        | [] -> ()
        | _ -> usage ()
      in
      (try parse args with Failure _ -> usage ());
      if not (Sys.file_exists refs_path) then begin
        prerr_endline ("pb: " ^ refs_path ^ " not found (run from the repository root)");
        exit 2
      end;
      let dir = Filename.concat work_root !workload in
      mkdir_p dir;
      mkdir_p out_root;
      let traced ms more spans (r : result) =
        let ms = Layers.complete ms in
        save_layers !workload ms;
        let trace_path = Filename.concat out_root (!workload ^ ".trace.json") in
        (* the fabric worker's spans come from another process: one group each *)
        (match Batch.fabric_obs.Batch.worker_spans with
        | [] -> Trace.write ~path:trace_path spans
        | ws -> Trace.write_groups ~path:trace_path [ ("benchmark", spans); ("worker", ws) ]);
        let lines =
          r.lines @ more
          @ List.map (fun mt -> Printf.sprintf "  %s = %.6g %s" mt.name mt.value mt.unit) ms
          @ gap_report !workload ms
          @ [
              Printf.sprintf "trace: %d spans written to %s"
                (List.length spans + List.length Batch.fabric_obs.Batch.worker_spans)
                trace_path;
            ]
        in
        { r with metrics = ms; lines }
      in
      let r =
        match (!workload, workload_of !workload, !trace) with
        | _, Some wl, 0 -> run_batch wl ~dir ~seed:!seed ~seconds:!seconds
        | _, Some wl, 1 ->
            let ms, more, spans, r = run_batch_traced wl ~dir ~seed:!seed in
            traced ms more spans r
        | "serve", None, (0 | 1) -> (
            match Serve_wl.run ~dir ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) with
            | r, _, _ when !trace = 0 -> r
            | r, spans, (traced_s, untraced_s) ->
                traced (r.metrics @ overhead ~traced_s ~untraced_s) [] spans r)
        | _ -> usage ()
      in
      List.iter print_endline r.lines;
      print_endline (json_of_result r)
