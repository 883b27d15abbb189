(* The three batch workloads. Each runs whole passes over a fixed pool of
   units, in the order the seed chooses, until the run has measured for
   the requested seconds; every unit's output is checked against the
   reference recorded for it in refs.txt.

   - campaign: one Table 4 kernel per unit ([Campaign.run] of one mode at
     per_mode 1), all six modes, 10 above-threshold configs x 2 opt
     levels, journal on, -j 1.
   - fuzz: one [Fuzz_loop.run] per unit (feedback on, fixed budget and
     generation size, the same 10 configs), journal on, -j 1.
   - fabric: one table4 spec per unit (campaign's kernels) through
     [Coordinator.serve] with one `campaign worker -j 1` process over a
     unix socket, then the ordinary [Spec.run_local ~resume] merge. *)

open Common

let campaign_per_mode = 2
let campaign_seed0 j = 10_000 + (100 * j)

let campaign_units =
  List.concat_map
    (fun j -> List.map (fun m -> (m, j)) Gen_config.all_modes)
    (List.init campaign_per_mode Fun.id)

let mode_key m = String.map (fun c -> if c = ' ' then '_' else c) (Gen_config.mode_name m)
let campaign_key (m, j) = Printf.sprintf "%s/%d" (mode_key m) (campaign_seed0 j)

let fuzz_budget = 8
let fuzz_gen_size = 4
let fuzz_seeds = [ 1; 1001; 2001 ]
(* a table4 spec of n=1 at these seeds runs exactly campaign's kernels *)
let fabric_seed0s = List.init campaign_per_mode campaign_seed0

let bench_span name f = Span.with_ ~cat:"bench" name f

let interp_steps () = Metrics.value (Metrics.counter "interp.steps")

(* ---- one unit of each workload ---- *)

type unit_out = {
  key : string;
  digests : string list;
  steps : int;  (** interpreter steps of the unit (delta of interp.steps) *)
  kernel_steps : int list;  (** per kernel *)
  mode_results : Campaign.mode_result list;
  fuzz : Fuzz_loop.result option;
  table : string;
}

let campaign_unit ~dir b (mode, j) =
  let seed0 = campaign_seed0 j in
  let path = Filename.concat dir "campaign.jsonl" in
  let header = Campaign.journal_header ~per_mode:1 ~seed0 ~modes:[ mode ] () in
  let steps0 = interp_steps () in
  let t0 = now_ns () in
  let prev = ref None in
  let w = Journal.create ~path header in
  let res =
    bench_span "campaign.run" (fun () ->
        Campaign.run ~jobs:1 ~per_mode:1 ~seed0 ~modes:[ mode ]
          ~sink:(fun c ->
            Journal.write_cell w c;
            note_cell b ~unit:(campaign_key (mode, j)) ~unit_start:t0 ~prev c.Journal.outcomes)
          ())
  in
  Journal.commit w;
  let steps = interp_steps () - steps0 in
  {
    key = campaign_key (mode, j);
    digests = [ digest_file path ];
    steps;
    kernel_steps = [ steps ];
    mode_results = res;
    fuzz = None;
    table = "";
  }

let note_steps note =
  List.fold_left
    (fun acc part ->
      match String.split_on_char '=' part with
      | [ "s"; v ] -> Option.value ~default:acc (int_of_string_opt v)
      | _ -> acc)
    0
    (String.split_on_char ';' note)

let bugs_text buckets =
  String.concat "\n" (List.map (fun bk -> Jsonl.to_string (Triage.bucket_to_json bk)) buckets)

let fuzz_unit ~dir b seed =
  let path = Filename.concat dir "fuzz.jsonl" in
  let header =
    Fuzz_loop.journal_header ~budget:fuzz_budget ~seed ~gen_size:fuzz_gen_size ()
  in
  let steps0 = interp_steps () in
  let per_kernel = Hashtbl.create 16 in
  let t0 = now_ns () in
  let prev = ref None in
  let w = Journal.create ~path header in
  let r =
    bench_span "fuzz.run" (fun () ->
        Fuzz_loop.run ~jobs:1 ~budget:fuzz_budget ~seed ~gen_size:fuzz_gen_size
          ~sink:(fun c ->
            Journal.write_cell w c;
            let k = c.Journal.seed in
            Hashtbl.replace per_kernel k
              (note_steps c.Journal.note
              + Option.value ~default:0 (Hashtbl.find_opt per_kernel k));
            note_cell b ~unit:(string_of_int seed) ~unit_start:t0 ~prev c.Journal.outcomes)
          ())
  in
  Journal.commit w;
  {
    key = string_of_int seed;
    digests =
      [
        digest_file path;
        digest_string (Covmap.to_hex r.Fuzz_loop.covmap);
        digest_string (bugs_text r.Fuzz_loop.buckets);
      ];
    steps = interp_steps () - steps0;
    kernel_steps = Hashtbl.fold (fun _ s acc -> s :: acc) per_kernel [];
    mode_results = [];
    fuzz = Some r;
    table = "";
  }

exception First_cell

(* one set-up sample: a run started afresh and stopped once its first
   cell is journalled. It starts on a compacted heap, so that it does not
   depend on what the pass before it left on the heap, which changes
   with the seed's order of the units. *)
let first_cell_probe b ~unit ~path header run =
  Gc.compact ();
  let t0 = now_ns () in
  let w = Journal.create ~path header in
  try
    run ~sink:(fun c ->
        Journal.write_cell w c;
        raise First_cell)
  with First_cell ->
    b.setups <- (unit, secs_since t0) :: b.setups;
    Journal.commit w

(* extra set-up samples for the untraced run: each pass gives only one
   per unit, and the median of a few wanders with the host *)
let campaign_probes = 2
let fuzz_probes = 15
let fabric_probes = 4

let campaign_setup_probes ~dir b =
  List.iter
    (fun (mode, j) ->
      let seed0 = campaign_seed0 j in
      for _ = 1 to campaign_probes do
        first_cell_probe b ~unit:(campaign_key (mode, j))
          ~path:(Filename.concat dir "campaign-probe.jsonl")
          (Campaign.journal_header ~per_mode:1 ~seed0 ~modes:[ mode ] ())
          (fun ~sink -> ignore (Campaign.run ~jobs:1 ~per_mode:1 ~seed0 ~modes:[ mode ] ~sink ()))
      done)
    campaign_units

let fuzz_setup_probes ~dir b =
  List.iter
    (fun seed ->
      for _ = 1 to fuzz_probes do
        first_cell_probe b ~unit:(string_of_int seed)
          ~path:(Filename.concat dir "fuzz-probe.jsonl")
          (Fuzz_loop.journal_header ~budget:fuzz_budget ~seed ~gen_size:fuzz_gen_size ())
          (fun ~sink ->
            ignore (Fuzz_loop.run ~jobs:1 ~budget:fuzz_budget ~seed ~gen_size:fuzz_gen_size ~sink ()))
      done)
    fuzz_seeds

(* fabric figures of a pass, for the traced run *)
type fabric_obs = {
  mutable connect_us : float list;  (** worker spawn to its join, per unit *)
  mutable merge_us : float list;
  mutable frames : int;
  mutable wire_bytes : int;
  mutable worker_spans : Span.t list;  (** shipped back under telemetry *)
  mutable worker_rss_mb : float;
}

let fabric_obs =
  { connect_us = []; merge_us = []; frames = 0; wire_bytes = 0; worker_spans = []; worker_rss_mb = 0. }

let reset_fabric_obs () =
  fabric_obs.connect_us <- [];
  fabric_obs.merge_us <- [];
  fabric_obs.frames <- 0;
  fabric_obs.wire_bytes <- 0;
  fabric_obs.worker_spans <- [];
  fabric_obs.worker_rss_mb <- 0.

let fabric_spec seed0 =
  match Spec.make ~campaign:"table4" ~n:1 ~seed0 () with
  | Ok s -> s
  | Error e -> failwith e

let local_run ~path spec =
  let w = Journal.create ~path (Spec.header spec) in
  let summary = Spec.run_local ~jobs:1 ~sink:(Journal.write_cell w) spec in
  Journal.commit w;
  summary

let campaign_cli = "_build/default/bin/campaign_cli.exe"

(* one Coordinator.serve of [spec] with a `campaign worker -j 1` process,
   spawned once the coordinator's socket listens; the collected cells
   and the worker's spawn-to-join time in us *)
let serve_with_worker ~dir ?resume ?fleet ~on_cell spec =
  let sock = Filename.concat dir "coord.sock" in
  (try Sys.remove sock with Sys_error _ -> ());
  let addr =
    match Netaddr.of_string ("unix:" ^ sock) with Ok a -> a | Error e -> failwith e
  in
  let worker = ref None and spawned = ref 0L and joined = ref 0L in
  let spawn () =
    let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let pid =
      Unix.create_process campaign_cli
        [| campaign_cli; "worker"; "--connect"; "unix:" ^ sock; "-j"; "1" |]
        null null null
    in
    Unix.close null;
    spawned := now_ns ();
    worker := Some pid
  in
  let on_tick _ =
    match !worker with
    | None -> if Sys.file_exists sock then spawn ()
    | Some pid ->
        fabric_obs.worker_rss_mb <- max fabric_obs.worker_rss_mb (peak_rss_mb (string_of_int pid))
  in
  let on_event = function
    | Coordinator.Worker_joined _ -> joined := now_ns ()
    | _ -> ()
  in
  let cells =
    Fun.protect
      ~finally:(fun () ->
        match !worker with
        | Some pid -> ignore (Unix.waitpid [] pid)
        | None -> ())
      (fun () ->
        bench_span "coordinator.serve" (fun () ->
            Coordinator.serve ~addr ~spec ~workers:1 ?resume ?fleet ~telemetry:(Span.enabled ()) ~on_tick
              ~on_event ~on_cell ()))
  in
  match cells with
  | Ok c -> (c, us_of_ns (Int64.sub !joined !spawned))
  | Error e -> failwith ("fabric: " ^ e)

(* by seed0: the first cell a fabric unit received, with the unit's cells *)
let fabric_firsts : (int, Spec.t * Journal.cell * Journal.cell list) Hashtbl.t = Hashtbl.create 2

(* the coordinator runs here, the worker in its own process *)
let fabric_unit ~dir b seed0 =
  let spec = fabric_spec seed0 in
  let t0 = now_ns () in
  let prev = ref None and first = ref None in
  let fleet = Fleet.create ~total:(Spec.total_cells spec) ~now:t0 () in
  let cells, connect_us =
    serve_with_worker ~dir ~fleet spec ~on_cell:(fun c ->
        if !first = None then first := Some c;
        note_cell b ~unit:(string_of_int seed0) ~unit_start:t0 ~prev c.Journal.outcomes)
  in
  Option.iter (fun c -> Hashtbl.replace fabric_firsts seed0 (spec, c, cells)) !first;
  let snap = Fleet.snapshot fleet ~now:(now_ns ()) ~collected:(List.length cells) ~in_flight:0 in
  List.iter
    (fun (r : Fleet.row) ->
      fabric_obs.frames <- fabric_obs.frames + r.Fleet.frames_in + r.Fleet.frames_out;
      fabric_obs.wire_bytes <- fabric_obs.wire_bytes + r.Fleet.bytes_in + r.Fleet.bytes_out)
    snap.Fleet.rows;
  fabric_obs.connect_us <- connect_us :: fabric_obs.connect_us;
  fabric_obs.worker_spans <-
    List.concat_map snd (Fleet.span_groups fleet) @ fabric_obs.worker_spans;
  let path = Filename.concat dir "fabric.jsonl" in
  let w = Journal.create ~path (Spec.header spec) in
  let m0 = now_ns () in
  let summary =
    bench_span "spec.run_local" (fun () ->
        Spec.run_local ~jobs:1 ~resume:cells ~sink:(Journal.write_cell w) spec)
  in
  fabric_obs.merge_us <- us_of_ns (Int64.sub (now_ns ()) m0) :: fabric_obs.merge_us;
  Journal.commit w;
  let table = match summary with Spec.Table t -> t | Spec.Fuzz r -> Fuzz_loop.to_table r in
  {
    key = string_of_int seed0;
    digests = [ digest_file path; digest_string table ];
    steps = 0;
    kernel_steps = [];
    mode_results = [];
    fuzz = None;
    table;
  }

(* fabric set-up probes: the unit's spec again, resumed from every cell
   but the first one the unit received, so a fresh worker joins, leases
   that cell, regenerates its kernel and sends it back *)
let fabric_setup_probes ~dir b =
  List.iter
    (fun seed0 ->
      match Hashtbl.find_opt fabric_firsts seed0 with
      | None -> ()
      | Some (spec, (first : Journal.cell), cells) ->
          let resume = List.filter (fun c -> Journal.key c <> Journal.key first) cells in
          for _ = 1 to fabric_probes do
            let t0 = now_ns () and got = ref false in
            ignore
              (serve_with_worker ~dir ~resume spec ~on_cell:(fun _ ->
                   if not !got then begin
                     got := true;
                     b.setups <- (string_of_int seed0, secs_since t0) :: b.setups
                   end))
          done)
    fabric_seed0s

(* ---- passes ---- *)

type workload = {
  name : string;
  keys : string list;  (** the pool, in fixed order *)
  run_unit : dir:string -> batch -> int -> unit_out;  (** by pool index *)
  setup_probes : dir:string -> batch -> unit;  (** more set-up samples, untraced runs only *)
}

let campaign =
  let units = Array.of_list campaign_units in
  {
    name = "campaign";
    keys = List.map campaign_key campaign_units;
    run_unit = (fun ~dir b i -> campaign_unit ~dir b units.(i));
    setup_probes = campaign_setup_probes;
  }

let fuzz =
  let seeds = Array.of_list fuzz_seeds in
  {
    name = "fuzz";
    keys = List.map string_of_int fuzz_seeds;
    run_unit = (fun ~dir b i -> fuzz_unit ~dir b seeds.(i));
    setup_probes = fuzz_setup_probes;
  }

let fabric =
  let seeds = Array.of_list fabric_seed0s in
  {
    name = "fabric";
    keys = List.map string_of_int fabric_seed0s;
    run_unit = (fun ~dir b i -> fabric_unit ~dir b seeds.(i));
    setup_probes = fabric_setup_probes;
  }

(* one pass: every pool unit once, in the seed's order, each checked *)
let pass wl ~dir ~seed b =
  List.map
    (fun i ->
      let u = wl.run_unit ~dir b i in
      let n = List.length u.digests in
      let ok =
        match reference wl.name u.key with
        | Some fields -> List.filteri (fun k _ -> k < n) fields = u.digests
        | None -> false
      in
      b.checks <- (wl.name ^ ":" ^ u.key, ok) :: b.checks;
      u)
    (permutation ~seed (List.length wl.keys))

(* ---- reference recording ---- *)

let record wl ~dir =
  List.iteri
    (fun i _ ->
      let b = batch () in
      let t0 = now_ns () in
      let key, digests, steps =
        if wl.name = "fabric" then begin
          (* the reference of a fabric unit is the local run of its spec *)
          let seed0 = List.nth fabric_seed0s i in
          let path = Filename.concat dir "fabric-local.jsonl" in
          let table =
            match local_run ~path (fabric_spec seed0) with
            | Spec.Table t -> t
            | Spec.Fuzz r -> Fuzz_loop.to_table r
          in
          (string_of_int seed0, [ digest_file path; digest_string table ], 0)
        end
        else
          let u = wl.run_unit ~dir b i in
          (u.key, u.digests, u.steps)
      in
      Printf.printf "%s %s %s # steps=%d cells=%d s=%.2f\n%!" wl.name key
        (String.concat " " digests) steps b.cells (secs_since t0))
    wl.keys
