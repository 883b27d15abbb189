(* Benchmark and experiment-regeneration harness.

   With no arguments, regenerates every table and figure of the paper's
   evaluation (at the scaled default sizes documented in EXPERIMENTS.md)
   and then runs the Bechamel microbenchmarks. Individual experiments:

     dune exec bench/main.exe -- table1|table2|table3|table4|table5
     dune exec bench/main.exe -- figure1|figure2|races|micro|ablate|scaling|dist|fuzz
     dune exec bench/main.exe -- compare   # regression-gate BENCH_history.jsonl

   Global flags (before or between experiment names):

     -j N   execution-pool size for the campaign experiments (default:
            recommended domain count; output is identical across -j)
     -n N   override the default sample size of table1/3/4/5 (tiny CI
            smoke runs use -n 2)

   Scaled sizes are chosen so the whole run completes in minutes on one
   core; the paper's full sizes are available through bin/campaign_cli.exe
   with explicit -n. *)

let jobs = ref (Pool.recommended_jobs ())
let scale = ref None (* -n override of per-experiment sample sizes *)
let stamp = ref "" (* -stamp: caller-provided timestamp for the records *)

(* every bench record ends with the same host block, so records from
   different targets and revisions stay comparable *)
let record ~target ~bench ~ident ~rates ~floors fields =
  let host =
    match Hostinfo.to_json () with
    | Jsonl.Obj facts -> Jsonl.Obj (facts @ [ ("stamp", Jsonl.Str !stamp) ])
    | other -> other
  in
  History.write ~target
    (History.make ~bench ~ident ~rates ~floors (fields @ [ ("host", host) ]))

(* records hold integers only: seconds as microseconds, rates and
   ratios in milli-units *)
let us s = Float.to_int (Float.round (s *. 1e6))
let milli x = Float.to_int (Float.round (x *. 1000.))

let size default = match !scale with Some n -> n | None -> default

let section title =
  Printf.printf "\n%s\n%s\n%!" title (String.make (String.length title) '#')

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  Printf.printf "[%s completed in %.1fs]\n%!" name (Unix.gettimeofday () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)
(* ------------------------------------------------------------------ *)

let table1 () =
  section "Table 1 — configurations and the reliability threshold (sec 7.1)";
  timed "table1" (fun () ->
      let t = Classify.run ~jobs:!jobs ~per_mode:(size 8) () in
      print_endline (Classify.to_table t);
      let a, n = Classify.agreement_with_paper t in
      Printf.printf "classification agreement with the paper: %d/%d\n" a n)

let table2 () =
  section "Table 2 — OpenCL benchmarks studied using EMI testing (sec 7.2)";
  print_endline (Suite.table2 ())

let table3 () =
  section "Table 3 — EMI testing over Parboil/Rodinia (sec 7.2)";
  timed "table3" (fun () ->
      print_endline
        (Bench_emi.to_table (Bench_emi.run ~jobs:!jobs ~variants:(size 10) ())))

let table4 () =
  section "Table 4 — intensive CLsmith differential testing (sec 7.3)";
  timed "table4" (fun () ->
      print_endline
        (Campaign.to_table (Campaign.run ~jobs:!jobs ~per_mode:(size 40) ())))

let table5 () =
  section "Table 5 — CLsmith+EMI metamorphic testing (sec 7.4)";
  timed "table5" (fun () ->
      print_endline
        (Emi_campaign.to_table
           (Emi_campaign.run ~jobs:!jobs ~bases:(size 16) ~variants:10 ())))

let figure n exhibits =
  section (Printf.sprintf "Figure %d — bug exhibits (sec 6)" n);
  print_endline (Exhibit.summary_table exhibits)

let races () =
  section "Data races in spmv and myocyte (sec 2.4)";
  List.iter
    (fun (b : Suite.benchmark) ->
      let config = { Interp.default_config with Interp.detect_races = true } in
      let r = Interp.run ~config (b.Suite.testcase ()) in
      Printf.printf "%-11s %s\n" b.Suite.name
        (match r.Interp.races with
        | [] -> "race-free"
        | race :: _ -> "RACY: " ^ Race.race_to_string race))
    Suite.all

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let ablate () =
  section "Ablation 1 — EMI free-variable substitutions on vs off (sec 5)";
  let t3 = Bench_emi.run ~variants:8 () in
  let count p =
    List.fold_left
      (fun acc (_, row) ->
        acc + List.length (List.filter (fun (_, c) -> p c) row))
      0 t3.Bench_emi.results
  in
  let w_subst = count (function Bench_emi.Wrong "e" -> true | _ -> false) in
  let w_nosubst = count (function Bench_emi.Wrong "d" -> true | _ -> false) in
  let w_both = count (function Bench_emi.Wrong "?" -> true | _ -> false) in
  Printf.printf
    "wrong-code cells needing substitutions ON: %d; OFF: %d; either: %d\n"
    w_subst w_nosubst w_both;
  Printf.printf
    "(the paper found 15 / 6 / 7 — substitutions are worth having, but both \
     settings find unique defects)\n";

  section "Ablation 2 — the lift pruning strategy (sec 5, 7.4)";
  let gcfg = Gen_config.scaled Gen_config.All in
  let induced ~params_filter =
    let combos = List.filter params_filter Prune.paper_combinations in
    let hits = ref 0 and bases = ref 0 in
    let seed = ref 70_000 in
    while !bases < 10 do
      incr seed;
      let base, info = Generate.generate ~emi:true ~cfg:gcfg ~seed:!seed () in
      if not info.Generate.counter_sharing then begin
        incr bases;
        let c = Config.find 1 in
        let outs =
          List.filter_map
            (fun (i, params) ->
              match
                Driver.run c ~opt:true
                  (Variant.derive ~base ~params ~seed:(9000 + i))
              with
              | Outcome.Success s -> Some s
              | _ -> None)
            (List.mapi (fun i p -> (i, p)) combos)
        in
        if List.length (List.sort_uniq String.compare outs) > 1 then incr hits
      end
    done;
    !hits
  in
  let with_lift = induced ~params_filter:(fun p -> p.Prune.plift > 0.0) in
  let without_lift = induced ~params_filter:(fun p -> p.Prune.plift = 0.0) in
  Printf.printf
    "bases (of 10) where variants disagree on config 1+: lift-only combos %d \
     vs no-lift combos %d\n"
    with_lift without_lift;
  Printf.printf
    "(the paper found lift \"slightly less effective overall\" than leaf and \
     compound)\n";

  section "Ablation 3 — randomised grid and group dimensions (sec 4.1)";
  let n = 300 and nx1 = ref 0 in
  for seed = 1 to n do
    let tc, _ =
      Generate.generate ~cfg:(Gen_config.scaled Gen_config.Basic) ~seed ()
    in
    let x, _, _ = tc.Ast.global_size in
    if x = 1 then incr nx1
  done;
  Printf.printf "launches with Nx = 1: %d of %d\n" !nx1 n;
  let fig1b = List.nth Exhibit.figure1 1 in
  let altered =
    { fig1b.Exhibit.testcase with Ast.global_size = (2, 1, 1); local_size = (2, 1, 1) }
  in
  Printf.printf
    "Fig 1(b) on config 10- with Nx=1: %s\nFig 1(b) on config 10- with Nx=2: %s\n"
    (Outcome.to_string
       (Driver.run ~noise:false (Config.find 10) ~opt:false fig1b.Exhibit.testcase))
    (Outcome.to_string (Driver.run ~noise:false (Config.find 10) ~opt:false altered));
  Printf.printf
    "(without dimension randomisation the Fig 1(b) bug is never seen — \
     \"this shows the value of randomizing group dimensions\")\n";

  section "Ablation 4 — the dead-code liveness filter for EMI bases (sec 7.4)";
  let discrimination base =
    let c = Config.find 1 in
    let outs =
      List.filter_map
        (fun v ->
          match Driver.run c ~opt:true v with
          | Outcome.Success s -> Some s
          | _ -> None)
        (Variant.variants ~base ~count:8)
    in
    List.length (List.sort_uniq String.compare outs)
  in
  let kept = ref [] and discarded = ref [] in
  let seed = ref 80_000 in
  while List.length !kept < 8 || List.length !discarded < 8 do
    incr seed;
    let base, info = Generate.generate ~emi:true ~cfg:gcfg ~seed:!seed () in
    if not info.Generate.counter_sharing then begin
      let c1 = Config.find 1 in
      let live =
        not
          (Outcome.equal
             (Driver.run c1 ~opt:true base)
             (Driver.run c1 ~opt:true (Variant.invert_dead base)))
      in
      if live && List.length !kept < 8 then kept := base :: !kept
      else if (not live) && List.length !discarded < 8 then
        discarded := base :: !discarded
    end
  done;
  let avg bs =
    float (List.fold_left (fun a b -> a + discrimination b) 0 bs)
    /. float (List.length bs)
  in
  Printf.printf
    "mean distinct-variant-results: kept bases %.2f vs liveness-filtered-out \
     bases %.2f (8 each)\n"
    (avg !kept) (avg !discarded)

(* ------------------------------------------------------------------ *)
(* Parallel scaling: -j 1 vs -j N on a micro campaign                  *)
(* ------------------------------------------------------------------ *)

let scaling () =
  section "Parallel campaign scaling — -j 1 vs -j N on a micro Table 4";
  let per_mode = size 12 in
  let modes = [ Gen_config.Basic; Gen_config.Barrier ] in
  (* both runs journal to a scratch file and collect spans, so the record
     carries a per-stage breakdown (including persistence) and the two
     timings stay comparable *)
  let run_at jobs =
    Span.reset ();
    Span.enable ();
    let path = Filename.temp_file "bench_scaling" ".jsonl" in
    let header = Campaign.journal_header ~per_mode ~modes () in
    let w = Journal.create ~path header in
    let t0 = Unix.gettimeofday () in
    let table =
      Campaign.to_table
        (Campaign.run ~jobs ~per_mode ~modes ~sink:(Journal.write_cell w) ())
    in
    let dt = Unix.gettimeofday () -. t0 in
    Journal.commit w;
    Sys.remove path;
    Span.disable ();
    let stages =
      Jsonl.Obj
        (List.map
           (fun (cat, us) -> (cat, Jsonl.Int us))
           (Span.stage_us (Span.drain ())))
    in
    (table, dt, stages)
  in
  let n_jobs = max 1 !jobs in
  let table_seq, t_seq, stages_seq = run_at 1 in
  let table_par, t_par, stages_par = run_at n_jobs in
  let identical = String.equal table_seq table_par in
  let cells = per_mode * List.length modes * 2 * List.length Config.above_threshold_ids in
  Printf.printf
    "%d kernels x %d modes (%d cells): -j 1 in %.2fs (%.1f cells/s), -j %d in \
     %.2fs (%.1f cells/s)\n"
    per_mode (List.length modes) cells t_seq
    (float cells /. t_seq)
    n_jobs t_par
    (float cells /. t_par);
  Printf.printf "stages -j 1 (us): %s\nstages -j %d (us): %s\n"
    (Jsonl.to_string stages_seq) n_jobs (Jsonl.to_string stages_par);
  Printf.printf "tables byte-identical across -j: %b\n" identical;
  if not identical then prerr_endline "ERROR: parallel output diverged from sequential";
  record ~target:"scaling" ~bench:"campaign_parallel_scaling"
    ~ident:[ ("cells", cells); ("jobs", n_jobs) ]
    ~rates:
      [
        ("cells_per_s_j1_milli", milli (float cells /. t_seq));
        ("cells_per_s_jN_milli", milli (float cells /. t_par));
      ]
    ~floors:[]
    [
      ("kernels_per_mode", Jsonl.Int per_mode);
      ("t_j1_us", Jsonl.Int (us t_seq));
      ("t_jN_us", Jsonl.Int (us t_par));
      ("speedup_milli", Jsonl.Int (milli (t_seq /. t_par)));
      ("identical", Jsonl.Bool identical);
      ("stages_j1", stages_seq);
      ("stages_jN", stages_par);
    ]

(* ------------------------------------------------------------------ *)
(* Distributed fabric: coordinator + loopback workers                  *)
(* ------------------------------------------------------------------ *)

let dist () =
  section "Distributed fabric — coordinator + 2 loopback workers (Table 4 grid)";
  let per_mode = size 8 and workers = 2 in
  let spec =
    match Spec.make ~campaign:"table4" ~n:per_mode () with
    | Ok s -> s
    | Error m -> failwith m
  in
  let total = Spec.total_cells spec in
  (* single-process reference for the byte-identity check (untimed) *)
  let local =
    match Spec.run_local ~jobs:1 spec with
    | Spec.Table t -> t
    | Spec.Fuzz _ -> assert false
  in
  let sock = Filename.temp_file "bench_dist" ".sock" in
  Sys.remove sock;
  let addr = Netaddr.Unix_sock sock in
  (* fleet telemetry rides along: per-worker attribution and the fleet
     rate come out of the same run that times the fabric *)
  let fleet = Fleet.create ~total ~now:(Mclock.now_ns ()) () in
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init workers (fun _ ->
        Domain.spawn (fun () -> Dist_worker.run ~addr ~jobs:1 ()))
  in
  let collected =
    match
      Coordinator.serve ~addr ~spec ~workers
        ~chunk:(Spec.lease_cells spec ~workers) ~fleet ()
    with
    | Ok cells -> cells
    | Error e -> failwith ("coordinator: " ^ e)
  in
  List.iter
    (fun d ->
      match Domain.join d with
      | Ok (_ : int) -> ()
      | Error e -> Printf.eprintf "bench dist worker: %s\n" e)
    doms;
  let merged =
    match Spec.run_local ~jobs:1 ~resume:collected spec with
    | Spec.Table t -> t
    | Spec.Fuzz _ -> assert false
  in
  let dt = Unix.gettimeofday () -. t0 in
  let identical = String.equal local merged in
  Fleet.note_local fleet (total - List.length collected);
  let snap =
    Fleet.snapshot fleet ~now:(Mclock.now_ns ())
      ~collected:(List.length collected) ~in_flight:0
  in
  Printf.printf
    "%d cells over %d loopback workers in %.2fs (%.1f cells/s)\n" total
    workers dt
    (float total /. dt);
  Printf.printf "per-worker cells: %s; fleet %d.%d cells/s; lease p50 %d ms\n"
    (String.concat "/"
       (List.map
          (fun (r : Fleet.row) -> string_of_int r.Fleet.cells)
          snap.Fleet.rows))
    (snap.Fleet.fleet_milli / 1000)
    (snap.Fleet.fleet_milli mod 1000 / 100)
    (match snap.Fleet.rows with r :: _ -> r.Fleet.lease_p50_ms | [] -> 0);
  Printf.printf "merged table byte-identical to single-process: %b\n" identical;
  if not identical then
    prerr_endline "ERROR: distributed merge diverged from single-process run";
  record ~target:"dist" ~bench:"dist_loopback"
    ~ident:[ ("cells", total); ("workers", workers) ]
    ~rates:[ ("cells_per_s_milli", milli (float total /. dt)) ]
    ~floors:[]
    [
      ("jobs", Jsonl.Int 1);
      ("t_us", Jsonl.Int (us dt));
      ("identical", Jsonl.Bool identical);
      ( "worker_cells",
        Jsonl.List
          (List.map
             (fun (r : Fleet.row) -> Jsonl.Int r.Fleet.cells)
             snap.Fleet.rows) );
      ("fleet_rate_milli", Jsonl.Int snap.Fleet.fleet_milli);
    ]

(* ------------------------------------------------------------------ *)
(* Corpus service: client domains hammering one serve daemon           *)
(* ------------------------------------------------------------------ *)

let serve_bench () =
  section "Corpus service — concurrent clients hammering one serve daemon";
  let clients = 4 and requests = 200 in
  let max_inflight = 4 and max_queue = 4 in
  let sock = Filename.temp_file "bench_serve" ".sock" in
  Sys.remove sock;
  let state = Filename.temp_file "bench_serve" ".journal" in
  Sys.remove state;
  let addr = Netaddr.Unix_sock sock in
  let store =
    match Svstore.open_ ~path:state with
    | Ok s -> s
    | Error m -> failwith ("serve bench: " ^ m)
  in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Server.run ~addr ~store ~max_inflight ~max_queue ~stop ())
  in
  (match Sclient.get ~addr ~retries:40 "/healthz" with
  | Ok _ -> ()
  | Error m -> failwith ("serve bench: daemon not up: " ^ m));
  (* a small corpus so queries have something to chew on *)
  let kernels =
    List.init 8 (fun i ->
        let seed = i + 1 in
        let tc, _ =
          Generate.generate ~cfg:(Gen_config.scaled Gen_config.Basic) ~seed ()
        in
        let text = Pp.program_to_string tc.Ast.prog in
        ( {
            Corpus.hash = Corpus.hash_text text;
            seed;
            mode = "basic";
            cls = "candidate";
            config = 0;
            opt = "-";
          },
          text ))
  in
  List.iter
    (fun (e, text) ->
      match Sclient.submit_kernel ~addr e text with
      | Ok _ -> ()
      | Error m -> failwith ("serve bench submit: " ^ m))
    kernels;
  (* steady-state throughput: each client loops a GET/POST request mix,
     timing every request round trip *)
  let t0 = Unix.gettimeofday () in
  let doms =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            let lat = ref [] in
            for i = 0 to requests - 1 do
              let path =
                match i mod 4 with
                | 0 -> "/healthz"
                | 1 -> "/coverage"
                | 2 -> "/bugs"
                | _ -> "/corpus"
              in
              let r0 = Mclock.now_ns () in
              (match
                 if i mod 8 = 7 then
                   (* duplicate submit: exercises the idempotent write path *)
                   let e, text = List.nth kernels (c mod List.length kernels) in
                   Result.map (fun (_ : bool) -> ()) (Sclient.submit_kernel ~addr e text)
                 else Result.map (fun (_ : Sclient.resp) -> ()) (Sclient.get ~addr path)
               with
              | Ok () -> ()
              | Error m -> failwith ("serve bench client: " ^ m));
              let us =
                Int64.to_int (Int64.div (Int64.sub (Mclock.now_ns ()) r0) 1_000L)
              in
              lat := us :: !lat
            done;
            !lat))
  in
  let latencies = List.concat_map Domain.join doms in
  let dt = Unix.gettimeofday () -. t0 in
  let total = clients * requests in
  let sorted = List.sort compare latencies in
  let arr = Array.of_list sorted in
  let pct p =
    if Array.length arr = 0 then 0
    else arr.(min (Array.length arr - 1) (p * Array.length arr / 100))
  in
  let p50 = pct 50 and p99 = pct 99 in
  Printf.printf "%d requests over %d clients in %.2fs (%.1f req/s)\n" total
    clients dt
    (float total /. dt);
  Printf.printf "round-trip p50 %d us, p99 %d us\n" p50 p99;
  (* overload: open more idle connections than the daemon admits + parks;
     the overflow must come back as immediate 429s, the parked ones as
     queue-timeout 429s — the daemon refuses rather than stalls *)
  let burst = max_inflight + max_queue + 8 in
  let socks =
    List.filter_map
      (fun _ -> Result.to_option (Netaddr.connect addr))
      (List.init burst (fun i -> i))
  in
  let shed_seen = ref 0 in
  List.iter
    (fun fd ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 4.0;
      let buf = Bytes.create 4096 in
      (match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
          let reply = Bytes.sub_string buf 0 n in
          if String.length reply >= 12 && String.sub reply 9 3 = "429" then
            incr shed_seen
      | exception Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    socks;
  Printf.printf "overload: %d idle connections -> %d shed with 429\n" burst
    !shed_seen;
  Atomic.set stop true;
  let server_stats =
    match Domain.join server with
    | Ok s -> s
    | Error m -> failwith ("serve bench daemon: " ^ m)
  in
  Svstore.close store;
  (try Sys.remove state with Sys_error _ -> ());
  Printf.printf "daemon: %d requests served, %d shed, %d timeouts\n"
    server_stats.Server.requests server_stats.Server.shed
    server_stats.Server.timeouts;
  record ~target:"serve" ~bench:"serve_stress"
    ~ident:[ ("clients", clients); ("requests", total) ]
    ~rates:[ ("req_per_s_milli", milli (float total /. dt)) ]
    ~floors:[]
    [
      ("t_us", Jsonl.Int (us dt));
      ("p50_us", Jsonl.Int p50);
      ("p99_us", Jsonl.Int p99);
      ("overload_conns", Jsonl.Int burst);
      ("overload_shed", Jsonl.Int !shed_seen);
      ("server_requests", Jsonl.Int server_stats.Server.requests);
    ]

(* ------------------------------------------------------------------ *)
(* Coverage-guided fuzzing: feedback on vs off at equal budget         *)
(* ------------------------------------------------------------------ *)

let fuzz () =
  section "Coverage-guided fuzzing — feedback vs blind sweep at equal budget";
  let budget = size 24 and seed = 7 in
  let n_jobs = max 1 !jobs in
  let run_policy feedback =
    let t0 = Unix.gettimeofday () in
    let r = Fuzz_loop.run ~jobs:n_jobs ~budget ~seed ~feedback () in
    (r, Unix.gettimeofday () -. t0)
  in
  let fb, t_fb = timed "fuzz/feedback" (fun () -> run_policy true) in
  let blind, t_blind = timed "fuzz/no-feedback" (fun () -> run_policy false) in
  print_endline (Fuzz_loop.to_table fb);
  let final r =
    match List.rev r.Fuzz_loop.generations with
    | g :: _ -> (g.Fuzz_loop.coverage, g.Fuzz_loop.distinct_bugs)
    | [] -> (0, 0)
  in
  let cov_fb, bugs_fb = final fb and cov_bl, bugs_bl = final blind in
  Printf.printf
    "feedback ON : %d kernels, %d coverage points, %d distinct bugs (%.1fs)\n\
     feedback OFF: %d kernels, %d coverage points, %d distinct bugs (%.1fs)\n"
    fb.Fuzz_loop.kernels_run cov_fb bugs_fb t_fb blind.Fuzz_loop.kernels_run
    cov_bl bugs_bl t_blind;
  (* per-generation trajectories: cumulative coverage and distinct bugs *)
  let series field r =
    Jsonl.List (List.map (fun g -> Jsonl.Int (field g)) r.Fuzz_loop.generations)
  in
  let policy name r dt =
    Jsonl.Obj
      [
        ("policy", Jsonl.Str name);
        ("kernels", Jsonl.Int r.Fuzz_loop.kernels_run);
        ("cells", Jsonl.Int r.Fuzz_loop.cells_run);
        ("coverage", series (fun g -> g.Fuzz_loop.coverage) r);
        ("distinct_bugs", series (fun g -> g.Fuzz_loop.distinct_bugs) r);
        ("t_us", Jsonl.Int (us dt));
      ]
  in
  record ~target:"fuzz" ~bench:"fuzz_feedback_vs_blind"
    ~ident:[ ("budget", budget); ("seed", seed); ("jobs", n_jobs) ]
    ~rates:[ ("cells_per_s_milli", milli (float fb.Fuzz_loop.cells_run /. t_fb)) ]
    ~floors:[ ("coverage", cov_fb) ]
    [
      ("feedback", policy "feedback" fb t_fb);
      ("no_feedback", policy "no-feedback" blind t_blind);
    ]

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                            *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "Microbenchmarks (Bechamel)";
  let open Bechamel in
  let open Toolkit in
  let gen_test mode =
    let counter = ref 0 in
    Test.make
      ~name:("generate/" ^ Gen_config.mode_name mode)
      (Staged.stage (fun () ->
           incr counter;
           ignore (Generate.generate ~cfg:(Gen_config.scaled mode) ~seed:!counter ())))
  in
  let tc, _ = Generate.generate ~cfg:(Gen_config.scaled Gen_config.All) ~seed:5 () in
  let interp_test =
    Test.make ~name:"interp/reference-ALL"
      (Staged.stage (fun () -> ignore (Driver.reference_outcome tc)))
  in
  (* reference-ALL = compile-ALL + run-compiled-ALL *)
  let interp_compile_test =
    Test.make ~name:"interp/compile-ALL"
      (Staged.stage (fun () -> ignore (Interp.compile tc.Ast.prog)))
  in
  let code = Interp.compile tc.Ast.prog in
  let interp_exec_test =
    Test.make ~name:"interp/run-compiled-ALL"
      (Staged.stage (fun () -> ignore (Interp.exec code tc)))
  in
  let compile_test =
    Test.make ~name:"vendor/compile+run-ALL"
      (Staged.stage (fun () -> ignore (Driver.run (Config.find 12) ~opt:true tc)))
  in
  let base, _ =
    Generate.generate ~emi:true ~cfg:(Gen_config.scaled Gen_config.All) ~seed:6 ()
  in
  let variant_counter = ref 0 in
  let emi_test =
    Test.make ~name:"emi/derive-variant"
      (Staged.stage (fun () ->
           incr variant_counter;
           ignore
             (Variant.derive ~base
                ~params:(List.hd Prune.paper_combinations)
                ~seed:!variant_counter)))
  in
  let pp_test =
    Test.make ~name:"pp/print+digest"
      (Staged.stage (fun () -> ignore (Digest_util.full tc.Ast.prog)))
  in
  let mutate_test =
    Test.make ~name:"mutate/one-site"
      (Staged.stage (fun () -> ignore (Mutate.apply ~seed:42L tc.Ast.prog)))
  in
  (* one scalar operator each, bound once as the compiled interpreter
     binds it: an int and a uint operand, so the common type differs *)
  let x = Scalar.make Ty.int_scalar 123_456L
  and y = Scalar.make { Ty.width = Ty.W32; sign = Ty.Unsigned } 789L in
  let scalar_test name f =
    Test.make ~name:("scalar/" ^ name) (Staged.stage (fun () -> ignore (f x y)))
  in
  let uchar = { Ty.width = Ty.W8; sign = Ty.Unsigned } in
  let scalar_tests =
    [
      scalar_test "add" (Scalar.binop Op.Add);
      scalar_test "lt" (Scalar.binop Op.Lt);
      scalar_test "safe_add" (Scalar.safe_binop Op.Add);
      scalar_test "safe_mul" (Scalar.safe_binop Op.Mul);
      scalar_test "safe_div" (Scalar.safe_binop Op.Div);
      scalar_test "convert" (fun a _ -> Scalar.convert uchar a);
    ]
  in
  let tests =
    Test.make_grouped ~name:"clsmith-repro"
      ([
         gen_test Gen_config.Basic; gen_test Gen_config.Vector;
         gen_test Gen_config.All; interp_test; interp_compile_test;
         interp_exec_test; compile_test; emi_test;
         pp_test; mutate_test;
       ]
      @ scalar_tests)
  in
  let results =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
    in
    let instances = Instance.[ monotonic_clock ] in
    let cfg =
      Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.8) ~kde:(Some 1000) ()
    in
    let raw = Benchmark.all cfg instances tests in
    Analyze.all ols Instance.monotonic_clock raw
  in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  List.iter
    (fun (name, est) -> Printf.printf "%-40s %12.1f ns/run\n" name est)
    (List.sort compare !rows)

(* ------------------------------------------------------------------ *)

let all_experiments () =
  table1 ();
  figure 1 Exhibit.figure1;
  figure 2 Exhibit.figure2;
  table2 ();
  races ();
  table3 ();
  table4 ();
  table5 ();
  scaling ();
  dist ();
  serve_bench ();
  fuzz ();
  micro ()

let () =
  (* split argv into global flags (-j N, -n N) and experiment names *)
  let rec parse acc = function
    | [] -> List.rev acc
    | "-j" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 ->
            jobs := j;
            parse acc rest
        | _ ->
            Printf.eprintf "-j expects a positive integer, got %s\n" v;
            exit 2)
    | "-n" :: v :: rest -> (
        match int_of_string_opt v with
        | Some n when n >= 1 ->
            scale := Some n;
            parse acc rest
        | _ ->
            Printf.eprintf "-n expects a positive integer, got %s\n" v;
            exit 2)
    | "-stamp" :: v :: rest ->
        stamp := v;
        parse acc rest
    | name :: rest -> parse (name :: acc) rest
  in
  let rc = ref 0 in
  (match parse [] (List.tl (Array.to_list Sys.argv)) with
  | [] -> all_experiments ()
  | names ->
      List.iter
        (function
          | "table1" -> table1 ()
          | "table2" -> table2 ()
          | "table3" -> table3 ()
          | "table4" -> table4 ()
          | "table5" -> table5 ()
          | "figure1" -> figure 1 Exhibit.figure1
          | "figure2" -> figure 2 Exhibit.figure2
          | "races" -> races ()
          | "micro" -> micro ()
          | "ablate" -> ablate ()
          | "scaling" -> scaling ()
          | "dist" -> dist ()
          | "serve" -> serve_bench ()
          | "fuzz" -> fuzz ()
          | "compare" -> rc := max !rc (History.compare_latest ())
          | "all" -> all_experiments ()
          | other -> Printf.eprintf "unknown experiment %s\n" other)
        names);
  if !rc <> 0 then exit !rc
