(* The serve workload: a `campaign serve` child process at its CLI
   defaults, over a unix socket, with a state journal preloaded with
   reported cells. One single-threaded open-loop generator (Loadgen, at
   most 2 requests in flight, one connection per request) sends writes
   in the per-kernel pattern a client farm sends (one /kernel, one
   /claim, 20 /observation) beside a fixed-rate dashboard read stream.
   Phases: light rate, busy rate, write capacity, then the max_rps
   search.
   What the writes carry is recorded, not made up: serve_cells.jsonl
   holds the cells `campaign client run` reports for the campaign
   workload's 12 kernels (outcome, classification, the kernel's feature
   signature and its coverage indices), and the log cycles through them
   in the seed's order under fresh kernel ids.
   The final /bugs, /coverage and /corpus bodies must equal those of an
   in-process replay of the acknowledged writes on a copy of the same
   preloaded store, through Http, Router.handle and Svstore. *)

open Common

let preload_kernels = 1_000  (* x 20 reported cells = 20,000 stored cells *)
let light_rate = 100.
let busy_rate = 500.
let limit_us = 10_000.
(* shares of --seconds: light and busy phases, then each search probe *)
let phase_share = 0.25
let probe_share = 0.1
let ladder = [ 200.; 400.; 600.; 800.; 1000.; 1200.; 1400.; 1700.; 2000.; 2400.; 2800. ]
let read_period_s = 0.1  (* dashboard: /healthz /coverage /corpus /bugs in turn *)
let report_period_s = 5.0  (* plus one /report this often *)
let setups = 7
let capacity_writes = 3000
let capacity_rounds = 7
let overhead_pairs = 3
let daemon = "_build/default/bin/campaign_cli.exe"

(* ---- the recorded cells ---- *)

let cells_path = "perfbench/serve_cells.jsonl"

type reported = Journal.cell * Triage.observation option * int list

type kernel = {
  mode : string;
  text : string;  (** regenerated from the recorded (mode, seed) *)
  regenerates : bool;  (** the text hashes to the recorded hash *)
  cells : reported list;
}

let reported_json ((cell, obs, cov) : reported) =
  Jsonl.Obj
    ([ ("cell", Journal.cell_to_json cell) ]
    @ (match obs with
      | Some o -> [ ("obs", Jsonl.Obj (Triage.observation_fields o)) ]
      | None -> [])
    @ [ ("cov", Jsonl.List (List.map (fun i -> Jsonl.Int i) cov)) ])

let reported_of_json j : reported option =
  let cell = Option.bind (Jsonl.member "cell" j) Journal.cell_of_json in
  let obs = Option.bind (Jsonl.member "obs" j) Triage.observation_of_json in
  let cov =
    Option.value ~default:[]
      (Option.map (List.filter_map Jsonl.get_int) (Option.bind (Jsonl.member "cov" j) Jsonl.get_list))
  in
  Option.map (fun cell -> (cell, obs, cov)) cell

let generate mode seed =
  match Gen_config.mode_of_string mode with
  | None -> failwith ("serve: unknown mode " ^ mode)
  | Some m ->
      let tc, _ = Generate.generate ~cfg:(Gen_config.scaled m) ~seed () in
      (tc, Pp.program_to_string tc.Ast.prog)

(* what `campaign client run` reports for one kernel: every
   above-threshold config at both opt levels, majority-voted, each cell
   with its classification, the kernel's feature signature and its
   coverage indices *)
let client_cells ~mode ~seed =
  let tc, text = generate mode seed in
  let hash = Corpus.hash_text text in
  let prepared = Driver.prepare tc in
  let features = Driver.features_of_prepared prepared in
  let signature = Triage.signature_of_features features in
  let runs =
    List.concat_map
      (fun id ->
        List.map
          (fun opt ->
            let outcome, stats = Driver.run_prepared_stats (Config.find id) ~opt prepared in
            (id, opt, outcome, stats))
          [ false; true ])
      Config.above_threshold_ids
  in
  let majority = Majority.majority_output (List.map (fun (_, _, o, _) -> o) runs) in
  let cells =
    List.map
      (fun (id, opt, outcome, stats) ->
        let divergent = Majority.is_wrong_code ~majority outcome in
        let cov = Covmap.indices ~features ~config:id ~opt ~divergent ~outcome ~stats in
        let opt_s = if opt then "+" else "-" in
        let cell =
          { Journal.index = 0; seed; mode; config = id; opt = opt_s; outcomes = [ outcome ]; note = "" }
        in
        let cls =
          match Majority.bucket_of ~majority outcome with
          | Majority.B_wrong -> Some "wrong-code"
          | Majority.B_bf -> Some "build-failure"
          | Majority.B_crash -> Some "crash"
          | Majority.B_ok | Majority.B_timeout -> None
        in
        let obs =
          Option.map
            (fun cls ->
              {
                Triage.o_cls = cls;
                o_config = id;
                o_opt = opt_s;
                o_signature = signature;
                o_seed = seed;
                o_mode = mode;
                o_hash = hash;
              })
            cls
        in
        (cell, obs, cov))
      runs
  in
  (hash, cells)

(* `pb.exe record serve`: one line per campaign kernel, the kernel that
   Campaign.run picks for the unit and the cells a client reports for it *)
let record () =
  List.iter
    (fun (m, j) ->
      let first = ref None in
      ignore
        (Campaign.run ~jobs:1 ~per_mode:1 ~seed0:(Batch.campaign_seed0 j) ~modes:[ m ]
           ~sink:(fun c -> if !first = None then first := Some c.Journal.seed)
           ());
      let seed = Option.get !first and mode = Gen_config.mode_name m in
      let hash, cells = client_cells ~mode ~seed in
      print_endline
        (Jsonl.to_string
           (Jsonl.Obj
              [
                ("mode", Jsonl.Str mode);
                ("seed", Jsonl.Int seed);
                ("hash", Jsonl.Str hash);
                ("cells", Jsonl.List (List.map reported_json cells));
              ])))
    Batch.campaign_units

let load_kernels () =
  let ic = open_in cells_path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (if String.trim l = "" then acc else l :: acc)
    | exception End_of_file -> List.rev acc
  in
  let ls = lines [] in
  close_in ic;
  List.map
    (fun l ->
      match Jsonl.of_string l with
      | Error e -> failwith ("serve: " ^ cells_path ^ ": " ^ e)
      | Ok j ->
          let field name get =
            match Option.bind (Jsonl.member name j) get with
            | Some v -> v
            | None -> failwith ("serve: " ^ cells_path ^ ": no " ^ name)
          in
          let mode = field "mode" Jsonl.get_str in
          let _, text = generate mode (field "seed" Jsonl.get_int) in
          {
            mode;
            text;
            regenerates = Corpus.hash_text text = field "hash" Jsonl.get_str;
            cells = List.filter_map reported_of_json (field "cells" Jsonl.get_list);
          })
    ls
  |> Array.of_list

(* ---- the seeded request log ---- *)

type gen = {
  seed : int;
  kernels : kernel array;  (** the recorded kernels, in the seed's order *)
  mutable next : int;  (** next kernel number *)
  mutable obs_log : Triage.observation list;  (** every classified cell, newest first *)
}

let make_gen seed =
  let ks = load_kernels () in
  let order = permutation ~seed (Array.length ks) in
  { seed; kernels = Array.of_list (List.map (fun i -> ks.(i)) order); next = 0; obs_log = [] }

(* one kernel's writes: the next recorded kernel, cycling, under a fresh
   kernel id and a text made distinct by a trailing comment (the store
   keys cells by kernel id and kernels by content hash) *)
let kernel_writes g =
  let k = g.next in
  g.next <- k + 1;
  let r = g.kernels.(k mod Array.length g.kernels) in
  let id = (g.seed * 1_000_000) + k in
  let text = r.text ^ Printf.sprintf "// bench %d/%d\n" g.seed k in
  let hash = Corpus.hash_text text in
  let entry = { Corpus.hash; seed = id; mode = r.mode; cls = "candidate"; config = 0; opt = "-" } in
  let cells =
    List.map
      (fun (cell, obs, cov) ->
        ( { cell with Journal.seed = id },
          Option.map (fun o -> { o with Triage.o_seed = id; o_hash = hash }) obs,
          cov ))
      r.cells
  in
  List.iter (fun (_, obs, _) -> Option.iter (fun o -> g.obs_log <- o :: g.obs_log) obs) cells;
  (entry, text, cells)

let kernel_body (e : Corpus.entry) text =
  Jsonl.to_string (Jsonl.Obj (Corpus.entry_fields e @ [ ("text", Jsonl.Str text) ]))

let obs_body c = Jsonl.to_string (reported_json c)

let http meth path body =
  let head = Printf.sprintf "%s %s HTTP/1.1\r\nhost: campaign-serve\r\nconnection: close\r\n" meth path in
  if body = "" then head ^ "\r\n"
  else
    head
    ^ Printf.sprintf "content-type: application/json\r\ncontent-length: %d\r\n\r\n" (String.length body)
    ^ body

(* the requests of one phase: writes at [rate] in whole kernels (so the
   next phase starts a fresh one), beside the dashboard reads *)
let phase_requests g ~rate ~seconds ~dashboard ~reports =
  let at t = Int64.of_float (t *. 1e9) in
  let rec writes acc n =
    if n <= 0 then List.rev acc
    else
      let e, text, cells = kernel_writes g in
      let group =
        ("kernel", http "POST" "/kernel" (kernel_body e text))
        :: ("claim", http "POST" "/claim" "")
        :: List.map (fun c -> ("observation", http "POST" "/observation" (obs_body c))) cells
      in
      writes (List.rev_append group acc) (n - List.length group)
  in
  let ws =
    List.mapi
      (fun i (label, bytes) -> (at (float_of_int i /. rate), label, bytes))
      (writes [] (int_of_float (rate *. seconds)))
  in
  let dash = [| "healthz"; "coverage"; "corpus"; "bugs" |] in
  let reads =
    if not dashboard then []
    else
      List.init (int_of_float (seconds /. read_period_s)) (fun i ->
          let r = dash.(i mod Array.length dash) in
          (at ((float_of_int i +. 0.5) *. read_period_s), r, http "GET" ("/" ^ r) ""))
  in
  let reports =
    if not reports then []
    else
      List.init (max 1 (int_of_float (seconds /. report_period_s))) (fun i ->
          (at ((float_of_int i +. 0.25) *. report_period_s), "report", http "GET" "/report" ""))
  in
  List.stable_sort (fun (a, _, _) (b, _, _) -> Int64.compare a b) (ws @ reads @ reports)
  |> List.map (fun (due_ns, label, bytes) -> { Loadgen.due_ns; label; bytes })
  |> Array.of_list

(* ---- the daemon ---- *)

let addr_of sock = match Netaddr.of_string ("unix:" ^ sock) with Ok a -> a | Error e -> failwith e

let connect_to sock () =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  try
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  with e ->
    Unix.close fd;
    raise e

let start_daemon ~sock ~state ~log =
  (try Sys.remove sock with Sys_error _ -> ());
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let t0 = now_ns () in
  let pid =
    Unix.create_process daemon
      [| daemon; "serve"; "--listen"; "unix:" ^ sock; "--state"; state |]
      null out out
  in
  Unix.close null;
  Unix.close out;
  (* ready = the first 200 from /healthz, after the store replay *)
  let rec wait tries =
    if tries = 0 then failwith "serve: daemon did not answer /healthz"
    else
      match Sclient.get ~addr:(addr_of sock) "/healthz" with
      | Ok { Sclient.status = 200; _ } -> ()
      | _ ->
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> ()
          | _ -> failwith "serve: daemon exited during start-up");
          Unix.sleepf 0.002;
          wait (tries - 1)
  in
  (try wait 10_000
   with e ->
     (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] pid);
     raise e);
  (pid, secs_since t0)

let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let copy_file src dst =
  let ic = open_in_bin src and oc = open_out_bin dst in
  let buf = Bytes.create 65536 in
  let rec go () =
    let k = input ic buf 0 (Bytes.length buf) in
    if k > 0 then (output oc buf 0 k; go ())
  in
  go ();
  close_in ic;
  close_out oc

(* ---- replay: the same acknowledged writes, in-process ---- *)

let parse_req bytes =
  let dec = Http.decoder () in
  Http.feed_string dec bytes;
  match Http.next dec with `Req r -> r | _ -> failwith "serve: unparsable logged request"

let get store path =
  let resp = Router.handle store (parse_req (http "GET" path "")) in
  match Http.head_end resp 0 with
  | Some (_, body) -> String.sub resp body (String.length resp - body)
  | None -> resp

(* bucket order follows arrival order, which two in-flight requests may
   swap; compare /bugs with its buckets in canonical order *)
let canonical_bugs b =
  match Jsonl.of_string b with
  | Ok (Jsonl.Obj fields) ->
      Jsonl.to_string
        (Jsonl.Obj
           (List.map
              (function
                | "buckets", Jsonl.List l ->
                    ("buckets", Jsonl.List (List.sort compare l))
                | f -> f)
              fields))
  | _ -> b

(* [fetch path] answers a query with its response body *)
let final_bodies fetch = [ canonical_bugs (fetch "/bugs"); fetch "/coverage"; fetch "/corpus" ]

(* the store of a replay, opened from a copy of the preloaded journal *)
let open_store path =
  match Span.with_ ~cat:"bench" "svstore.open" (fun () -> Svstore.open_ ~path) with
  | Ok s -> s
  | Error e -> failwith ("serve replay: " ^ e)

(* each logged write through the daemon's own parser and router; with
   spans on, the traced run times each public call *)
let replay_writes store writes =
  List.iter
    (fun (label, bytes) ->
      let r = Span.with_ ~cat:"bench" "http.parse" (fun () -> parse_req bytes) in
      ignore (Span.with_ ~cat:"bench" ("router.handle:" ^ label) (fun () -> Router.handle store r)))
    writes

(* ---- the run ---- *)

let is_write l = l = "kernel" || l = "claim" || l = "observation"

type phase = {
  name : string;
  rate : float;  (** writes per second *)
  dashboard : bool;  (** dashboard reads ran beside the writes *)
  reqs : Loadgen.request array;
  outs : Loadgen.outcome array;
}

let latency_summary p = Stats.summarize (Array.to_list (Array.map Loadgen.latency_us p.outs))

(* the limit is on writes: a client blocks on every report it sends *)
let write_latency_summary p =
  Stats.summarize
    (List.filter_map
       (fun (o : Loadgen.outcome) -> if is_write o.Loadgen.label then Some (Loadgen.latency_us o) else None)
       (Array.to_list p.outs))

let run_phase ~sock g ~name ~rate ~seconds ~dashboard ~reports =
  let reqs = phase_requests g ~rate ~seconds ~dashboard ~reports in
  (* start each phase with no major-GC debt in the generator *)
  Gc.full_major ();
  let outs = Loadgen.run ~connect:(connect_to sock) ~max_inflight:2 reqs in
  { name; rate; dashboard; reqs; outs }

type live = {
  light : phase;
  busy : phase;
  later : phase list;  (** the capacity rounds, then every search probe *)
  max_rps : float;
  capacity : float;  (** writes/s with the window always full, median of rounds *)
  capacities : float list;
  capacity_cpus : float list;  (** writes per CPU-second of the daemon, per round *)
  setups : float list;  (** daemon spawn to its first 200 from /healthz *)
  setup_cpus : float list;  (** the daemon's CPU seconds at that point *)
  setup_rss_mb : float list;  (** VmHWM of each daemon once it answered *)
  rss_mb : float;
  final : string list;  (** canonical final query bodies *)
  pristine : string;  (** copy of the preloaded store *)
  fixed_observations : Triage.observation list;
      (** of the preload, light and busy writes, oldest first *)
  recorded_ok : bool;  (** every recorded kernel regenerates to its hash *)
}

let phases lv = lv.light :: lv.busy :: lv.later

(* the acknowledged writes of [phases], in send order *)
let acked_writes phases =
  List.concat_map
    (fun p ->
      Array.to_list (Array.map2 (fun r o -> (r, o)) p.reqs p.outs)
      |> List.filter (fun ((r : Loadgen.request), (o : Loadgen.outcome)) ->
             is_write r.Loadgen.label && Loadgen.ok_status o.Loadgen.status)
      |> List.sort (fun (_, (a : Loadgen.outcome)) (_, b) -> Int64.compare a.Loadgen.sent b.Loadgen.sent)
      |> List.map (fun ((r : Loadgen.request), _) -> (r.Loadgen.label, r.Loadgen.bytes)))
    phases

let run_live ~dir ~seed ~seconds =
  let state = Filename.concat dir "state.journal" in
  let pristine = Filename.concat dir "preloaded.journal" in
  let sock = Filename.concat dir "serve.sock" in
  let log = Filename.concat dir "daemon.log" in
  List.iter (fun f -> try Sys.remove f with Sys_error _ -> ()) [ state; pristine; log ];
  let g = make_gen seed in
  (* preload: tens of thousands of reported cells *)
  (match Svstore.open_ ~path:pristine with
  | Error e -> failwith e
  | Ok store ->
      for _ = 1 to preload_kernels do
        let e, text, cells = kernel_writes g in
        ignore (Svstore.submit_kernel store e text);
        List.iter
          (fun (cell, obs, cov) -> ignore (Svstore.report_observation store ~cell ~obs ~cov))
          cells
      done;
      Svstore.close store);
  copy_file pristine state;
  (* set up [setups] times; the last daemon stays for the load *)
  let starts =
    List.init setups (fun i ->
        let p, s = start_daemon ~sock ~state ~log in
        let cpu = proc_cpu_s p and rss = peak_rss_mb (string_of_int p) in
        if i < setups - 1 then stop_daemon p;
        (p, s, cpu, rss))
  in
  let pid, _, _, _ = List.nth starts (setups - 1) in
  Fun.protect ~finally:(fun () -> stop_daemon pid) @@ fun () ->
  let phase_s = seconds *. phase_share and probe_s = seconds *. probe_share in
  let light = run_phase ~sock g ~name:"light" ~rate:light_rate ~seconds:phase_s ~dashboard:true ~reports:true in
  let busy = run_phase ~sock g ~name:"busy" ~rate:busy_rate ~seconds:phase_s ~dashboard:true ~reports:true in
  let fixed_observations = List.rev g.obs_log in
  (* capacity: [capacity_writes] writes all due at once, so the window of
     two connections never empties — completions per second *)
  let rounds =
    List.init capacity_rounds (fun _ ->
        let cpu0 = proc_cpu_s pid in
        let p =
          run_phase ~sock g ~name:"capacity" ~rate:1e9
            ~seconds:(float_of_int capacity_writes /. 1e9) ~dashboard:false ~reports:false
        in
        (p, float_of_int (Array.length p.outs) /. (proc_cpu_s pid -. cpu0)))
  in
  let sats = List.map fst rounds in
  (* the memory of a fixed amount of work: the max_rps ladder below stops
     at a rate that varies from run to run, and each write grows the store *)
  let rss_mb = peak_rss_mb (string_of_int pid) in
  let rate_of (p : phase) =
    let last = Array.fold_left (fun a (o : Loadgen.outcome) -> max a o.Loadgen.finished) 0L p.outs in
    float_of_int (Array.length p.outs) /. (Int64.to_float (Int64.sub last p.outs.(0).Loadgen.due) /. 1e9)
  in
  let capacities = List.map rate_of sats in
  let probes = ref [] in
  let best, _ =
    Loadgen.search ~limit_us ~rates:ladder (fun rate ->
        let p = run_phase ~sock g ~name:"probe" ~rate ~seconds:probe_s ~dashboard:false ~reports:false in
        probes := p :: !probes;
        let s = write_latency_summary p in
        {
          Loadgen.rate;
          tail_us = (match s.Stats.tail with Some (_, v) -> v | None -> s.Stats.p50);
          backlog_us = (Loadgen.lateness p.outs).Loadgen.backlog_end_us;
        })
  in
  let final =
    final_bodies (fun path ->
        match Sclient.get ~addr:(addr_of sock) path with
        | Ok r -> r.Sclient.body
        | Error e -> failwith ("serve: final " ^ path ^ ": " ^ e))
  in
  {
    light;
    busy;
    later = sats @ List.rev !probes;
    max_rps = Option.value ~default:0. best;
    capacity = Stats.median capacities;
    capacities;
    capacity_cpus = List.map snd rounds;
    setups = List.map (fun (_, s, _, _) -> s) starts;
    setup_cpus = List.map (fun (_, _, c, _) -> c) starts;
    setup_rss_mb = List.map (fun (_, _, _, r) -> r) starts;
    rss_mb;
    final;
    pristine;
    fixed_observations;
    recorded_ok = Array.for_all (fun k -> k.regenerates) g.kernels;
  }

(* ---- reports ---- *)

let phase_lines p =
  let s = latency_summary p in
  let name =
    if p.name = "capacity" then Printf.sprintf "capacity (%d writes due at once)" (Array.length p.reqs)
    else
      Printf.sprintf "%s (%.0f writes/s%s)" p.name p.rate
        (if p.dashboard then " + dashboard reads" else "")
  in
  [ Stats.describe ~name:("latency_us " ^ name) ~unit:"us" s; "  " ^ Loadgen.describe_lateness (Loadgen.lateness p.outs) ]

let failures phases =
  List.fold_left
    (fun acc p ->
      acc + Array.fold_left (fun a o -> if Loadgen.ok_status o.Loadgen.status then a else a + 1) 0 p.outs)
    0 phases

let attempted phases = List.fold_left (fun acc p -> acc + Array.length p.outs) 0 phases

(* median wall time of [k] calls, in us *)
let median_of k f =
  Stats.median
    (List.init k (fun _ ->
         let t = now_ns () in
         ignore (f ());
         us_of_ns (Int64.sub (now_ns ()) t)))

(* the observation writes of the log, decoded for direct Svstore calls *)
let decoded_observations writes =
  List.filter_map
    (fun (label, bytes) ->
      if label <> "observation" then None
      else
        match Jsonl.of_string (parse_req bytes).Http.body with
        | Error _ -> None
        | Ok j -> reported_of_json j)
    writes

let routes = [ "observation"; "claim"; "kernel"; "healthz"; "coverage"; "corpus"; "bugs"; "report" ]

(* The traced in-process replay: per-layer figures of the serve path.
   Every figure is taken on a fixed store, the preload plus the light and
   busy writes ([fixed]), before the writes of the capacity rounds and
   the max_rps ladder ([rest]), whose number varies from run to run. *)
let layers ~dir (lv : live) ~fixed ~rest =
  let copy = Filename.concat dir "traced.journal" in
  copy_file lv.pristine copy;
  Span.reset ();
  Metrics.reset ();
  Span.enable ();
  let store = open_store copy in
  replay_writes store fixed;
  (* the read routes on the fixed store: cheap ones often, heavy ones less *)
  List.iter
    (fun (route, k) ->
      for _ = 1 to k do
        ignore
          (Span.with_ ~cat:"bench" ("router.handle:" ^ route) (fun () ->
               Router.handle store (parse_req (http "GET" ("/" ^ route) ""))))
      done)
    [ ("healthz", 200); ("coverage", 200); ("corpus", 50); ("bugs", 30); ("report", 6) ];
  Span.disable ();
  let spans = Span.drain () in
  let triage_us = median_of 3 (fun () -> Triage.of_observations lv.fixed_observations) in
  let render_us =
    median_of 3 (fun () ->
        Report_html.render ~header:(Svstore.header store) ~cells:(Svstore.cells store) ())
  in
  (* the rest of the log, traced too, for the trace file and the check *)
  Span.enable ();
  replay_writes store rest;
  Span.disable ();
  let rest_spans = Span.drain () in
  let replay_final = final_bodies (fun p -> get store p) in
  Svstore.close store;
  (* appends alone: the fixed observations straight into Svstore *)
  let copy2 = Filename.concat dir "append.journal" in
  copy_file lv.pristine copy2;
  let append_us =
    match Svstore.open_ ~path:copy2 with
    | Error e -> failwith e
    | Ok st ->
        let xs =
          List.map
            (fun (cell, obs, cov) ->
              let t = now_ns () in
              ignore (Svstore.report_observation st ~cell ~obs ~cov);
              us_of_ns (Int64.sub (now_ns ()) t))
            (decoded_observations fixed)
        in
        Svstore.close st;
        Stats.summarize xs
  in
  let durs pick = List.filter_map (fun (s : Span.t) -> if pick s then Some (us_of_ns s.Span.dur_ns) else None) spans in
  let parse = Stats.summarize (durs (Spanstat.named "http.parse")) in
  let route_durs r = durs (Spanstat.named ("router.handle:" ^ r)) in
  let route r = Stats.summarize (route_durs r) in
  (* too few samples for a tail percentile: the slowest call *)
  let tail r =
    match (route r).Stats.tail with Some (_, v) -> v | None -> List.fold_left max 0. (route_durs r)
  in
  let light_p50 = (latency_summary lv.light).Stats.p50 in
  (* lateness of the rate-limited phases only: the capacity rounds queue
     every write at once, so their lateness is their length *)
  let late_max =
    List.fold_left (fun a p -> max a (Loadgen.lateness p.outs).Loadgen.late_max_us) 0. [ lv.light; lv.busy ]
  in
  let open_us = match durs (Spanstat.named "svstore.open") with x :: _ -> x | [] -> 0. in
  let metrics =
    [
      m "serve.replay_us" "us" open_us;
      m "serve.parse_us" "us" parse.Stats.p50;
    ]
    @ List.concat_map
        (fun r ->
          [
            m (Printf.sprintf "serve.handle_us.%s.p50" r) "us" (route r).Stats.p50;
            m (Printf.sprintf "serve.handle_us.%s.p99" r) "us" (tail r);
          ])
        routes
    @ [
        m "serve.append_us" "us" append_us.Stats.p50;
        m "serve.loop_us" "us" (light_p50 -. parse.Stats.p50 -. (route "observation").Stats.p50);
        m "serve.late_us.max" "us" late_max;
        m "triage.bucket_us" "us" triage_us;
        m "analytics.render_us" "us" render_us;
      ]
  in
  let lines =
    [
      Printf.sprintf "per-layer figures on the fixed store: %d preloaded cells + %d light and busy writes"
        (preload_kernels * 20) (List.length fixed);
      Stats.describe ~name:"serve.parse_us (Http.feed_string + Http.next)" ~unit:"us" parse;
    ]
    @ List.map (fun r -> Stats.describe ~name:("serve.handle_us." ^ r ^ " (Router.handle)") ~unit:"us" (route r)) routes
    @ [
        Stats.describe ~name:"serve.append_us (Svstore.report_observation)" ~unit:"us" append_us;
        Printf.sprintf "serve.late_us.max: %.0f us (light and busy phases)" late_max;
        Printf.sprintf "triage.bucket_us: %.0f us (Triage.of_observations over %d observations)" triage_us
          (List.length lv.fixed_observations);
        Printf.sprintf "analytics.render_us: %.0f us (Report_html.render over the store)" render_us;
      ]
  in
  (metrics, lines, spans @ rest_spans, replay_final)

let run ~dir ~seed ~seconds ~trace =
  let lv = run_live ~dir ~seed ~seconds in
  let fixed = acked_writes [ lv.light; lv.busy ] and rest = acked_writes lv.later in
  (* an in-process replay of every acknowledged write, with spans on or
     off: its final query bodies and its wall time *)
  let replay_all ~traced =
    let copy = Filename.concat dir "replay.journal" in
    copy_file lv.pristine copy;
    if traced then Span.enable ();
    let t0 = now_ns () in
    let store = open_store copy in
    replay_writes store (fixed @ rest);
    let s = secs_since t0 in
    Span.disable ();
    ignore (Span.drain ());
    let bodies = final_bodies (fun p -> get store p) in
    Svstore.close store;
    (bodies, s)
  in
  let mine, _ = replay_all ~traced:false in
  let correct = lv.recorded_ok && mine = lv.final in
  let all = phases lv in
  let attempted = attempted all in
  let failed = if correct then failures all else attempted in
  let ls = latency_summary lv.light and bs = latency_summary lv.busy in
  let tail_name (s : Stats.summary) = match s.Stats.tail with Some (p, _) -> Stats.pct_label p | None -> "max" in
  let tail_v (s : Stats.summary) = match s.Stats.tail with Some (_, v) -> v | None -> s.Stats.p50 in
  let setup = Stats.summarize lv.setups in
  (* the median round: one round disturbed by the host does not move it *)
  let throughput = Stats.median lv.capacity_cpus in
  let lines =
    [
      Printf.sprintf "workload serve: %d preloaded cells, %d requests, %d acknowledged writes replayed"
        (preload_kernels * 20) attempted (List.length fixed + List.length rest);
      Stats.describe ~name:"setup_s (daemon spawn to first 200 from /healthz)" ~unit:"s" setup;
      Printf.sprintf "  daemon CPU at ready: %s s"
        (String.concat ", " (List.map (Printf.sprintf "%.4f") lv.setup_cpus));
      Printf.sprintf "p50_us.light: %.0f us (n=%d, %.0f writes/s)" ls.Stats.p50 ls.Stats.n lv.light.rate;
      Printf.sprintf "p99_us.light: %.0f us (%s, n=%d)" (tail_v ls) (tail_name ls) ls.Stats.n;
      Printf.sprintf "p50_us.busy: %.0f us (n=%d, %.0f writes/s)" bs.Stats.p50 bs.Stats.n lv.busy.rate;
      Printf.sprintf "p99_us.busy: %.0f us (%s, n=%d)" (tail_v bs) (tail_name bs) bs.Stats.n;
      Printf.sprintf "max_rps: %.0f writes/s (limit %.0f us on the write-latency tail percentile, interpolated; probes: %s)" lv.max_rps limit_us
        (String.concat ", "
           (List.map
              (fun p -> let s = write_latency_summary p in Printf.sprintf "%.0f:%.0fus" p.rate (tail_v s))
              (List.filter (fun p -> p.name = "probe") lv.later)));
      Printf.sprintf "capacity: %.0f writes/s (median of %d rounds of %d writes, two connections always busy: %s)" lv.capacity
        capacity_rounds capacity_writes (String.concat ", " (List.map (Printf.sprintf "%.0f") lv.capacities));
      Printf.sprintf "throughput: %.0f writes per daemon CPU-second (median capacity round: %s)" throughput
        (String.concat ", " (List.map (Printf.sprintf "%.0f") lv.capacity_cpus));
      Printf.sprintf "peak_rss_mb: %.1f MiB (VmHWM of the daemon after the light, busy and capacity phases; after replay: %s)" lv.rss_mb
        (String.concat ", " (List.map (Printf.sprintf "%.1f") lv.setup_rss_mb));
      Printf.sprintf "error_rate: %d/%d = %.4f" failed attempted (float_of_int failed /. float_of_int (max 1 attempted));
      Printf.sprintf "correct: %b (final /bugs, /coverage, /corpus vs in-process replay; recorded kernels regenerate: %b)"
        correct lv.recorded_ok;
    ]
    @ List.concat_map phase_lines all
  in
  let e2e = e2e ~setup_s:setup.Stats.p50 ~throughput ~peak_rss_mb:lv.rss_mb in
  if not trace then ({ attempted; failed; correct; metrics = e2e; lines }, [], (0., 0.))
  else begin
    (* the tracing overhead: untraced and traced replays in turn, after
       the check's replay warmed up, the median of each *)
    let pairs =
      List.init overhead_pairs (fun _ ->
          let _, u = replay_all ~traced:false in
          let _, t = replay_all ~traced:true in
          (u, t))
    in
    let untraced_s = Stats.median (List.map fst pairs) and traced_s = Stats.median (List.map snd pairs) in
    let metrics, more, spans, traced_final = layers ~dir lv ~fixed ~rest in
    let correct = correct && traced_final = mine in
    let more =
      more
      @ [
          Printf.sprintf "tracing overhead: replay %.3f s traced vs %.3f s untraced (median of %d each, in turn)"
            traced_s untraced_s overhead_pairs;
        ]
    in
    ({ attempted; failed; correct; metrics; lines = lines @ more }, spans, (traced_s, untraced_s))
  end
