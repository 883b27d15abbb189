(* ------------------------------------------------------------------ *)
(* Span wire codec                                                     *)
(* ------------------------------------------------------------------ *)

let span_to_json (s : Span.t) =
  Jsonl.Obj
    [
      ("c", Jsonl.Str s.Span.cat);
      ("n", Jsonl.Str s.Span.name);
      ("t0", Jsonl.Int (Int64.to_int s.Span.t0_ns));
      ("d", Jsonl.Int (Int64.to_int s.Span.dur_ns));
      ("dm", Jsonl.Int s.Span.domain);
      ("tk", Jsonl.Int s.Span.task);
      ("f", Jsonl.Int s.Span.flow);
      ("fn", Jsonl.Int s.Span.flow_n);
    ]

let span_of_json j =
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  match
    ( (str "c", str "n", int "t0", int "d"),
      (int "dm", int "tk", int "f", int "fn") )
  with
  | ( (Some cat, Some name, Some t0, Some d),
      (Some domain, Some task, Some flow, Some flow_n) ) ->
      Some
        {
          Span.cat;
          name;
          t0_ns = Int64.of_int t0;
          dur_ns = Int64.of_int d;
          domain;
          task;
          flow;
          flow_n;
        }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Aggregator state                                                    *)
(* ------------------------------------------------------------------ *)

type wstate = {
  w : int;
  mutable host : string;
  mutable pid : int;
  mutable alive : bool;
  mutable cells : int;
  mutable last_ns : int64;
  (* fresh streamed cells sampled once a second: a burst arriving inside
     one socket drain cannot inflate the rate the way per-cell
     inter-arrival deltas would *)
  rate : int Series.t;
  mutable queue_depth : int;  (** from the last beat *)
  mutable rss_kb : int;  (** from the last beat *)
  mutable stage_us : (string * int) list;  (** tally of shipped spans *)
  mutable leases : (int * int64) list;  (** lease id -> grant time *)
  lease_ms : int Series.t;  (** recent grant-to-done latencies *)
  mutable spans_rev : Span.t list;
  metrics_seen : (string, int) Hashtbl.t;
  mutable frames_in : int;
  mutable bytes_in : int;
  mutable frames_out : int;
  mutable bytes_out : int;
}

type t = {
  m : Mutex.t;
  total : int;
  t0_ns : int64;
  workers : (int, wstate) Hashtbl.t;
  mutable local_cells : int;
}

let stale_ms = 10_000
let straggler_pct = 50
let lease_window = 64

let create ~total ~now () =
  {
    m = Mutex.create ();
    total;
    t0_ns = now;
    workers = Hashtbl.create 8;
    local_cells = 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

let state t ~worker ~now =
  match Hashtbl.find_opt t.workers worker with
  | Some st -> st
  | None ->
      let st =
        {
          w = worker;
          host = "?";
          pid = 0;
          alive = true;
          cells = 0;
          last_ns = now;
          rate = Series.rate_window ();
          queue_depth = 0;
          rss_kb = 0;
          stage_us = [];
          leases = [];
          lease_ms = Series.create ~capacity:lease_window ~interval_ns:0L;
          spans_rev = [];
          metrics_seen = Hashtbl.create 32;
          frames_in = 0;
          bytes_in = 0;
          frames_out = 0;
          bytes_out = 0;
        }
      in
      Hashtbl.replace t.workers worker st;
      st

(* every sign of life samples the cell count, so an idle worker's rate
   falls to 0 once its last cell leaves the window — exactly the
   straggler signal we want *)
let sample st now = Series.push st.rate ~now st.cells

let on_join t ~worker ~pid ~host ~now =
  locked t (fun () ->
      let st = state t ~worker ~now in
      st.host <- host;
      st.pid <- pid;
      st.alive <- true;
      st.last_ns <- now)

let on_leave t ~worker ~now =
  locked t (fun () ->
      let st = state t ~worker ~now in
      st.alive <- false;
      st.leases <- [])

let on_beat t ~worker ~now ~queue_depth ~rss_kb =
  locked t (fun () ->
      let st = state t ~worker ~now in
      st.last_ns <- now;
      st.queue_depth <- queue_depth;
      st.rss_kb <- rss_kb;
      sample st now)

let on_cell t ~worker ~now =
  locked t (fun () ->
      let st = state t ~worker ~now in
      st.cells <- st.cells + 1;
      st.last_ns <- now;
      sample st now)

let on_lease t ~worker ~lease_id ~cells:_ ~now =
  locked t (fun () ->
      let st = state t ~worker ~now in
      st.leases <- (lease_id, now) :: List.remove_assoc lease_id st.leases)

let lease_hist = lazy (Metrics.histogram "fleet.lease_ms")

let on_done t ~worker ~lease_id ~now =
  locked t (fun () ->
      let st = state t ~worker ~now in
      st.last_ns <- now;
      match List.assoc_opt lease_id st.leases with
      | None -> ()
      | Some granted ->
          st.leases <- List.remove_assoc lease_id st.leases;
          let ms =
            Int64.to_int (Int64.div (Int64.sub now granted) 1_000_000L)
          in
          Series.push st.lease_ms ~now ms;
          Metrics.observe (Lazy.force lease_hist) ms)

let on_metrics t ~worker counters =
  locked t (fun () ->
      let st = state t ~worker ~now:0L in
      List.iter
        (fun (name, v) ->
          let prev =
            Option.value ~default:0 (Hashtbl.find_opt st.metrics_seen name)
          in
          Hashtbl.replace st.metrics_seen name v;
          let delta = v - prev in
          if delta > 0 then Metrics.add (Metrics.counter ("fleet." ^ name)) delta)
        counters)

let add_spans t ~worker spans =
  locked t (fun () ->
      let st = state t ~worker ~now:0L in
      st.spans_rev <- List.rev_append spans st.spans_rev;
      st.stage_us <- Span.tally (Span.stage_us spans @ st.stage_us))

let note_local t n = locked t (fun () -> t.local_cells <- t.local_cells + n)

let set_wire t ~worker ~frames_in ~bytes_in ~frames_out ~bytes_out =
  locked t (fun () ->
      let st = state t ~worker ~now:0L in
      st.frames_in <- frames_in;
      st.bytes_in <- bytes_in;
      st.frames_out <- frames_out;
      st.bytes_out <- bytes_out)

let sorted_states t =
  List.sort
    (fun a b -> compare a.w b.w)
    (Hashtbl.fold (fun _ st acc -> st :: acc) t.workers [])

let span_groups t =
  locked t (fun () ->
      List.filter_map
        (fun st ->
          match st.spans_rev with
          | [] -> None
          | spans ->
              Some
                ( Printf.sprintf "worker %d (%s, pid %d)" st.w st.host st.pid,
                  List.rev spans ))
        (sorted_states t))

(* ------------------------------------------------------------------ *)
(* Snapshots                                                           *)
(* ------------------------------------------------------------------ *)

type row = {
  worker : int;
  host : string;
  pid : int;
  alive : bool;
  cells : int;
  rate_milli : int;
  queue_depth : int;
  rss_kb : int;
  leases : int;
  lease_p50_ms : int;
  lease_p90_ms : int;
  last_ms : int;
  frames_in : int;
  bytes_in : int;
  frames_out : int;
  bytes_out : int;
  straggler : bool;
}

type snapshot = {
  total : int;
  collected : int;
  in_flight : int;
  elapsed_ms : int;
  fleet_milli : int;
  eta_ms : int;
  local_cells : int;
  stage_us : (string * int) list;
  stragglers : int list;
  rows : row list;
}

let snapshot t ~now ~collected ~in_flight =
  locked t (fun () ->
      let states = sorted_states t in
      List.iter (fun st -> sample st now) states;
      let rate (st : wstate) = Series.rate_milli st.rate ~now st.cells in
      let rates =
        List.filter_map
          (fun (st : wstate) ->
            let r = rate st in
            if st.alive && r > 0 then Some r else None)
          states
      in
      let median =
        match List.sort compare rates with
        | [] -> 0
        | sorted -> List.nth sorted (List.length sorted / 2)
      in
      let stale (st : wstate) =
        Int64.compare (Int64.sub now st.last_ns)
          (Int64.mul (Int64.of_int stale_ms) 1_000_000L)
        >= 0
      in
      let is_straggler (st : wstate) =
        st.alive
        && ((st.leases <> [] && stale st)
           || (List.length rates >= 2
              && rate st * 100 < straggler_pct * median))
      in
      let rows =
        List.map
          (fun (st : wstate) ->
            let lease_pct p =
              Option.value ~default:0 (Series.percentile st.lease_ms p)
            in
            {
              worker = st.w;
              host = st.host;
              pid = st.pid;
              alive = st.alive;
              cells = st.cells;
              rate_milli = rate st;
              queue_depth = st.queue_depth;
              rss_kb = st.rss_kb;
              leases = List.length st.leases;
              lease_p50_ms = lease_pct 50;
              lease_p90_ms = lease_pct 90;
              last_ms =
                Int64.to_int
                  (Int64.div (Int64.sub now st.last_ns) 1_000_000L);
              frames_in = st.frames_in;
              bytes_in = st.bytes_in;
              frames_out = st.frames_out;
              bytes_out = st.bytes_out;
              straggler = is_straggler st;
            })
          states
      in
      let fleet_milli =
        List.fold_left
          (fun acc (st : wstate) -> if st.alive then acc + rate st else acc)
          0 states
      in
      let remaining = t.total - collected in
      let eta_ms =
        if remaining <= 0 then 0
        else if fleet_milli > 0 then remaining * 1_000_000 / fleet_milli
        else -1
      in
      let stage_us =
        Span.tally (List.concat_map (fun (st : wstate) -> st.stage_us) states)
      in
      {
        total = t.total;
        collected;
        in_flight;
        elapsed_ms = Int64.to_int (Int64.div (Int64.sub now t.t0_ns) 1_000_000L);
        fleet_milli;
        eta_ms;
        local_cells = t.local_cells;
        stage_us;
        stragglers =
          List.filter_map
            (fun r -> if r.straggler then Some r.worker else None)
            rows;
        rows;
      })

(* ------------------------------------------------------------------ *)
(* Status line codec                                                   *)
(* ------------------------------------------------------------------ *)

let status_version = 2

let stage_json stages =
  Jsonl.Obj (List.map (fun (cat, us) -> (cat, Jsonl.Int us)) stages)

let stage_of_json = function
  | Some (Jsonl.Obj fields) ->
      let parsed =
        List.filter_map
          (fun (cat, v) -> Option.map (fun us -> (cat, us)) (Jsonl.get_int v))
          fields
      in
      if List.length parsed = List.length fields then Some parsed else None
  | _ -> None

let row_to_json r =
  Jsonl.Obj
    [
      ("w", Jsonl.Int r.worker);
      ("host", Jsonl.Str r.host);
      ("pid", Jsonl.Int r.pid);
      ("alive", Jsonl.Bool r.alive);
      ("cells", Jsonl.Int r.cells);
      ("rate_milli", Jsonl.Int r.rate_milli);
      ("queue", Jsonl.Int r.queue_depth);
      ("rss_kb", Jsonl.Int r.rss_kb);
      ("leases", Jsonl.Int r.leases);
      ("lease_p50_ms", Jsonl.Int r.lease_p50_ms);
      ("lease_p90_ms", Jsonl.Int r.lease_p90_ms);
      ("last_ms", Jsonl.Int r.last_ms);
      ("frames_in", Jsonl.Int r.frames_in);
      ("bytes_in", Jsonl.Int r.bytes_in);
      ("frames_out", Jsonl.Int r.frames_out);
      ("bytes_out", Jsonl.Int r.bytes_out);
      ("straggler", Jsonl.Bool r.straggler);
    ]

let row_of_json j =
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  let bool name =
    match Jsonl.member name j with Some (Jsonl.Bool b) -> Some b | _ -> None
  in
  match
    ( (int "w", str "host", int "pid", bool "alive", int "cells"),
      (int "rate_milli", int "queue", int "rss_kb"),
      (int "leases", int "lease_p50_ms", int "lease_p90_ms", int "last_ms"),
      (int "frames_in", int "bytes_in", int "frames_out", int "bytes_out"),
      bool "straggler" )
  with
  | ( (Some worker, Some host, Some pid, Some alive, Some cells),
      (Some rate_milli, Some queue_depth, Some rss_kb),
      (Some leases, Some lease_p50_ms, Some lease_p90_ms, Some last_ms),
      (Some frames_in, Some bytes_in, Some frames_out, Some bytes_out),
      Some straggler ) ->
      Some
        {
          worker;
          host;
          pid;
          alive;
          cells;
          rate_milli;
          queue_depth;
          rss_kb;
          leases;
          lease_p50_ms;
          lease_p90_ms;
          last_ms;
          frames_in;
          bytes_in;
          frames_out;
          bytes_out;
          straggler;
        }
  | _ -> None

let snapshot_fields ~campaign ~phase s =
  [
    ("v", Jsonl.Int status_version);
    ("campaign", Jsonl.Str campaign);
    ("phase", Jsonl.Str phase);
    ("total", Jsonl.Int s.total);
    ("collected", Jsonl.Int s.collected);
    ("in_flight", Jsonl.Int s.in_flight);
    ("elapsed_ms", Jsonl.Int s.elapsed_ms);
    ("rate_milli", Jsonl.Int s.fleet_milli);
    ("eta_ms", Jsonl.Int s.eta_ms);
    ("local_cells", Jsonl.Int s.local_cells);
    ("stage_us", stage_json s.stage_us);
    ("stragglers", Jsonl.List (List.map (fun w -> Jsonl.Int w) s.stragglers));
    ("workers", Jsonl.List (List.map row_to_json s.rows));
  ]

let snapshot_to_line ~campaign ~phase s =
  Jsonl.encode_line (snapshot_fields ~campaign ~phase s)

let snapshot_to_json ~campaign ~phase s =
  Jsonl.Obj (snapshot_fields ~campaign ~phase s)

let snapshot_of_line line =
  match Jsonl.decode_line line with
  | Error e -> Error e
  | Ok fields -> (
      let j = Jsonl.Obj fields in
      let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
      let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
      match int "v" with
      | Some v when v <> status_version ->
          Error
            (Printf.sprintf "status version %d, this build reads %d" v
               status_version)
      | None -> Error "status: missing version"
      | Some _ -> (
          let rows =
            match Jsonl.member "workers" j with
            | Some (Jsonl.List l) ->
                let rows = List.filter_map row_of_json l in
                if List.length rows = List.length l then Some rows else None
            | _ -> None
          in
          let stragglers =
            match Jsonl.member "stragglers" j with
            | Some (Jsonl.List l) ->
                let ws = List.filter_map Jsonl.get_int l in
                if List.length ws = List.length l then Some ws else None
            | _ -> None
          in
          match
            ( (str "campaign", str "phase", int "total", int "collected"),
              (int "in_flight", int "elapsed_ms", int "rate_milli", int "eta_ms"),
              (int "local_cells", stage_of_json (Jsonl.member "stage_us" j)),
              (stragglers, rows) )
          with
          | ( (Some campaign, Some phase, Some total, Some collected),
              (Some in_flight, Some elapsed_ms, Some fleet_milli, Some eta_ms),
              (Some local_cells, Some stage_us),
              (Some stragglers, Some rows) ) ->
              Ok
                ( campaign,
                  phase,
                  {
                    total;
                    collected;
                    in_flight;
                    elapsed_ms;
                    fleet_milli;
                    eta_ms;
                    local_cells;
                    stage_us;
                    stragglers;
                    rows;
                  } )
          | _ -> Error "status: malformed snapshot"))

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let rate_string milli = Printf.sprintf "%d.%d" (milli / 1000) (milli mod 1000 / 100)

let bytes_string b =
  if b >= 1_048_576 then Printf.sprintf "%.1fMB" (float_of_int b /. 1048576.)
  else if b >= 1024 then Printf.sprintf "%.1fkB" (float_of_int b /. 1024.)
  else Printf.sprintf "%dB" b

let to_table ~campaign ~phase s =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf
       "fleet: %s  phase %s  %d/%d cells (%d in flight)  %s cells/s  ETA %s  \
        elapsed %s\n"
       campaign phase s.collected s.total s.in_flight
       (rate_string s.fleet_milli)
       (Mclock.duration_string s.eta_ms)
       (Mclock.duration_string s.elapsed_ms));
  Buffer.add_string b
    (Printf.sprintf "%6s  %-16s %7s  %-9s %7s %8s %6s %7s %7s %14s %7s %17s\n"
       "worker" "host" "pid" "state" "cells" "cells/s" "queue" "rss_mb"
       "leases" "lease p50/p90" "beat" "wire in/out");
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf
           "%6d  %-16s %7d  %-9s %7d %8s %6d %7d %7d %14s %7s %17s\n" r.worker
           r.host r.pid
           (if not r.alive then "gone"
            else if r.straggler then "straggler"
            else "live")
           r.cells (rate_string r.rate_milli) r.queue_depth (r.rss_kb / 1024)
           r.leases
           (Printf.sprintf "%s/%s"
              (Mclock.duration_string r.lease_p50_ms)
              (Mclock.duration_string r.lease_p90_ms))
           (Mclock.duration_string r.last_ms)
           (Printf.sprintf "%s/%s" (bytes_string r.bytes_in)
              (bytes_string r.bytes_out))))
    s.rows;
  (match s.stragglers with
  | [] -> ()
  | ws ->
      Buffer.add_string b
        (Printf.sprintf "stragglers: %s\n"
           (String.concat "," (List.map string_of_int ws))));
  (match s.stage_us with
  | [] -> ()
  | stages ->
      Buffer.add_string b
        (Printf.sprintf "stages: %s\n"
           (String.concat "  "
              (List.map
                 (fun (cat, us) ->
                   Printf.sprintf "%s %s" cat (Mclock.duration_string (us / 1000)))
                 stages))));
  if s.local_cells > 0 then
    Buffer.add_string b
      (Printf.sprintf "local: %d cells outside worker attribution\n"
         s.local_cells);
  Buffer.contents b
