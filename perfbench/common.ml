(* Shared plumbing of the workloads: clocks, files, seeded order, the
   recorded references and the result record every workload returns. *)

let now_ns = Mclock.now_ns
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9
let us_of_ns d = Int64.to_float d /. 1000.

let rec mkdir_p d =
  if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (EEXIST, _, _) -> ()
  end

let digest_file path = Digest.to_hex (Digest.file path)
let digest_string s = Digest.to_hex (Digest.string s)

(* the seed's order over [n] pool units (Fisher-Yates) *)
let permutation ~seed n =
  let st = Random.State.make [| 0x5eed; seed |] in
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* VmHWM of a process ("self" or a pid), in MiB *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> 0.
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> 0.
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.)
        | _ -> scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* CPU seconds of a live single-threaded process: the nanosecond
   on-CPU time of /proc/PID/schedstat *)
let proc_cpu_s pid =
  match open_in (Printf.sprintf "/proc/%d/schedstat" pid) with
  | exception Sys_error _ -> 0.
  | ic ->
      let ns = Scanf.sscanf (input_line ic) "%Ld" Fun.id in
      close_in ic;
      Int64.to_float ns /. 1e9

(* CPU seconds of this process plus its waited-for children *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime +. t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ---- recorded references: "KIND KEY FIELD..." lines in refs.txt ---- *)

let refs_path = "perfbench/refs.txt"

let load_refs () =
  match open_in refs_path with
  | exception Sys_error _ -> Hashtbl.create 1
  | ic ->
      let t = Hashtbl.create 64 in
      (try
         while true do
           match String.split_on_char ' ' (String.trim (input_line ic)) with
           | kind :: key :: fields when kind <> "#" -> Hashtbl.replace t (kind, key) fields
           | _ -> ()
         done
       with End_of_file -> ());
      close_in ic;
      t

let refs = lazy (load_refs ())
let reference kind key = Hashtbl.find_opt (Lazy.force refs) (kind, key)

(* ---- what a workload run reports ---- *)

type metric = { name : string; value : float; unit : string }

type result = {
  attempted : int;
  failed : int;
  correct : bool;
  metrics : metric list;  (** end-to-end (untraced) or per-layer (traced) *)
  lines : string list;  (** human-readable report, printed before the result *)
}

let m name unit value = { name; value; unit }

(* time-to-first-unit samples and per-unit wall clocks of a batch run *)
type batch = {
  mutable cells : int;
  mutable failed_cells : int;
  mutable setups : (string * float) list;  (** (unit, s) *)
  mutable gaps_us : float list;  (** time between consecutive cells *)
  mutable first_cell : int64 option;
  mutable last_cell : int64;
  mutable checks : (string * bool) list;  (** (unit, output = reference) *)
}

let batch () =
  {
    cells = 0;
    failed_cells = 0;
    setups = [];
    gaps_us = [];
    first_cell = None;
    last_cell = 0L;
    checks = [];
  }

(* a cell whose harness code raised is the one per-cell failure *)
let harness_failure (o : Outcome.t) =
  match o with
  | Outcome.Crash msg -> String.starts_with ~prefix:"harness: " msg
  | _ -> false

(* account one completed cell of [unit]; [unit_start] is when the unit
   began and [prev] the previous cell's completion in it, if any *)
let note_cell b ~unit ~unit_start ~prev outcomes =
  let t = now_ns () in
  (match !prev with
  | None -> b.setups <- (unit, secs_since unit_start) :: b.setups
  | Some p -> b.gaps_us <- us_of_ns (Int64.sub t p) :: b.gaps_us);
  prev := Some t;
  if b.first_cell = None then b.first_cell <- Some t;
  b.last_cell <- t;
  b.cells <- b.cells + 1;
  if List.exists harness_failure outcomes then b.failed_cells <- b.failed_cells + 1

let cells_per_s b =
  match b.first_cell with
  | None -> 0.
  | Some t0 ->
      let dt = Int64.to_float (Int64.sub b.last_cell t0) /. 1e9 in
      if dt <= 0. then 0. else float_of_int (b.cells - 1) /. dt

(* the end-to-end metrics every workload reports, in BENCHMARK.json order.
   throughput is work per CPU-second of the processes that do the work:
   on a shared 2-vCPU host the wall clock of a multi-process or
   multi-domain workload wanders by more than any useful bound, and its
   CPU time by much less. Wall-clock rates are printed beside it. *)
let e2e ~setup_s ~throughput ~peak_rss_mb =
  [ m "setup_s" "s" setup_s; m "throughput" "1/s" throughput; m "peak_rss_mb" "MiB" peak_rss_mb ]

(* the set-up time of a batch run: the mean over units of each unit's
   median set-up. Units differ in set-up cost, so a plain median over
   all samples jumps between units from run to run; this mean keeps
   every unit in and the noise of each averaged out. *)
let setup_per_unit b =
  List.map
    (fun u -> (u, Stats.median (List.filter_map (fun (k, s) -> if k = u then Some s else None) b.setups)))
    (List.sort_uniq compare (List.map fst b.setups))

let setup_s b =
  match setup_per_unit b with
  | [] -> 0.
  | l -> List.fold_left (fun a (_, s) -> a +. s) 0. l /. float_of_int (List.length l)

(* [cpu] is the CPU seconds of the processes that ran the cells *)
let batch_result ~what b ~rss ~cpu =
  let failed_units = List.filter (fun (_, ok) -> not ok) b.checks in
  let correct = b.checks <> [] && failed_units = [] in
  (* every operation of a run whose checked output differs counts *)
  let failed = if correct then b.failed_cells else b.cells in
  let gaps = Stats.summarize b.gaps_us in
  let setup = Stats.summarize (List.map snd b.setups) in
  let per_unit = setup_per_unit b in
  let per_cpu_s = if cpu > 0. then float_of_int b.cells /. cpu else 0. in
  {
    attempted = max 1 b.cells;
    failed;
    correct;
    metrics = e2e ~setup_s:(setup_s b) ~throughput:per_cpu_s ~peak_rss_mb:rss;
    lines =
      [
        Printf.sprintf "throughput: %.2f cells per CPU-second (%d cells, %.2f CPU-s)" per_cpu_s b.cells cpu;
        Printf.sprintf "cells_per_s: %.2f cells/s (wall, first cell to last)" (cells_per_s b);
        Printf.sprintf "setup_s: %.4g s (time to the first cell of a unit: mean over %d units of each unit's median)"
          (setup_s b) (List.length per_unit);
        "  per unit: " ^ String.concat ", " (List.map (fun (u, s) -> Printf.sprintf "%s %.4g" u s) per_unit);
        Stats.describe ~name:"  set-up samples" ~unit:"s" setup;
        Stats.describe ~name:"cell_us (time between journalled cells)" ~unit:"us" gaps;
        Printf.sprintf "peak_rss_mb: %.1f MiB (VmHWM of the %s process)" rss what;
        Printf.sprintf "error_rate: %d/%d = %.4f" failed (max 1 b.cells)
          (float_of_int failed /. float_of_int (max 1 b.cells));
        Printf.sprintf "correct: %b (%d units checked against refs, %d differ%s)" correct
          (List.length b.checks) (List.length failed_units)
          (match failed_units with
          | [] -> ""
          | l -> ": " ^ String.concat "," (List.map fst l));
      ];
  }
