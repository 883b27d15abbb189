type ('a, 'r) verdict = Accept of 'a | Reject of 'r

let collect pool ~n ~seed0 ~classify =
  (* a batch never outnumbers the acceptances still needed, so the seeds
     classified are exactly the sequential loop's: [seed0] up to the n-th
     acceptance, whatever the pool size *)
  let rec go seed acc rejects need =
    if need <= 0 then (List.rev acc, List.rev rejects)
    else
      let batch = min need (max 8 (2 * Pool.jobs pool)) in
      let verdicts =
        Pool.map pool
          ~f:(fun s -> classify ~seed:s)
          (List.init batch (fun i -> seed + i))
      in
      let acc, rejects, need =
        List.fold_left
          (fun (acc, rejects, need) -> function
            | Accept a -> (a :: acc, rejects, need - 1)
            | Reject r -> (acc, r :: rejects, need))
          (acc, rejects, need) verdicts
      in
      go (seed + batch) acc rejects need
  in
  go seed0 [] [] n

let count rejects ~tag = List.length (List.filter (fun r -> r = tag) rejects)

(* ------------------------------------------------------------------ *)
(* Deterministic campaign metrics                                      *)
(* ------------------------------------------------------------------ *)

(* These totals are fed exclusively from the fixed (kernel, config, opt)
   cell grid — never from [collect]'s classification runs, which a resume
   partly skips — so they are [-j]-invariant and resume-invariant. *)
let m_cells = Metrics.counter "cells.completed"
let m_steps = Metrics.counter "interp.steps"
let m_barriers = Metrics.counter "interp.barriers"
let m_atomics = Metrics.counter "interp.atomics"
let m_race_checks = Metrics.counter "interp.race_checks"
let h_steps = Metrics.histogram "interp.steps_per_cell"

let outcome_counter =
  let by_tag =
    List.map
      (fun tag -> (tag, Metrics.counter ("outcomes." ^ tag)))
      [ "ok"; "bf"; "c"; "to"; "mc"; "ub" ]
  in
  fun o -> List.assoc (Outcome.short_tag o) by_tag

let record_cell (st : Interp.stats) outcomes =
  Metrics.incr m_cells;
  Metrics.add m_steps st.Interp.steps;
  Metrics.add m_barriers st.Interp.barriers;
  Metrics.add m_atomics st.Interp.atomics;
  Metrics.add m_race_checks st.Interp.race_checks;
  Metrics.observe h_steps st.Interp.steps;
  List.iter Costprof.record st.Interp.prof;
  List.iter (fun o -> Metrics.incr (outcome_counter o)) outcomes

let bucket_counter =
  let by_bucket =
    List.map
      (fun b -> (b, Metrics.counter ("cells.class." ^ Majority.bucket_name b)))
      [ Majority.B_wrong; B_ok; B_bf; B_crash; B_timeout ]
  in
  fun b -> List.assoc b by_bucket

(* ------------------------------------------------------------------ *)
(* The cell engine                                                     *)
(* ------------------------------------------------------------------ *)

(* The ordered merge. [lookup i] replays task [i] (it never reaches the
   pool); [sink] sees the merged sequence in task order: a fresh result
   at index i is only emitted once every cell before i is available,
   and replayed cells ride along in the same prefix flush. *)
let run_resumable pool ?sink ~lookup ~f ~on_error tasks =
  let n = Array.length tasks in
  let results = Array.init n lookup in
  let missing =
    List.filter (fun i -> results.(i) = None) (List.init n Fun.id)
  in
  let missing_arr = Array.of_list missing in
  let next = ref 0 in
  let flush () =
    match sink with
    | None -> ()
    | Some emit ->
        while !next < n && results.(!next) <> None do
          (match results.(!next) with
          | Some r -> emit !next r
          | None -> assert false);
          incr next
        done
  in
  flush ();
  let on_result =
    Option.map
      (fun _ mi r ->
        results.(missing_arr.(mi)) <- Some r;
        flush ())
      sink
  in
  let fresh =
    Pool.map_isolated ?on_result pool ~f:(fun i -> f i tasks.(i)) ~on_error
      missing
  in
  List.iter2 (fun i r -> results.(i) <- Some r) missing fresh;
  flush ();
  Array.map (function Some r -> r | None -> assert false) results

type engine = {
  pool : Pool.t;
  sink : (Journal.cell -> unit) option;
  replay : (string * int * int * string, Journal.cell) Hashtbl.t option;
  keep : (int -> bool) option;
  mutable next : int;  (** global index of the next batch's first cell *)
}

let replayed e key = Option.bind e.replay (fun tbl -> Hashtbl.find_opt tbl key)

let engine ?sink ?resume ?exec_filter pool =
  let replay =
    match resume with
    | None | Some [] -> None
    | Some cells -> Some (Journal.index_cells cells)
  in
  { pool; sink; replay; keep = exec_filter; next = 0 }

type ('a, 'r) codec = {
  outcomes : 'r -> Outcome.t list;
  note : 'a -> 'r -> Interp.stats -> string;
  decode : Journal.cell -> ('r * Interp.stats) option;
  crash : Outcome.t -> 'r;
}

let skipped = Outcome.Crash "skipped: outside shard"

let crash_of_exn e =
  Outcome.Crash ("harness: uncaught exception: " ^ Printexc.to_string e)

let cells e codec ~key ~f tasks =
  let tasks = Array.of_list tasks in
  let base = e.next in
  e.next <- base + Array.length tasks;
  let kept i = match e.keep with None -> true | Some keep -> keep (base + i) in
  (* a distributed worker executes only its leased shard: every other
     non-replayed cell degrades to an instant placeholder *)
  let lookup i =
    match Option.bind (replayed e (key tasks.(i))) codec.decode with
    | None when not (kept i) -> Some (codec.crash skipped, Interp.zero_stats)
    | r -> r
  in
  let sink =
    Option.map
      (fun emit i (r, st) ->
        let mode, seed, config, opt = key tasks.(i) in
        emit
          {
            Journal.index = base + i;
            seed;
            mode;
            config;
            opt;
            outcomes = codec.outcomes r;
            note = codec.note tasks.(i) r st;
          })
      e.sink
  in
  let results =
    run_resumable e.pool ?sink ~lookup
      ~f:(fun i t -> f (base + i) t)
      ~on_error:(fun ex -> (codec.crash (crash_of_exn ex), Interp.zero_stats))
      tasks
  in
  (* metrics fold over the merged results in task order: a replayed cell
     counts its outcomes and the work its record carries; a filtered run
     counts only the cells its filter keeps *)
  List.mapi
    (fun i (r, st) ->
      if kept i then record_cell st (codec.outcomes r);
      r)
    (Array.to_list results)

type 'a held = { value : 'a option Atomic.t; left : int Atomic.t }

let hold ~cells v = { value = Atomic.make (Some v); left = Atomic.make cells }

let use h f =
  match Atomic.get h.value with
  | None -> invalid_arg "Par.use: value already dropped"
  | Some v ->
      Fun.protect
        ~finally:(fun () ->
          if Atomic.fetch_and_add h.left (-1) = 1 then Atomic.set h.value None)
        (fun () -> f v)

let vote e outcomes =
  let majority =
    Span.with_ ~cat:"vote" "vote" (fun () -> Majority.majority_output outcomes)
  in
  List.map
    (fun o ->
      let b = Majority.bucket_of ~majority o in
      if Option.is_none e.keep then Metrics.incr (bucket_counter b);
      b)
    outcomes

let tally e counter n = if Option.is_none e.keep then Metrics.add counter n

let chunk size xs =
  let rec take k acc = function
    | rest when k = 0 -> (List.rev acc, rest)
    | [] -> (List.rev acc, [])
    | x :: rest -> take (k - 1) (x :: acc) rest
  in
  let rec go acc = function
    | [] -> List.rev acc
    | xs ->
        let c, rest = take size [] xs in
        go (c :: acc) rest
  in
  if size <= 0 then invalid_arg "Par.chunk" else go [] xs
