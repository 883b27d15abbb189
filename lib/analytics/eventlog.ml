let schema_version = 2

(* one worker's view inside a fleet_health event; a flat record rather
   than Fleet.row so the eventlog schema stays self-contained *)
type fleet_worker = {
  fw_worker : int;
  fw_cells : int;
  fw_rate_milli : int;
  fw_last_ms : int;
  fw_alive : bool;
  fw_straggler : bool;
}

type event =
  | Campaign_start of {
      campaign : string;
      ident : (string * string) list;
      scale : (string * string) list;
      total : int;
    }
  | Cell of {
      index : int;
      seed : int;
      mode : string;
      config : int;
      opt : string;
      cls : string;
    }
  | Generation of {
      gen : int;
      kernels : int;
      mutants : int;
      new_bits : int;
      coverage : int;
      corpus : int;
      findings : int;
      distinct_bugs : int;
    }
  | Coverage_delta of { gen : int; kernel : int; new_bits : int; total : int }
  | Triage_hit of {
      cls : string;
      config : int;
      opt : string;
      signature : string;
      seed : int;
      mode : string;
      hash : string;
    }
  | Pool_health of {
      worker : int;
      submitted : int;
      completed : int;
      in_flight : int;
      stalled_domains : int list;
    }
  | Stage_timing of (string * int) list
  | Watchdog of {
      level : string;
      completed : int;
      in_flight : int;
      stalled_domains : int list;
      idle_ms : int;
    }
  | Fleet_health of {
      total : int;
      collected : int;
      in_flight : int;
      fleet_milli : int;
      workers : fleet_worker list;
    }
  | Campaign_end of { cells : int }

let is_deterministic = function
  | Campaign_start _ | Cell _ | Generation _ | Coverage_delta _ | Triage_hit _
  | Campaign_end _ ->
      true
  | Pool_health _ | Stage_timing _ | Watchdog _ | Fleet_health _ -> false

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let params_json ps = Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Str v)) ps)
let ints_json is = Jsonl.List (List.map (fun i -> Jsonl.Int i) is)

let fields_of = function
  | Campaign_start { campaign; ident; scale; total } ->
      [
        ("e", Jsonl.Str "campaign_start");
        ("campaign", Jsonl.Str campaign);
        ("ident", params_json ident);
        ("scale", params_json scale);
        ("total", Jsonl.Int total);
      ]
  | Cell { index; seed; mode; config; opt; cls } ->
      [
        ("e", Jsonl.Str "cell");
        ("i", Jsonl.Int index);
        ("seed", Jsonl.Int seed);
        ("mode", Jsonl.Str mode);
        ("config", Jsonl.Int config);
        ("opt", Jsonl.Str opt);
        ("cls", Jsonl.Str cls);
      ]
  | Generation
      { gen; kernels; mutants; new_bits; coverage; corpus; findings;
        distinct_bugs } ->
      [
        ("e", Jsonl.Str "generation");
        ("gen", Jsonl.Int gen);
        ("kernels", Jsonl.Int kernels);
        ("mutants", Jsonl.Int mutants);
        ("new_bits", Jsonl.Int new_bits);
        ("coverage", Jsonl.Int coverage);
        ("corpus", Jsonl.Int corpus);
        ("findings", Jsonl.Int findings);
        ("distinct_bugs", Jsonl.Int distinct_bugs);
      ]
  | Coverage_delta { gen; kernel; new_bits; total } ->
      [
        ("e", Jsonl.Str "coverage_delta");
        ("gen", Jsonl.Int gen);
        ("kernel", Jsonl.Int kernel);
        ("new_bits", Jsonl.Int new_bits);
        ("total", Jsonl.Int total);
      ]
  | Triage_hit { cls; config; opt; signature; seed; mode; hash } ->
      [
        ("e", Jsonl.Str "triage_hit");
        ("cls", Jsonl.Str cls);
        ("config", Jsonl.Int config);
        ("opt", Jsonl.Str opt);
        ("sig", Jsonl.Str signature);
        ("seed", Jsonl.Int seed);
        ("mode", Jsonl.Str mode);
        ("hash", Jsonl.Str hash);
      ]
  | Pool_health { worker; submitted; completed; in_flight; stalled_domains } ->
      [
        ("e", Jsonl.Str "pool_health");
        ("worker", Jsonl.Int worker);
        ("submitted", Jsonl.Int submitted);
        ("completed", Jsonl.Int completed);
        ("in_flight", Jsonl.Int in_flight);
        ("stalled_domains", ints_json stalled_domains);
      ]
  | Stage_timing stages ->
      [
        ("e", Jsonl.Str "stage_timing");
        ( "stages_us",
          Jsonl.Obj (List.map (fun (cat, us) -> (cat, Jsonl.Int us)) stages) );
      ]
  | Watchdog { level; completed; in_flight; stalled_domains; idle_ms } ->
      [
        ("e", Jsonl.Str "watchdog");
        ("level", Jsonl.Str level);
        ("completed", Jsonl.Int completed);
        ("in_flight", Jsonl.Int in_flight);
        ("stalled_domains", ints_json stalled_domains);
        ("idle_ms", Jsonl.Int idle_ms);
      ]
  | Fleet_health { total; collected; in_flight; fleet_milli; workers } ->
      [
        ("e", Jsonl.Str "fleet_health");
        ("total", Jsonl.Int total);
        ("collected", Jsonl.Int collected);
        ("in_flight", Jsonl.Int in_flight);
        ("rate_milli", Jsonl.Int fleet_milli);
        ( "workers",
          Jsonl.List
            (List.map
               (fun fw ->
                 Jsonl.Obj
                   [
                     ("w", Jsonl.Int fw.fw_worker);
                     ("cells", Jsonl.Int fw.fw_cells);
                     ("rate_milli", Jsonl.Int fw.fw_rate_milli);
                     ("last_ms", Jsonl.Int fw.fw_last_ms);
                     ("alive", Jsonl.Bool fw.fw_alive);
                     ("straggler", Jsonl.Bool fw.fw_straggler);
                   ])
               workers) );
      ]
  | Campaign_end { cells } ->
      [ ("e", Jsonl.Str "campaign_end"); ("cells", Jsonl.Int cells) ]

let record e = ("v", Jsonl.Int schema_version) :: fields_of e
let encode e = Jsonl.encode_line (record e)

(* ------------------------------------------------------------------ *)
(* Decoding                                                            *)
(* ------------------------------------------------------------------ *)

let params_of = function
  | Some (Jsonl.Obj fields) ->
      let strs =
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Jsonl.get_str v))
          fields
      in
      if List.length strs = List.length fields then Some strs else None
  | _ -> None

let ints_of = function
  | Some (Jsonl.List l) ->
      let is = List.filter_map Jsonl.get_int l in
      if List.length is = List.length l then Some is else None
  | _ -> None

let event_of_fields fields =
  let j = Jsonl.Obj fields in
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  match int "v" with
  (* older schemas are a strict subset of this one: every v1 kind
     decodes unchanged, so accept 1..schema_version *)
  | Some v when v < 1 || v > schema_version ->
      Error (Printf.sprintf "schema version %d, this build reads <= %d" v schema_version)
  | None -> Error "missing schema version"
  | Some _ -> (
      let missing = Error "malformed event record" in
      match str "e" with
      | Some "campaign_start" -> (
          match
            ( str "campaign",
              params_of (Jsonl.member "ident" j),
              params_of (Jsonl.member "scale" j),
              int "total" )
          with
          | Some campaign, Some ident, Some scale, Some total ->
              Ok (Campaign_start { campaign; ident; scale; total })
          | _ -> missing)
      | Some "cell" -> (
          match
            (int "i", int "seed", str "mode", int "config", str "opt", str "cls")
          with
          | Some index, Some seed, Some mode, Some config, Some opt, Some cls ->
              Ok (Cell { index; seed; mode; config; opt; cls })
          | _ -> missing)
      | Some "generation" -> (
          match
            ( (int "gen", int "kernels", int "mutants", int "new_bits"),
              (int "coverage", int "corpus", int "findings", int "distinct_bugs") )
          with
          | ( (Some gen, Some kernels, Some mutants, Some new_bits),
              (Some coverage, Some corpus, Some findings, Some distinct_bugs) ) ->
              Ok
                (Generation
                   { gen; kernels; mutants; new_bits; coverage; corpus;
                     findings; distinct_bugs })
          | _ -> missing)
      | Some "coverage_delta" -> (
          match (int "gen", int "kernel", int "new_bits", int "total") with
          | Some gen, Some kernel, Some new_bits, Some total ->
              Ok (Coverage_delta { gen; kernel; new_bits; total })
          | _ -> missing)
      | Some "triage_hit" -> (
          match
            ( (str "cls", int "config", str "opt", str "sig"),
              (int "seed", str "mode", str "hash") )
          with
          | ( (Some cls, Some config, Some opt, Some signature),
              (Some seed, Some mode, Some hash) ) ->
              Ok (Triage_hit { cls; config; opt; signature; seed; mode; hash })
          | _ -> missing)
      | Some "pool_health" -> (
          match
            ( int "submitted", int "completed", int "in_flight",
              ints_of (Jsonl.member "stalled_domains" j) )
          with
          | Some submitted, Some completed, Some in_flight, Some stalled_domains
            ->
              (* the worker dimension arrived with the distributed fabric;
                 a record without it is a local pool snapshot *)
              let worker = Option.value ~default:(-1) (int "worker") in
              Ok
                (Pool_health
                   { worker; submitted; completed; in_flight; stalled_domains })
          | _ -> missing)
      | Some "stage_timing" -> (
          match Jsonl.member "stages_us" j with
          | Some (Jsonl.Obj stages) ->
              let parsed =
                List.filter_map
                  (fun (cat, v) -> Option.map (fun us -> (cat, us)) (Jsonl.get_int v))
                  stages
              in
              if List.length parsed = List.length stages then
                Ok (Stage_timing parsed)
              else missing
          | _ -> missing)
      | Some "watchdog" -> (
          match
            ( (str "level", int "completed", int "in_flight"),
              (ints_of (Jsonl.member "stalled_domains" j), int "idle_ms") )
          with
          | (Some level, Some completed, Some in_flight),
            (Some stalled_domains, Some idle_ms) ->
              Ok (Watchdog { level; completed; in_flight; stalled_domains; idle_ms })
          | _ -> missing)
      | Some "fleet_health" -> (
          let worker_of = function
            | Jsonl.Obj _ as wj -> (
                let wint name = Option.bind (Jsonl.member name wj) Jsonl.get_int in
                let wbool name =
                  match Jsonl.member name wj with
                  | Some (Jsonl.Bool b) -> Some b
                  | _ -> None
                in
                match
                  ( (wint "w", wint "cells", wint "rate_milli"),
                    (wint "last_ms", wbool "alive", wbool "straggler") )
                with
                | ( (Some fw_worker, Some fw_cells, Some fw_rate_milli),
                    (Some fw_last_ms, Some fw_alive, Some fw_straggler) ) ->
                    Some
                      { fw_worker; fw_cells; fw_rate_milli; fw_last_ms;
                        fw_alive; fw_straggler }
                | _ -> None)
            | _ -> None
          in
          let workers =
            match Jsonl.member "workers" j with
            | Some (Jsonl.List l) ->
                let ws = List.filter_map worker_of l in
                if List.length ws = List.length l then Some ws else None
            | _ -> None
          in
          match
            (int "total", int "collected", int "in_flight", int "rate_milli",
             workers)
          with
          | Some total, Some collected, Some in_flight, Some fleet_milli,
            Some workers ->
              Ok (Fleet_health { total; collected; in_flight; fleet_milli; workers })
          | _ -> missing)
      | Some "campaign_end" -> (
          match int "cells" with
          | Some cells -> Ok (Campaign_end { cells })
          | _ -> missing)
      | Some other -> Error (Printf.sprintf "unknown event kind %S" other)
      | None -> Error "missing event kind")

let decode line =
  match Jsonl.decode_line line with
  | Error e -> Error e
  | Ok fields -> event_of_fields fields

(* ------------------------------------------------------------------ *)
(* Writer and reader (framing and crash policy: Recordlog)             *)
(* ------------------------------------------------------------------ *)

type writer = { log : Recordlog.writer; wm : Mutex.t }

let create ~path = { log = Recordlog.create ~path; wm = Mutex.create () }

let emit w e =
  (* the mutex admits the one legitimate cross-domain producer — the
     watchdog — without ever reordering the submitting domain's
     deterministic stream *)
  Mutex.lock w.wm;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.wm)
    (fun () -> Recordlog.write w.log (record e))

let close w = Recordlog.close w.log

let load ~path =
  let f acc fields = Result.map (fun e -> e :: acc) (event_of_fields fields) in
  match Recordlog.fold ~path ~init:[] ~f with
  | Ok (events, torn) -> Ok (List.rev events, torn)
  | Error (Recordlog.Io m) -> Error m
  | Error (Recordlog.Bad (n, m)) -> Error (Printf.sprintf "event %d: %s" n m)
