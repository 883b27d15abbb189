let version = 2

type msg =
  | Hello of { proto : int; pid : int; host : string }
  | Welcome of { worker_id : int; spec : Spec.t; telemetry : bool }
  | Sync of { cells : Journal.cell list }
  | Lease of { lease_id : int; gen : int; lo : int; hi : int }
  | Cell of { lease_id : int; cell : Journal.cell }
  | Done of {
      lease_id : int;
      spans : Span.t list;
      metrics : (string * int) list;
    }
  | Beat of { queue_depth : int; rss_kb : int }
  | Shutdown

let fields_of = function
  | Hello { proto; pid; host } ->
      [
        ("m", Jsonl.Str "hello");
        ("proto", Jsonl.Int proto);
        ("pid", Jsonl.Int pid);
        ("host", Jsonl.Str host);
      ]
  | Welcome { worker_id; spec; telemetry } ->
      [
        ("m", Jsonl.Str "welcome");
        ("worker", Jsonl.Int worker_id);
        ("telemetry", Jsonl.Bool telemetry);
        ("spec", Spec.to_json spec);
      ]
  | Sync { cells } ->
      [
        ("m", Jsonl.Str "sync");
        ("cells", Jsonl.List (List.map Journal.cell_to_json cells));
      ]
  | Lease { lease_id; gen; lo; hi } ->
      [
        ("m", Jsonl.Str "lease");
        ("lease", Jsonl.Int lease_id);
        ("gen", Jsonl.Int gen);
        ("lo", Jsonl.Int lo);
        ("hi", Jsonl.Int hi);
      ]
  | Cell { lease_id; cell } ->
      [
        ("m", Jsonl.Str "cell");
        ("lease", Jsonl.Int lease_id);
        ("cell", Journal.cell_to_json cell);
      ]
  | Done { lease_id; spans; metrics } ->
      [
        ("m", Jsonl.Str "done");
        ("lease", Jsonl.Int lease_id);
        ("spans", Jsonl.List (List.map Fleet.span_to_json spans));
        ( "metrics",
          Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Int v)) metrics) );
      ]
  | Beat { queue_depth; rss_kb } ->
      [
        ("m", Jsonl.Str "beat");
        ("queue", Jsonl.Int queue_depth);
        ("rss_kb", Jsonl.Int rss_kb);
      ]
  | Shutdown -> [ ("m", Jsonl.Str "shutdown") ]

let encode m = Jsonl.encode_line (fields_of m)

(* every element decoded, or nothing *)
let all f l =
  let xs = List.filter_map f l in
  if List.length xs = List.length l then Some xs else None

let decode line =
  match Jsonl.decode_line line with
  | Error e -> Error e
  | Ok fields -> (
      let j = Jsonl.Obj fields in
      let mem name = Jsonl.member name j in
      let int name = Option.bind (mem name) Jsonl.get_int in
      let str name = Option.bind (mem name) Jsonl.get_str in
      let list name f =
        Option.bind (Option.bind (mem name) Jsonl.get_list) (all f)
      in
      let malformed = Error "malformed message" in
      match str "m" with
      | Some "hello" -> (
          match (int "proto", int "pid", str "host") with
          | Some proto, Some pid, Some host -> Ok (Hello { proto; pid; host })
          | _ -> malformed)
      | Some "welcome" -> (
          match
            ( int "worker",
              Option.bind (mem "telemetry") Jsonl.get_bool,
              mem "spec" )
          with
          | Some worker_id, Some telemetry, Some spec_json -> (
              match Spec.of_json spec_json with
              | Ok spec -> Ok (Welcome { worker_id; spec; telemetry })
              | Error e -> Error e)
          | _ -> malformed)
      | Some "sync" -> (
          match list "cells" Journal.cell_of_json with
          | Some cells -> Ok (Sync { cells })
          | None -> malformed)
      | Some "lease" -> (
          match (int "lease", int "gen", int "lo", int "hi") with
          | Some lease_id, Some gen, Some lo, Some hi ->
              Ok (Lease { lease_id; gen; lo; hi })
          | _ -> malformed)
      | Some "cell" -> (
          match (int "lease", Option.bind (mem "cell") Journal.cell_of_json) with
          | Some lease_id, Some cell -> Ok (Cell { lease_id; cell })
          | _ -> malformed)
      | Some "done" -> (
          let metrics =
            match mem "metrics" with
            | Some (Jsonl.Obj ms) ->
                all
                  (fun (k, v) -> Option.map (fun n -> (k, n)) (Jsonl.get_int v))
                  ms
            | _ -> None
          in
          match (int "lease", list "spans" Fleet.span_of_json, metrics) with
          | Some lease_id, Some spans, Some metrics ->
              Ok (Done { lease_id; spans; metrics })
          | _ -> malformed)
      | Some "beat" -> (
          match (int "queue", int "rss_kb") with
          | Some queue_depth, Some rss_kb -> Ok (Beat { queue_depth; rss_kb })
          | _ -> malformed)
      | Some "shutdown" -> Ok Shutdown
      | Some other -> Error (Printf.sprintf "unknown message kind %S" other)
      | None -> Error "missing message kind")
