let version = 1

type msg =
  | Hello of { proto : int; pid : int; host : string }
  | Welcome of { worker_id : int; spec : Spec.t; telemetry : bool }
  | Sync of { cells : Journal.cell list }
  | Lease of { lease_id : int; gen : int; lo : int; hi : int }
  | Cell of { lease_id : int; cell : Journal.cell }
  | Done of {
      lease_id : int;
      executed : int;
      spans : Span.t list;
      metrics : (string * int) list;
    }
  | Beat of Fleet.beat option
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
      (* the flag is only on the wire when set: the encoding of a
         telemetry-less welcome is unchanged from protocol birth *)
      [ ("m", Jsonl.Str "welcome"); ("worker", Jsonl.Int worker_id) ]
      @ (if telemetry then [ ("telemetry", Jsonl.Bool true) ] else [])
      @ [ ("spec", Spec.to_json spec) ]
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
  | Done { lease_id; executed; spans; metrics } ->
      (* empty payloads are omitted, keeping a plain done's bytes (and
         an old coordinator's view of it) unchanged *)
      [
        ("m", Jsonl.Str "done");
        ("lease", Jsonl.Int lease_id);
        ("executed", Jsonl.Int executed);
      ]
      @ (match spans with
        | [] -> []
        | spans ->
            [ ("spans", Jsonl.List (List.map Fleet.span_to_json spans)) ])
      @ (match metrics with
        | [] -> []
        | ms ->
            [
              ( "metrics",
                Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Int v)) ms) );
            ])
  | Beat None -> [ ("m", Jsonl.Str "beat") ]
  | Beat (Some b) -> [ ("m", Jsonl.Str "beat"); ("stats", Fleet.beat_to_json b) ]
  | Shutdown -> [ ("m", Jsonl.Str "shutdown") ]

let encode m = Jsonl.encode_line (fields_of m)

let decode line =
  match Jsonl.decode_line line with
  | Error e -> Error e
  | Ok fields -> (
      let j = Jsonl.Obj fields in
      let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
      let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
      let malformed = Error "malformed message" in
      match str "m" with
      | Some "hello" -> (
          match (int "proto", int "pid", str "host") with
          | Some proto, Some pid, Some host -> Ok (Hello { proto; pid; host })
          | _ -> malformed)
      | Some "welcome" -> (
          match (int "worker", Jsonl.member "spec" j) with
          | Some worker_id, Some spec_json -> (
              match Spec.of_json spec_json with
              | Ok spec ->
                  (* absent on old coordinators: telemetry off *)
                  let telemetry =
                    match Jsonl.member "telemetry" j with
                    | Some (Jsonl.Bool b) -> b
                    | _ -> false
                  in
                  Ok (Welcome { worker_id; spec; telemetry })
              | Error e -> Error e)
          | _ -> malformed)
      | Some "sync" -> (
          match Jsonl.member "cells" j with
          | Some (Jsonl.List l) ->
              let cells = List.filter_map Journal.cell_of_json l in
              if List.length cells = List.length l then Ok (Sync { cells })
              else malformed
          | _ -> malformed)
      | Some "lease" -> (
          match (int "lease", int "gen", int "lo", int "hi") with
          | Some lease_id, Some gen, Some lo, Some hi ->
              Ok (Lease { lease_id; gen; lo; hi })
          | _ -> malformed)
      | Some "cell" -> (
          match
            (int "lease", Option.bind (Jsonl.member "cell" j) Journal.cell_of_json)
          with
          | Some lease_id, Some cell -> Ok (Cell { lease_id; cell })
          | _ -> malformed)
      | Some "done" -> (
          match (int "lease", int "executed") with
          | Some lease_id, Some executed -> (
              let spans =
                match Jsonl.member "spans" j with
                | None -> Some []
                | Some (Jsonl.List l) ->
                    let ss = List.filter_map Fleet.span_of_json l in
                    if List.length ss = List.length l then Some ss else None
                | Some _ -> None
              in
              let metrics =
                match Jsonl.member "metrics" j with
                | None -> Some []
                | Some (Jsonl.Obj fields) ->
                    let ms =
                      List.filter_map
                        (fun (k, v) ->
                          Option.map (fun n -> (k, n)) (Jsonl.get_int v))
                        fields
                    in
                    if List.length ms = List.length fields then Some ms
                    else None
                | Some _ -> None
              in
              match (spans, metrics) with
              | Some spans, Some metrics ->
                  Ok (Done { lease_id; executed; spans; metrics })
              | _ -> malformed)
          | _ -> malformed)
      | Some "beat" -> (
          (* a bare beat is the original v1 encoding — liveness only *)
          match Jsonl.member "stats" j with
          | None -> Ok (Beat None)
          | Some stats -> (
              match Fleet.beat_of_json stats with
              | Ok b -> Ok (Beat (Some b))
              | Error e -> Error e))
      | Some "shutdown" -> Ok Shutdown
      | Some other -> Error (Printf.sprintf "unknown message kind %S" other)
      | None -> Error "missing message kind")
