let json_body j = Jsonl.to_string j

let ok_json j =
  Http.response ~status:200 ~content_type:"application/json"
    ~body:(json_body j) ()

let err status msg =
  Http.response ~status ~content_type:"application/json"
    ~body:(json_body (Jsonl.Obj [ ("error", Jsonl.Str msg) ]))
    ()

(* /corpus/<hash> *)
let corpus_item path =
  let prefix = "/corpus/" in
  let pn = String.length prefix in
  if String.length path > pn && String.sub path 0 pn = prefix then
    Some (String.sub path pn (String.length path - pn))
  else None

let handle_post store (r : Http.req) =
  match r.path with
  | "/kernel" -> (
      match Jsonl.of_string r.body with
      | Error e -> err 400 ("bad json: " ^ e)
      | Ok (Jsonl.Obj _ as j) -> (
          match Svstore.kernel_of_json j with
          | Some (e, text) -> (
              match Svstore.submit_kernel store e text with
              | Error m -> err 400 m
              | Ok added ->
                  ok_json
                    (Jsonl.Obj
                       [
                         ("added", Jsonl.Bool added);
                         ("hash", Jsonl.Str e.Corpus.hash);
                       ]))
          | None -> err 400 "kernel submission needs entry fields and text")
      | Ok _ -> err 400 "kernel submission must be an object")
  | "/claim" -> (
      match Svstore.claim store with
      | None -> Http.response ~status:204 ~body:"" ()
      | Some (e, text) ->
          ok_json (Jsonl.Obj (Svstore.kernel_fields e text)))
  | "/observation" -> (
      match Jsonl.of_string r.body with
      | Error e -> err 400 ("bad json: " ^ e)
      | Ok j -> (
          match Svstore.report_of_json j with
          | Some (cell, obs, cov) -> (
              let cov = Option.value ~default:[] cov in
              match Svstore.report_observation store ~cell ~obs ~cov with
              | Error m -> err 400 m
              | Ok (fresh, new_bits) ->
                  ok_json
                    (Jsonl.Obj
                       [
                         ("fresh", Jsonl.Bool fresh);
                         ("new_bits", Jsonl.Int new_bits);
                       ]))
          | None -> err 400 "observation needs a cell (obs and cov optional)"))
  | _ -> err 404 "no such endpoint"

(* Bounded label set for per-route metrics: every corpus item collapses
   to one label, unknown paths to "other", so request counters cannot
   grow without bound under adversarial paths. *)
let route_label path =
  match path with
  | "/kernel" -> "kernel"
  | "/claim" -> "claim"
  | "/observation" -> "observation"
  | "/healthz" -> "healthz"
  | "/bugs" -> "bugs"
  | "/coverage" -> "coverage"
  | "/coverage/hex" -> "coverage_hex"
  | "/corpus" -> "corpus"
  | "/metrics" -> "metrics"
  | "/metrics.json" -> "metrics_json"
  | "/metrics/history" -> "metrics_history"
  | "/report" -> "report"
  | p -> if corpus_item p <> None then "corpus_item" else "other"

let handle_get ?history store (r : Http.req) =
  match r.path with
  | "/healthz" ->
      ok_json
        (Jsonl.Obj
           [
             ("ok", Jsonl.Bool true);
             ("kernels", Jsonl.Int (Svstore.kernel_count store));
             ("cells", Jsonl.Int (Svstore.cell_count store));
             ("cursor", Jsonl.Int (Svstore.cursor store));
           ])
  | "/bugs" ->
      let buckets = Svstore.buckets store in
      ok_json
        (Jsonl.Obj
           [
             ("count", Jsonl.Int (List.length buckets));
             ("buckets", Jsonl.List (List.map Triage.bucket_to_json buckets));
           ])
  | "/coverage" ->
      ok_json
        (Jsonl.Obj
           [
             ("bits", Jsonl.Int (Svstore.coverage_count store));
             ("size", Jsonl.Int Covmap.size);
           ])
  | "/coverage/hex" ->
      Http.response ~status:200 ~body:(Svstore.coverage_hex store) ()
  | "/corpus" ->
      let entries = Svstore.corpus store in
      ok_json
        (Jsonl.Obj
           [
             ("count", Jsonl.Int (List.length entries));
             ( "entries",
               Jsonl.List
                 (List.map (fun e -> Jsonl.Obj (Corpus.entry_fields e)) entries)
             );
           ])
  | "/metrics" ->
      Http.response ~status:200 ~body:(Metrics.to_prometheus ()) ()
  | "/metrics.json" -> ok_json (Metrics.to_json ())
  | "/metrics/history" -> (
      match history with
      | Some h -> ok_json (Svhistory.to_json h)
      | None -> err 404 "history not armed")
  | "/report" ->
      let html =
        Report_html.render ~header:(Svstore.header store)
          ~cells:(Svstore.cells store)
          ?history:(Option.map Svhistory.samples history)
          ()
      in
      Http.response ~status:200 ~content_type:"text/html" ~body:html ()
  | path -> (
      match corpus_item path with
      | Some hash -> (
          match Svstore.kernel store hash with
          | Some text -> Http.response ~status:200 ~body:text ()
          | None -> err 404 "no kernel at that address")
      | None -> err 404 "no such endpoint")

let query_endpoint = function
  | "/healthz" | "/bugs" | "/coverage" | "/coverage/hex" | "/corpus"
  | "/metrics" | "/metrics.json" | "/metrics/history" | "/report" ->
      true
  | path -> corpus_item path <> None

let handle ?history store (r : Http.req) =
  match r.meth with
  | "GET" -> handle_get ?history store r
  | "POST" -> (
      match r.path with
      | "/kernel" | "/claim" | "/observation" -> handle_post store r
      | path when query_endpoint path -> err 405 "query endpoints are GET"
      | _ -> err 404 "no such endpoint")
  | _ -> err 405 "method not allowed"
