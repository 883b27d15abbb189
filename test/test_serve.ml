(* The serve subsystem: HTTP codec edge cases, the admission policy under
   synthetic clocks, journal-backed store replay (including a torn tail),
   router responses, and a live daemon over a unix socket — concurrent
   clients, restart byte-identity, and overload shedding. *)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* --- HTTP codec ------------------------------------------------------- *)

let test_http_torn_request () =
  let d = Http.decoder () in
  let raw = "POST /kernel HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello" in
  (* one byte at a time: the decoder must hold `Awaiting until the final
     body byte lands, then produce exactly one request *)
  String.iteri
    (fun i c ->
      if i < String.length raw - 1 then begin
        Http.feed_string d (String.make 1 c);
        match Http.next d with
        | `Awaiting -> ()
        | `Req _ -> Alcotest.failf "complete request after %d/%d bytes" (i + 1)
                      (String.length raw)
        | `Error (s, m) -> Alcotest.failf "error %d (%s) on torn request" s m
      end)
    raw;
  Http.feed_string d (String.make 1 raw.[String.length raw - 1]);
  (match Http.next d with
  | `Req r ->
      Alcotest.(check string) "method" "POST" r.Http.meth;
      Alcotest.(check string) "path" "/kernel" r.Http.path;
      Alcotest.(check string) "body" "hello" r.Http.body
  | _ -> Alcotest.fail "no request after final byte");
  Alcotest.(check int) "buffer drained" 0 (Http.buffered d)

let test_http_pipelined () =
  let d = Http.decoder () in
  Http.feed_string d
    "GET /healthz HTTP/1.1\r\n\r\nPOST /claim HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}";
  (match Http.next d with
  | `Req r -> Alcotest.(check string) "first path" "/healthz" r.Http.path
  | _ -> Alcotest.fail "first pipelined request missing");
  (match Http.next d with
  | `Req r ->
      Alcotest.(check string) "second path" "/claim" r.Http.path;
      Alcotest.(check string) "second body" "{}" r.Http.body
  | _ -> Alcotest.fail "second pipelined request missing");
  match Http.next d with
  | `Awaiting -> ()
  | _ -> Alcotest.fail "phantom third request"

let test_http_bare_lf () =
  let d = Http.decoder () in
  Http.feed_string d "GET /bugs HTTP/1.1\nHost: x\n\n";
  match Http.next d with
  | `Req r ->
      Alcotest.(check string) "path" "/bugs" r.Http.path;
      Alcotest.(check (option string)) "header lowercased" (Some "x")
        (List.assoc_opt "host" r.Http.headers)
  | _ -> Alcotest.fail "bare-LF request rejected"

let test_http_oversized_body () =
  let d = Http.decoder () in
  Http.feed_string d
    (Printf.sprintf "POST /kernel HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
       (Http.max_body + 1));
  (match Http.next d with
  | `Error (413, _) -> ()
  | `Error (s, _) -> Alcotest.failf "expected 413, got %d" s
  | _ -> Alcotest.fail "oversized body accepted");
  (* the error is sticky: feeding more bytes cannot resynchronise *)
  Http.feed_string d "GET / HTTP/1.1\r\n\r\n";
  match Http.next d with
  | `Error (413, _) -> ()
  | _ -> Alcotest.fail "413 was not sticky"

let test_http_bad_request_line () =
  let d = Http.decoder () in
  Http.feed_string d "what is this\r\n\r\n";
  (match Http.next d with
  | `Error (400, _) -> ()
  | _ -> Alcotest.fail "garbage request line accepted");
  let d = Http.decoder () in
  Http.feed_string d "GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  match Http.next d with
  | `Error (501, _) -> ()
  | _ -> Alcotest.fail "transfer-encoding not refused"

let test_http_oversized_head () =
  let d = Http.decoder () in
  Http.feed_string d "GET / HTTP/1.1\r\n";
  Http.feed_string d ("X-Pad: " ^ String.make (Http.max_head + 10) 'a');
  match Http.next d with
  | `Error (431, _) -> ()
  | _ -> Alcotest.fail "unbounded header block accepted"

let test_http_response () =
  let r = Http.response ~status:200 ~body:"ok" () in
  Alcotest.(check bool) "status line" true (starts_with "HTTP/1.1 200 OK\r\n" r);
  Alcotest.(check bool) "content-length" true (contains r "content-length: 2");
  let nc = Http.response ~status:204 ~body:"" () in
  Alcotest.(check bool) "204 has no content-length" false
    (contains nc "content-length");
  let shed =
    Http.response ~status:429 ~headers:[ ("retry-after", "1") ] ~body:"busy" ()
  in
  Alcotest.(check bool) "extra header rides along" true
    (contains shed "retry-after: 1")

(* --- admission policy ------------------------------------------------- *)

let ms n = Int64.mul (Int64.of_int n) 1_000_000L

let test_admission_verdicts () =
  let a =
    Admission.create ~max_inflight:2 ~max_queue:2 ~read_timeout_ms:1_000
      ~queue_timeout_ms:200 ()
  in
  let v id now = Admission.on_open a ~id ~now in
  Alcotest.(check bool) "first admitted" true (v 1 (ms 0) = Admission.Admit);
  Alcotest.(check bool) "second admitted" true (v 2 (ms 1) = Admission.Admit);
  Alcotest.(check bool) "third parked" true (v 3 (ms 2) = Admission.Park);
  Alcotest.(check bool) "fourth parked" true (v 4 (ms 3) = Admission.Park);
  Alcotest.(check bool) "fifth shed" true (v 5 (ms 4) = Admission.Shed);
  Alcotest.(check int) "two in flight" 2 (Admission.inflight a);
  Alcotest.(check int) "two parked" 2 (Admission.parked a);
  (* a freed slot goes to the oldest parked connection *)
  Admission.on_close a ~id:1;
  Alcotest.(check (list int)) "FIFO promotion" [ 3 ]
    (Admission.promote a ~now:(ms 10));
  Alcotest.(check (list int)) "no free slot, no promotion" []
    (Admission.promote a ~now:(ms 11));
  (* the remaining parked connection times out of the pen *)
  Alcotest.(check (list int)) "not expired yet" []
    (Admission.expire a ~now:(ms 100));
  Alcotest.(check (list int)) "queue timeout" [ 4 ]
    (Admission.expire a ~now:(ms 300));
  Alcotest.(check int) "pen empty" 0 (Admission.parked a)

let test_admission_stale () =
  let a = Admission.create ~max_inflight:4 ~read_timeout_ms:1_000 () in
  ignore (Admission.on_open a ~id:7 ~now:(ms 0));
  ignore (Admission.on_open a ~id:8 ~now:(ms 0));
  Alcotest.(check (list int)) "fresh connections not stale" []
    (Admission.stale a ~now:(ms 500));
  Admission.touch a ~id:8 ~now:(ms 900);
  Alcotest.(check (list int)) "only the untouched one goes stale" [ 7 ]
    (Admission.stale a ~now:(ms 1_500));
  Admission.on_close a ~id:7;
  Alcotest.(check (list int)) "touch reset the clock" []
    (Admission.stale a ~now:(ms 1_800));
  Alcotest.(check (list int)) "everything ages out eventually" [ 8 ]
    (Admission.stale a ~now:(ms 3_000))

(* --- store fixtures --------------------------------------------------- *)

let kernel_text i =
  Printf.sprintf "__kernel void entry(__global int *a) { a[0] = %d; }\n" i

let entry_of i =
  let text = kernel_text i in
  ( {
      Corpus.hash = Corpus.hash_text text;
      seed = i;
      mode = "basic";
      cls = "candidate";
      config = 0;
      opt = "-";
    },
    text )

let cell_of ~seed ~config ~opt =
  {
    Journal.index = 0;
    seed;
    mode = "basic";
    config;
    opt;
    outcomes = [ Outcome.Crash "segfault" ];
    note = "";
  }

let obs_of ~seed ~config ~opt ~hash =
  {
    Triage.o_cls = "crash";
    o_config = config;
    o_opt = opt;
    o_signature = "sig-atomic";
    o_seed = seed;
    o_mode = "basic";
    o_hash = hash;
  }

let query_fingerprint store =
  String.concat "\n"
    (List.map
       (fun path ->
         Router.handle store
           { Http.meth = "GET"; path; headers = []; body = "" })
       [ "/bugs"; "/coverage"; "/corpus"; "/coverage/hex" ])

let populate store =
  List.iter
    (fun i ->
      let e, text = entry_of i in
      match Svstore.submit_kernel store e text with
      | Ok true -> ()
      | Ok false -> Alcotest.failf "kernel %d unexpectedly duplicate" i
      | Error m -> Alcotest.fail m)
    [ 1; 2; 3 ];
  List.iter
    (fun (seed, config, opt, cov) ->
      let e, _ = entry_of seed in
      match
        Svstore.report_observation store
          ~cell:(cell_of ~seed ~config ~opt)
          ~obs:(Some (obs_of ~seed ~config ~opt ~hash:e.Corpus.hash))
          ~cov
      with
      | Ok (true, _) -> ()
      | Ok (false, _) -> Alcotest.fail "observation unexpectedly duplicate"
      | Error m -> Alcotest.fail m)
    [ (1, 2, "-", [ 10; 20 ]); (1, 2, "+", [ 10; 30 ]); (2, 5, "-", [ 40 ]) ]

(* --- svstore ---------------------------------------------------------- *)

let with_store f =
  let path = Filename.temp_file "svstore" ".journal" in
  Sys.remove path;
  (match Svstore.open_ ~path with
  | Error m -> Alcotest.fail m
  | Ok store -> f path store);
  if Sys.file_exists path then Sys.remove path

let test_svstore_dedup () =
  with_store (fun _ store ->
      populate store;
      let e, text = entry_of 1 in
      Alcotest.(check (result bool string)) "duplicate submit is idempotent"
        (Ok false)
        (Svstore.submit_kernel store e text);
      Alcotest.(check bool) "hash mismatch refused" true
        (Result.is_error (Svstore.submit_kernel store e (kernel_text 99)));
      (match
         Svstore.report_observation store
           ~cell:(cell_of ~seed:1 ~config:2 ~opt:"-")
           ~obs:None ~cov:[ 10 ]
       with
      | Ok (false, 0) -> ()
      | Ok _ -> Alcotest.fail "duplicate cell not deduplicated"
      | Error m -> Alcotest.fail m);
      Alcotest.(check bool) "out-of-range coverage refused" true
        (Result.is_error
           (Svstore.report_observation store
              ~cell:(cell_of ~seed:9 ~config:1 ~opt:"-")
              ~obs:None ~cov:[ 65536 ]));
      Alcotest.(check int) "kernels" 3 (Svstore.kernel_count store);
      Alcotest.(check int) "cells" 3 (Svstore.cell_count store);
      Alcotest.(check int) "coverage bits" 4 (Svstore.coverage_count store);
      (* the triage key is (class, config, opt, signature): all three
         observations land in distinct buckets *)
      Alcotest.(check int) "distinct bugs" 3
        (List.length (Svstore.buckets store));
      Svstore.close store)

let test_svstore_claim_cursor () =
  with_store (fun path store ->
      populate store;
      (match Svstore.claim store with
      | Some (e, text) ->
          Alcotest.(check string) "claims run in submission order"
            (fst (entry_of 1)).Corpus.hash e.Corpus.hash;
          Alcotest.(check string) "text rides along" (kernel_text 1) text
      | None -> Alcotest.fail "claim on non-empty corpus");
      ignore (Svstore.claim store);
      Alcotest.(check int) "cursor advanced" 2 (Svstore.cursor store);
      Svstore.close store;
      (* the cursor is journalled: a restarted daemon never re-issues work *)
      match Svstore.open_ ~path with
      | Error m -> Alcotest.fail m
      | Ok store2 ->
          Alcotest.(check int) "cursor survives restart" 2
            (Svstore.cursor store2);
          (match Svstore.claim store2 with
          | Some (e, _) ->
              Alcotest.(check string) "next unclaimed kernel"
                (fst (entry_of 3)).Corpus.hash e.Corpus.hash
          | None -> Alcotest.fail "third kernel lost");
          Alcotest.(check bool) "corpus exhausts" true
            (Svstore.claim store2 = None);
          Svstore.close store2)

let test_svstore_replay_identical () =
  with_store (fun path store ->
      populate store;
      let before = query_fingerprint store in
      Svstore.close store;
      match Svstore.open_ ~path with
      | Error m -> Alcotest.fail m
      | Ok store2 ->
          Alcotest.(check string) "every query byte-identical after replay"
            before (query_fingerprint store2);
          Svstore.close store2)

let test_svstore_torn_tail () =
  with_store (fun path store ->
      populate store;
      let before = query_fingerprint store in
      Svstore.close store;
      (* a kill mid-append leaves half a record on the final line *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"k\":\"obs\",\"cell\":{\"seed\":9";
      close_out oc;
      (match Svstore.open_ ~path with
      | Error m -> Alcotest.failf "torn tail not recovered: %s" m
      | Ok store2 ->
          Alcotest.(check string) "torn line dropped, state intact" before
            (query_fingerprint store2);
          Svstore.close store2);
      (* the rewrite left a clean journal: a second replay sees no damage *)
      (match Svstore.open_ ~path with
      | Error m -> Alcotest.failf "rewritten journal rejected: %s" m
      | Ok store3 ->
          Alcotest.(check string) "clean prefix stable" before
            (query_fingerprint store3);
          Svstore.close store3);
      (* a record cut just before its '\n' is not committed either: the
         reopen drops it, and the record sent again lands after the
         repaired tail *)
      let ic = open_in_bin path in
      let data = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let oc = open_out_bin path in
      output_string oc (String.sub data 0 (String.length data - 1));
      close_out oc;
      (match Svstore.open_ ~path with
      | Error m -> Alcotest.failf "unterminated record not recovered: %s" m
      | Ok store4 ->
          Alcotest.(check int) "unterminated record dropped" 2
            (Svstore.cell_count store4);
          let e, _ = entry_of 2 in
          (match
             Svstore.report_observation store4
               ~cell:(cell_of ~seed:2 ~config:5 ~opt:"-")
               ~obs:(Some (obs_of ~seed:2 ~config:5 ~opt:"-" ~hash:e.Corpus.hash))
               ~cov:[ 40 ]
           with
          | Ok (true, _) -> ()
          | Ok (false, _) -> Alcotest.fail "dropped record still deduplicated"
          | Error m -> Alcotest.fail m);
          Svstore.close store4);
      match Svstore.open_ ~path with
      | Error m -> Alcotest.failf "appended journal rejected: %s" m
      | Ok store5 ->
          Alcotest.(check string) "appended after the repair" before
            (query_fingerprint store5);
          Svstore.close store5)

(* --- router ----------------------------------------------------------- *)

let test_router_endpoints () =
  with_store (fun _ store ->
      populate store;
      let get path =
        Router.handle store { Http.meth = "GET"; path; headers = []; body = "" }
      in
      Alcotest.(check bool) "healthz" true
        (starts_with "HTTP/1.1 200" (get "/healthz")
        && contains (get "/healthz") "\"kernels\":3");
      Alcotest.(check bool) "bugs carries the trigger signature" true
        (contains (get "/bugs") "sig-atomic");
      Alcotest.(check bool) "coverage" true
        (contains (get "/coverage") "\"bits\":4");
      let e, text = entry_of 2 in
      Alcotest.(check bool) "kernel text served by hash" true
        (contains (get ("/corpus/" ^ e.Corpus.hash)) text);
      Alcotest.(check bool) "unknown hash 404" true
        (starts_with "HTTP/1.1 404" (get "/corpus/feedfacefeedface"));
      Alcotest.(check bool) "unknown path 404" true
        (starts_with "HTTP/1.1 404" (get "/nope"));
      Alcotest.(check bool) "metrics prometheus text" true
        (starts_with "HTTP/1.1 200" (get "/metrics"));
      Alcotest.(check bool) "report is html" true
        (contains (get "/report") "<html");
      let r =
        Router.handle store
          { Http.meth = "POST"; path = "/bugs"; headers = []; body = "" }
      in
      Alcotest.(check bool) "query endpoints refuse POST" true
        (starts_with "HTTP/1.1 405" r);
      let bad =
        Router.handle store
          { Http.meth = "POST"; path = "/kernel"; headers = []; body = "{oops" }
      in
      Alcotest.(check bool) "malformed submit 400" true
        (starts_with "HTTP/1.1 400" bad);
      Svstore.close store)

(* --- the live daemon -------------------------------------------------- *)

let temp_addr () =
  let sock = Filename.temp_file "test_serve" ".sock" in
  Sys.remove sock;
  Netaddr.Unix_sock sock

let start_daemon ?(max_inflight = 16) ?(max_queue = 16) ?(queue_timeout_ms = 200)
    ?history ~path addr =
  match Svstore.open_ ~path with
  | Error m -> Alcotest.fail m
  | Ok store ->
      let stop = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Server.run ~addr ~store ~max_inflight ~max_queue ~queue_timeout_ms
              ~stop ?history ())
      in
      (match Sclient.get ~addr ~retries:40 "/healthz" with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "daemon did not come up: %s" m);
      (store, stop, d)

let stop_daemon (store, stop, d) =
  Atomic.set stop true;
  (match Domain.join d with
  | Ok (_ : Server.stats) -> ()
  | Error m -> Alcotest.failf "daemon failed: %s" m);
  Svstore.close store

let fetch addr path =
  match Sclient.get ~addr path with
  | Ok r -> (r.Sclient.status, r.Sclient.body)
  | Error m -> Alcotest.failf "GET %s: %s" path m

let test_server_concurrent_clients () =
  let addr = temp_addr () in
  let path = Filename.temp_file "test_serve" ".journal" in
  Sys.remove path;
  let daemon = start_daemon ~path addr in
  (* two client domains race disjoint and overlapping submissions; the
     server-side dedup must make the overlap idempotent *)
  let client lo =
    Domain.spawn (fun () ->
        List.init 4 (fun i ->
            let e, text = entry_of (lo + i) in
            match Sclient.submit_kernel ~addr e text with
            | Ok fresh -> if fresh then 1 else 0
            | Error m -> Alcotest.failf "submit: %s" m)
        |> List.fold_left ( + ) 0)
  in
  let a = client 1 and b = client 3 in
  let fresh = Domain.join a + Domain.join b in
  (* seeds 1..4 and 3..6 overlap on 3,4: exactly 6 distinct kernels *)
  Alcotest.(check int) "dedup across concurrent clients" 6 fresh;
  let status, body = fetch addr "/healthz" in
  Alcotest.(check int) "healthz 200" 200 status;
  Alcotest.(check bool) "six kernels stored" true (contains body "\"kernels\":6");
  (* claims from two clients never hand out the same kernel twice *)
  let claimer () =
    Domain.spawn (fun () ->
        let rec go acc =
          match Sclient.claim ~addr () with
          | Ok (Some (e, _)) -> go (e.Corpus.hash :: acc)
          | Ok None -> acc
          | Error m -> Alcotest.failf "claim: %s" m
        in
        go [])
  in
  let c1 = claimer () and c2 = claimer () in
  let claimed = Domain.join c1 @ Domain.join c2 in
  Alcotest.(check int) "every kernel claimed exactly once" 6
    (List.length (List.sort_uniq String.compare claimed));
  Alcotest.(check int) "no double issue" 6 (List.length claimed);
  stop_daemon daemon;
  Sys.remove path

(* The exact bytes of the state journal and of a /claim reply, for one
   kernel and three reported cells (with obs, without obs, with an empty
   cov), as the client, the router and the store write them together. *)
let test_server_record_bytes () =
  let addr = temp_addr () in
  let path = Filename.temp_file "test_serve" ".journal" in
  Sys.remove path;
  let daemon = start_daemon ~path addr in
  let e, text = entry_of 1 in
  (match Sclient.submit_kernel ~addr e text with
  | Ok true -> ()
  | Ok false -> Alcotest.fail "kernel unexpectedly duplicate"
  | Error m -> Alcotest.fail m);
  let obs config opt = Some (obs_of ~seed:1 ~config ~opt ~hash:e.Corpus.hash) in
  List.iter
    (fun (config, opt, obs, cov) ->
      match
        Sclient.report_observation ~addr ~cell:(cell_of ~seed:1 ~config ~opt)
          ~obs ~cov ()
      with
      | Ok (true, _) -> ()
      | Ok (false, _) -> Alcotest.fail "observation unexpectedly duplicate"
      | Error m -> Alcotest.fail m)
    [
      (2, "-", obs 2 "-", [ 10; 20 ]);
      (2, "+", None, [ 30 ]);
      (5, "-", obs 5 "-", []);
    ];
  let claim =
    match Sclient.request ~addr ~meth:"POST" ~path:"/claim" () with
    | Ok r -> r.Sclient.body
    | Error m -> Alcotest.fail m
  in
  stop_daemon daemon;
  let ic = open_in_bin path in
  let journal = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (match Svstore.open_ ~path with
  | Error m -> Alcotest.fail m
  | Ok store ->
      Alcotest.(check (list int)) "kernels, cells, cursor replayed" [ 1; 3; 1 ]
        [
          Svstore.kernel_count store;
          Svstore.cell_count store;
          Svstore.cursor store;
        ];
      Svstore.close store);
  Sys.remove path;
  Alcotest.(check string) "/claim reply"
    {|{"k":"kernel","hash":"07228b870e31309e758fc869e7126b88","seed":1,"mode":"basic","cls":"candidate","config":0,"opt":"-","text":"__kernel void entry(__global int *a) { a[0] = 1; }\n"}|}
    claim;
  Alcotest.(check string) "state journal"
    (String.concat ""
       (List.map
          (fun l -> l ^ "\n")
          [
            {|{"k":"serve","v":1,"h":"cd53d3926eaf31d46d1e603c757ed24c"}|};
            {|{"k":"kernel","hash":"07228b870e31309e758fc869e7126b88","seed":1,"mode":"basic","cls":"candidate","config":0,"opt":"-","text":"__kernel void entry(__global int *a) { a[0] = 1; }\n","h":"c0d54497e232446c8695ab52b5e68433"}|};
            {|{"k":"obs","cell":{"k":"cell","i":0,"seed":1,"mode":"basic","config":2,"opt":"-","out":[{"t":"c","v":"segfault"}],"note":""},"obs":{"cls":"crash","config":2,"opt":"-","sig":"sig-atomic","seed":1,"mode":"basic","hash":"07228b870e31309e758fc869e7126b88"},"cov":[10,20],"h":"92cf1fbec8a0868e39be62b1edb5db5f"}|};
            {|{"k":"obs","cell":{"k":"cell","i":0,"seed":1,"mode":"basic","config":2,"opt":"+","out":[{"t":"c","v":"segfault"}],"note":""},"cov":[30],"h":"c6c4fd026ea0d88fe35230dbaba3560c"}|};
            {|{"k":"obs","cell":{"k":"cell","i":0,"seed":1,"mode":"basic","config":5,"opt":"-","out":[{"t":"c","v":"segfault"}],"note":""},"obs":{"cls":"crash","config":5,"opt":"-","sig":"sig-atomic","seed":1,"mode":"basic","hash":"07228b870e31309e758fc869e7126b88"},"cov":[],"h":"1e1e2159d9e2cf85d5ac06d7ef72c640"}|};
            {|{"k":"claim","n":1,"h":"3d4148d7b33f337a27f865610b411bd3"}|}
          ]))
    journal

let test_server_restart_identical () =
  let addr = temp_addr () in
  let path = Filename.temp_file "test_serve" ".journal" in
  Sys.remove path;
  let daemon = start_daemon ~path addr in
  List.iter
    (fun i ->
      let e, text = entry_of i in
      (match Sclient.submit_kernel ~addr e text with
      | Ok _ -> ()
      | Error m -> Alcotest.fail m);
      match
        Sclient.report_observation ~addr
          ~cell:(cell_of ~seed:i ~config:2 ~opt:"-")
          ~obs:(Some (obs_of ~seed:i ~config:2 ~opt:"-" ~hash:e.Corpus.hash))
          ~cov:[ i; i + 100 ] ()
      with
      | Ok (true, 2) -> ()
      | Ok _ -> Alcotest.fail "observation not fresh"
      | Error m -> Alcotest.fail m)
    [ 1; 2; 3 ];
  let paths = [ "/bugs"; "/coverage"; "/corpus"; "/coverage/hex" ] in
  let before = List.map (fetch addr) paths in
  stop_daemon daemon;
  (* same journal, fresh process: every query answer must be byte-identical *)
  let daemon2 = start_daemon ~path addr in
  let after = List.map (fetch addr) paths in
  List.iter2
    (fun p ((s0, b0), (s1, b1)) ->
      Alcotest.(check int) (p ^ " status") s0 s1;
      Alcotest.(check string) (p ^ " byte-identical after restart") b0 b1)
    paths (List.combine before after);
  stop_daemon daemon2;
  Sys.remove path

let test_server_overload_sheds () =
  let addr = temp_addr () in
  let path = Filename.temp_file "test_serve" ".journal" in
  Sys.remove path;
  let daemon = start_daemon ~max_inflight:1 ~max_queue:1 ~queue_timeout_ms:200
      ~path addr
  in
  (* five idle connections against one admitted slot and one pen seat:
     three are shed on arrival, the parked one on queue timeout *)
  let socks =
    List.filter_map
      (fun _ -> Result.to_option (Netaddr.connect addr))
      (List.init 5 (fun i -> i))
  in
  Alcotest.(check int) "all connections accepted at socket level" 5
    (List.length socks);
  let shed = ref 0 and retry_after = ref 0 in
  List.iter
    (fun fd ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 2.0;
      let buf = Bytes.create 4096 in
      (match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
          let reply = Bytes.sub_string buf 0 n in
          if contains reply "429" then incr shed;
          if contains reply "retry-after:" then incr retry_after
      | exception Unix.Unix_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ())
    socks;
  Alcotest.(check int) "four of five shed with 429" 4 !shed;
  Alcotest.(check int) "every refusal names a retry delay" 4 !retry_after;
  (* the daemon is still healthy after shedding *)
  let status, _ = fetch addr "/healthz" in
  Alcotest.(check int) "daemon alive after overload" 200 status;
  stop_daemon daemon;
  Sys.remove path

(* the metrics time series and per-route request accounting: a daemon
   armed with a history ring serves its own snapshots at
   /metrics/history, and every handled request lands under its route
   label in /metrics.json *)
let test_server_metrics_history () =
  let addr = temp_addr () in
  let path = Filename.temp_file "test_serve" ".journal" in
  Sys.remove path;
  Metrics.reset ();
  let daemon = start_daemon ~history:(Svhistory.create ()) ~path addr in
  List.iter (fun _ -> ignore (fetch addr "/healthz")) [ 1; 2; 3 ];
  let status, body = fetch addr "/metrics/history" in
  Alcotest.(check int) "history 200" 200 status;
  (match Jsonl.of_string body with
  | Error e -> Alcotest.failf "history is not JSON: %s" e
  | Ok j -> (
      (match Option.bind (Jsonl.member "count" j) Jsonl.get_int with
      | Some n -> Alcotest.(check bool) "at least one snapshot" true (n >= 1)
      | None -> Alcotest.fail "history lacks a count");
      match Jsonl.member "samples" j with
      | Some (Jsonl.List (s :: _)) ->
          List.iter
            (fun k ->
              if Jsonl.member k s = None then
                Alcotest.failf "sample lacks %S" k)
            [ "t_ms"; "requests"; "shed"; "timeouts"; "p50_us"; "p99_us" ]
      | _ -> Alcotest.fail "history lacks samples"));
  let status, body = fetch addr "/metrics.json" in
  Alcotest.(check int) "metrics.json 200" 200 status;
  Alcotest.(check bool) "requests counted under their route label" true
    (contains body "serve.requests.healthz");
  Alcotest.(check bool) "latency histogram per route" true
    (contains body "serve.request_us.healthz");
  (* the Prometheus exposition carries the same per-route counters *)
  let status, prom = fetch addr "/metrics" in
  Alcotest.(check int) "prometheus 200" 200 status;
  Alcotest.(check bool) "per-route counter in exposition" true
    (contains prom "serve_requests_healthz");
  (* an unarmed daemon answers 404, not an empty series *)
  stop_daemon daemon;
  let daemon2 = start_daemon ~path addr in
  let status, _ = fetch addr "/metrics/history" in
  Alcotest.(check int) "history 404 when not armed" 404 status;
  stop_daemon daemon2;
  Sys.remove path

let () =
  Alcotest.run "serve"
    [
      ( "http",
        [
          Alcotest.test_case "torn request, byte by byte" `Quick
            test_http_torn_request;
          Alcotest.test_case "pipelined requests" `Quick test_http_pipelined;
          Alcotest.test_case "bare-LF endings" `Quick test_http_bare_lf;
          Alcotest.test_case "oversized body 413, sticky" `Quick
            test_http_oversized_body;
          Alcotest.test_case "bad request line / 501" `Quick
            test_http_bad_request_line;
          Alcotest.test_case "oversized head 431" `Quick
            test_http_oversized_head;
          Alcotest.test_case "response serialisation" `Quick test_http_response;
        ] );
      ( "admission",
        [
          Alcotest.test_case "admit/park/shed + FIFO promote" `Quick
            test_admission_verdicts;
          Alcotest.test_case "slow-loris goes stale" `Quick test_admission_stale;
        ] );
      ( "svstore",
        [
          Alcotest.test_case "dedup and refusals" `Quick test_svstore_dedup;
          Alcotest.test_case "claim cursor survives restart" `Quick
            test_svstore_claim_cursor;
          Alcotest.test_case "replay byte-identical" `Quick
            test_svstore_replay_identical;
          Alcotest.test_case "torn tail recovered" `Quick test_svstore_torn_tail;
        ] );
      ( "router",
        [ Alcotest.test_case "endpoint contract" `Quick test_router_endpoints ] );
      ( "daemon",
        [
          Alcotest.test_case "concurrent clients, idempotent writes" `Slow
            test_server_concurrent_clients;
          Alcotest.test_case "restart answers byte-identical" `Slow
            test_server_restart_identical;
          Alcotest.test_case "record bytes pinned" `Quick
            test_server_record_bytes;
          Alcotest.test_case "overload sheds 429" `Slow
            test_server_overload_sheds;
          Alcotest.test_case "metrics history + per-route accounting" `Slow
            test_server_metrics_history;
        ] );
    ]
