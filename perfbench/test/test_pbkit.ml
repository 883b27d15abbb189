(* The benchmark's own helpers: the percentile rule, due-time latency of
   the open-loop generator, its lateness report and the max_rps search. *)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let percentile_rule () =
  for n = 1 to 3000 do
    let s = Stats.summarize (List.init n float_of_int) in
    Alcotest.(check int) "sample count" n s.Stats.n;
    match s.Stats.tail with
    | None ->
        List.iter
          (fun p -> Alcotest.(check bool) "no percentile qualifies" true (Stats.beyond ~n p < 10))
          Stats.ladder
    | Some (p, v) ->
        Alcotest.(check bool) "at least 10 samples beyond" true (Stats.beyond ~n p >= 10);
        (* the samples are 0..n-1, so exactly [beyond] lie above the value *)
        Alcotest.(check int) "beyond counts the samples above" (Stats.beyond ~n p)
          (List.length (List.filter (fun x -> float_of_int x > v) (List.init n Fun.id)));
        List.iter
          (fun q ->
            if q > p then Alcotest.(check bool) "no higher percentile qualifies" true (Stats.beyond ~n q < 10))
          Stats.ladder
  done;
  let s = Stats.summarize (List.init 1000 float_of_int) in
  Alcotest.(check (option (float 0.))) "p99 at n=1000" (Some 99.) (Option.map fst s.Stats.tail);
  let s = Stats.summarize (List.init 999 float_of_int) in
  Alcotest.(check (option (float 0.))) "p98 at n=999" (Some 98.) (Option.map fst s.Stats.tail);
  let line = Stats.describe ~name:"x" ~unit:"us" s in
  Alcotest.(check bool) "count printed" true (contains line "n=999");
  Alcotest.(check bool) "percentile named" true (contains line "p98")

(* a one-connection-at-a-time HTTP server that stalls [stall_s] before
   answering its [stall_at]-th request *)
let fake_server ~path ~requests ~stall_at ~stall_s =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Domain.spawn (fun () ->
      let buf = Bytes.create 4096 in
      for i = 0 to requests - 1 do
        let c, _ = Unix.accept fd in
        let got = Buffer.create 256 in
        while not (contains (Buffer.contents got) "\r\n\r\n") do
          let k = Unix.read c buf 0 (Bytes.length buf) in
          if k = 0 then failwith "client closed early";
          Buffer.add_subbytes got buf 0 k
        done;
        if i = stall_at then Unix.sleepf stall_s;
        let resp = "HTTP/1.1 200 OK\r\ncontent-length: 0\r\nconnection: close\r\n\r\n" in
        ignore (Unix.write_substring c resp 0 (String.length resp));
        Unix.close c
      done;
      Unix.close fd)

let due_time_latency () =
  let path = Filename.temp_file "pbkit" ".sock" in
  Sys.remove path;
  let n = 60 and period_ms = 2. and stall_at = 10 in
  let server = fake_server ~path ~requests:n ~stall_at ~stall_s:0.05 in
  let reqs =
    Array.init n (fun i ->
        {
          Loadgen.due_ns = Int64.of_float (float_of_int i *. period_ms *. 1e6);
          label = "get";
          bytes = "GET / HTTP/1.1\r\nconnection: close\r\n\r\n";
        })
  in
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    fd
  in
  let outs = Loadgen.run ~connect ~max_inflight:2 reqs in
  Domain.join server;
  Sys.remove path;
  (* the offered schedule is unchanged: every request was sent, on the
     fixed due times, and answered *)
  Alcotest.(check int) "all sent" n (Array.length outs);
  Array.iter (fun o -> Alcotest.(check int) "answered" 200 o.Loadgen.status) outs;
  let t0 = outs.(0).Loadgen.due in
  Array.iteri
    (fun i o ->
      Alcotest.(check int64) "due time kept" reqs.(i).Loadgen.due_ns (Int64.sub o.Loadgen.due t0))
    outs;
  let lat = Array.map Loadgen.latency_us outs in
  Alcotest.(check bool) "the stalled request waits the stall" true (lat.(stall_at) >= 45_000.);
  (* requests due during the stall were queued behind it: their latency,
     measured from the due time, carries the wait *)
  let behind = ref 0 in
  for i = stall_at + 1 to stall_at + 20 do
    if lat.(i) >= 10_000. then incr behind
  done;
  Alcotest.(check bool) "queued requests show the stall" true (!behind >= 10);
  let l = Loadgen.lateness outs in
  Alcotest.(check bool) "generator reports it ran late" true (l.Loadgen.late_max_us >= 30_000.)

let lateness_report () =
  let at us = Int64.of_float (us *. 1000.) in
  let outs =
    Array.init 20 (fun i ->
        let late = if i = 5 then 4000. else if i >= 18 then 1500. else 100. in
        {
          Loadgen.label = "x";
          due = at (float_of_int i *. 1000.);
          sent = at ((float_of_int i *. 1000.) +. late);
          finished = at ((float_of_int i *. 1000.) +. late +. 50.);
          status = 200;
        })
  in
  let l = Loadgen.lateness outs in
  Alcotest.(check (float 0.5)) "max" 4000. l.Loadgen.late_max_us;
  Alcotest.(check int) "over 1 ms" 3 l.Loadgen.late_over_1ms;
  Alcotest.(check (float 0.5)) "last tenth" 1500. l.Loadgen.backlog_end_us;
  Alcotest.(check int) "count" 20 l.Loadgen.sent_n;
  let line = Loadgen.describe_lateness l in
  Alcotest.(check bool) "report names the worst delay" true (contains line "max 4000 us")

let search_stops () =
  let probed = ref [] in
  let probe rate =
    probed := rate :: !probed;
    { Loadgen.rate; tail_us = rate *. 10.; backlog_us = 0. }
  in
  let best, probes =
    Loadgen.search ~limit_us:10_000. ~rates:[ 200.; 400.; 800.; 1600.; 3200. ] probe
  in
  Alcotest.(check bool) "never probes beyond the first failing rate" false (List.mem 3200. !probed);
  Alcotest.(check (list (float 0.))) "probes in ascending order up to the first failure"
    [ 200.; 400.; 800.; 1600. ]
    (List.map (fun (p : Loadgen.probe) -> p.Loadgen.rate) probes);
  (* the tail crosses 10 ms at 1000/s: 8 ms at 800, 16 ms at 1600 *)
  (match best with
  | Some r -> Alcotest.(check (float 0.01)) "interpolated crossing" 1000. r
  | None -> Alcotest.fail "a rate passed");
  (* a growing backlog fails a probe even when the tail is fine *)
  let best, probes =
    Loadgen.search ~limit_us:10_000. ~rates:[ 100.; 200.; 300. ] (fun rate ->
        { Loadgen.rate; tail_us = 10.; backlog_us = (if rate > 150. then 50_000. else 0.) })
  in
  Alcotest.(check bool) "backlog limits" true
    (match best with Some r -> r >= 100. && r < 200. | None -> false);
  Alcotest.(check int) "stops at the backlogged rate" 2 (List.length probes);
  let all_pass, _ =
    Loadgen.search ~limit_us:10_000. ~rates:[ 100.; 200. ] (fun rate ->
        { Loadgen.rate; tail_us = 10.; backlog_us = 0. })
  in
  Alcotest.(check (option (float 0.))) "ladder never fails" (Some 200.) all_pass;
  let best, probes =
    Loadgen.search ~limit_us:10_000. ~rates:[ 100.; 200. ] (fun rate ->
        { Loadgen.rate; tail_us = 50_000.; backlog_us = 0. })
  in
  Alcotest.(check (option (float 0.))) "nothing passes" None best;
  Alcotest.(check int) "one probe" 1 (List.length probes)

let () =
  Alcotest.run "pbkit"
    [
      ( "stats",
        [ Alcotest.test_case "percentile rule" `Quick percentile_rule ] );
      ( "loadgen",
        [
          Alcotest.test_case "due-time latency behind a stall" `Quick due_time_latency;
          Alcotest.test_case "lateness report" `Quick lateness_report;
          Alcotest.test_case "max_rps search stops at the first failing rate" `Quick search_stops;
        ] );
    ]
