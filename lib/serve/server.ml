type stats = { requests : int; shed : int; timeouts : int }

type conn = {
  fd : Unix.file_descr;
  id : int;
  dec : Http.decoder;
  mutable out : string;  (** pending response bytes *)
  mutable out_off : int;
  mutable close_after : bool;  (** close once [out] drains *)
  mutable reading : bool;  (** admitted: false while parked or shedding *)
}

let metric_requests = lazy (Metrics.counter "serve.requests")
let metric_shed = lazy (Metrics.counter "serve.shed")
let metric_timeouts = lazy (Metrics.counter "serve.timeouts")
let metric_latency = lazy (Metrics.histogram "serve.request_us")

(* per-route accounting: registration is get-or-create under a mutex,
   and the route label set is bounded by Router.route_label *)
let route_requests label = Metrics.counter ("serve.requests." ^ label)
let route_latency label = Metrics.histogram ("serve.request_us." ^ label)

(* the flow id of an observation submission is its cell's global index —
   the same id the worker exec span and the coordinator lease carry.
   Parsed only when tracing is armed; any malformed body stays unlinked *)
let observation_flow (r : Http.req) =
  match Jsonl.of_string r.Http.body with
  | Error _ -> None
  | Ok j ->
      Option.map
        (fun c -> c.Journal.index)
        (Option.bind (Jsonl.member "cell" j) Journal.cell_of_json)

let run ~addr ~store ?max_inflight ?max_queue ?read_timeout_ms
    ?queue_timeout_ms ?(stop = Atomic.make false) ?history
    ?(on_tick = fun (_ : int64) -> ()) () =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  match Netaddr.listen addr with
  | Error e -> Error e
  | Ok listen_fd ->
      Unix.set_nonblock listen_fd;
      let adm =
        Admission.create ?max_inflight ?max_queue ?read_timeout_ms
          ?queue_timeout_ms ()
      in
      let conns : (int, conn) Hashtbl.t = Hashtbl.create 64 in
      let next_id = ref 0 in
      let requests = ref 0 and shed = ref 0 and timeouts = ref 0 in
      let buf = Bytes.create 65536 in
      let retry_headers =
        [ ("retry-after", string_of_int (Admission.retry_after_s adm)) ]
      in
      let close conn =
        Hashtbl.remove conns conn.id;
        Admission.on_close adm ~id:conn.id;
        try Unix.close conn.fd with Unix.Unix_error _ -> ()
      in
      let enqueue conn resp =
        if conn.out_off > 0 then begin
          (* keep the pending string small: drop the written prefix
             before appending *)
          conn.out <-
            String.sub conn.out conn.out_off
              (String.length conn.out - conn.out_off);
          conn.out_off <- 0
        end;
        conn.out <- conn.out ^ resp
      in
      let flush_out conn =
        let n = String.length conn.out - conn.out_off in
        if n > 0 then
          match Unix.write_substring conn.fd conn.out conn.out_off n with
          | written ->
              conn.out_off <- conn.out_off + written;
              if conn.out_off = String.length conn.out then begin
                conn.out <- "";
                conn.out_off <- 0;
                if conn.close_after then close conn
              end
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
            ->
              ()
          | exception Unix.Unix_error (_, _, _) -> close conn
      in
      let serve_requests conn =
        let rec drain () =
          match Http.next conn.dec with
          | `Awaiting -> ()
          | `Error (code, msg) ->
              enqueue conn (Http.response ~status:code ~body:msg ());
              conn.close_after <- true
          | `Req r ->
              let t0 = Mclock.now_ns () in
              let label = Router.route_label r.Http.path in
              let resp = Router.handle ?history store r in
              incr requests;
              Metrics.incr (Lazy.force metric_requests);
              Metrics.incr (route_requests label);
              let us =
                Int64.to_int
                  (Int64.div (Int64.sub (Mclock.now_ns ()) t0) 1_000L)
              in
              Metrics.observe (Lazy.force metric_latency) us;
              Metrics.observe (route_latency label) us;
              if Span.enabled () then begin
                let flow =
                  if String.equal label "observation" then observation_flow r
                  else None
                in
                Span.emit ~cat:"serve" ~name:("req:" ^ label) ~t0_ns:t0
                  ~dur_ns:(Int64.sub (Mclock.now_ns ()) t0)
                  ?flow ()
              end;
              enqueue conn resp;
              (match List.assoc_opt "connection" r.Http.headers with
              | Some v when String.lowercase_ascii v = "close" ->
                  conn.close_after <- true
              | _ -> ());
              if not conn.close_after then drain ()
        in
        drain ();
        flush_out conn
      in
      let read_conn conn =
        match Unix.read conn.fd buf 0 (Bytes.length buf) with
        | 0 -> close conn
        | n ->
            Admission.touch adm ~id:conn.id ~now:(Mclock.now_ns ());
            Http.feed conn.dec buf n;
            serve_requests conn
        | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
            ()
        | exception Unix.Unix_error (_, _, _) -> close conn
      in
      (* no route is known at shed time (the request was never read), so
         shed counters are labelled by admission stage instead *)
      let shed_conn conn ~stage status body =
        incr shed;
        Metrics.incr (Lazy.force metric_shed);
        Metrics.incr (Metrics.counter ("serve.shed." ^ stage));
        enqueue conn (Http.response ~status ~headers:retry_headers ~body ());
        conn.close_after <- true;
        conn.reading <- false;
        flush_out conn
      in
      let accept_all () =
        let rec go () =
          match Unix.accept listen_fd with
          | fd, _ ->
              Unix.set_nonblock fd;
              incr next_id;
              let id = !next_id in
              let conn =
                {
                  fd;
                  id;
                  dec = Http.decoder ();
                  out = "";
                  out_off = 0;
                  close_after = false;
                  reading = false;
                }
              in
              Hashtbl.replace conns id conn;
              (match Admission.on_open adm ~id ~now:(Mclock.now_ns ()) with
              | Admission.Admit -> conn.reading <- true
              | Admission.Park -> ()
              | Admission.Shed ->
                  shed_conn conn ~stage:"accept" 429 "server saturated");
              go ()
          | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _)
            ->
              ()
          | exception Unix.Unix_error (_, _, _) -> ()
        in
        go ()
      in
      let start_ns = Mclock.now_ns () in
      (* one snapshot per second of daemon life, bounded by the ring *)
      let sample_history now =
        match history with
        | Some h when Series.due h ~now ->
            let pct p =
              Option.value ~default:(-1)
                (Metrics.percentile (Lazy.force metric_latency) p)
            in
            Series.push h ~now
              {
                Svhistory.t_ms =
                  Int64.to_int (Int64.div (Int64.sub now start_ns) 1_000_000L);
                requests = !requests;
                shed = !shed;
                timeouts = !timeouts;
                p50_us = pct 50;
                p99_us = pct 99;
              }
        | _ -> ()
      in
      let tick () =
        let now = Mclock.now_ns () in
        sample_history now;
        List.iter
          (fun id ->
            match Hashtbl.find_opt conns id with
            | Some conn -> conn.reading <- true
            | None -> ())
          (Admission.promote adm ~now);
        List.iter
          (fun id ->
            match Hashtbl.find_opt conns id with
            | Some conn -> shed_conn conn ~stage:"queue" 429 "queued too long"
            | None -> ())
          (Admission.expire adm ~now);
        List.iter
          (fun id ->
            match Hashtbl.find_opt conns id with
            | None -> ()
            | Some conn ->
                if Http.buffered conn.dec > 0 then begin
                  (* slow-loris: a partial request that stopped making
                     progress gets a 408 on its way out *)
                  incr timeouts;
                  Metrics.incr (Lazy.force metric_timeouts);
                  enqueue conn
                    (Http.response ~status:408 ~body:"request timeout" ());
                  conn.close_after <- true;
                  conn.reading <- false;
                  flush_out conn
                end
                else close conn)
          (Admission.stale adm ~now);
        on_tick now
      in
      while not (Atomic.get stop) do
        let reads =
          listen_fd
          :: Hashtbl.fold
               (fun _ c acc -> if c.reading then c.fd :: acc else acc)
               conns []
        in
        let writes =
          Hashtbl.fold
            (fun _ c acc ->
              if String.length c.out > c.out_off then c.fd :: acc else acc)
            conns []
        in
        (match Unix.select reads writes [] 0.05 with
        | readable, writable, _ ->
            if List.mem listen_fd readable then accept_all ();
            let by_fd fd =
              Hashtbl.fold
                (fun _ c acc -> if c.fd = fd then Some c else acc)
                conns None
            in
            List.iter
              (fun fd ->
                if fd <> listen_fd then
                  match by_fd fd with
                  | Some conn when conn.reading -> read_conn conn
                  | _ -> ())
              readable;
            List.iter
              (fun fd ->
                match by_fd fd with Some conn -> flush_out conn | None -> ())
              writable
        | exception Unix.Unix_error (EINTR, _, _) -> ());
        tick ()
      done;
      Hashtbl.iter
        (fun _ c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
        conns;
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      Netaddr.cleanup addr;
      Ok { requests = !requests; shed = !shed; timeouts = !timeouts }
