type event =
  | Worker_joined of int
  | Worker_left of int * string
  | Lease_granted of Lease.lease * int
  | Lease_expired of Lease.lease * int
  | Progress of int * int
  | Fallback of int

(* ------------------------------------------------------------------ *)
(* Watchdog-facing liveness state                                      *)
(* ------------------------------------------------------------------ *)

type monitor = {
  mm : Mutex.t;
  mutable live : bool;
  mutable completed : int;
  mutable in_flight : int;
  mutable beats : (int * int64) list;
}

let monitor () =
  { mm = Mutex.create (); live = false; completed = 0; in_flight = 0; beats = [] }

let with_mon mon f =
  Mutex.lock mon.mm;
  Fun.protect ~finally:(fun () -> Mutex.unlock mon.mm) (fun () -> f mon)

let probe mon () =
  match
    with_mon mon (fun m ->
        if m.live then Some (m.completed, m.in_flight, m.beats) else None)
  with
  | None -> Watchdog.pool_probe ()
  | live -> live

let publish mon tracker =
  let beats =
    (* one heartbeat per worker: the freshest of its live leases *)
    let tbl = Hashtbl.create 8 in
    List.iter
      (fun (_, w, beat) ->
        match Hashtbl.find_opt tbl w with
        | Some b when b >= beat -> ()
        | _ -> Hashtbl.replace tbl w beat)
      (Lease.outstanding tracker);
    Hashtbl.fold (fun w b acc -> (w, b) :: acc) tbl [] |> List.sort compare
  in
  with_mon mon (fun m ->
      m.live <- true;
      m.completed <- Lease.collected tracker;
      m.in_flight <- List.length (Lease.outstanding tracker);
      m.beats <- beats)

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  dec : Wire.decoder;
  out : Wire.counters;
  mutable worker : int option;  (** assigned by the Hello handshake *)
  mutable synced : int;  (** cells [0, synced) already delivered *)
  mutable idle : bool;  (** no lease outstanding on this connection *)
}

let send_msg conn msg =
  let payload = Proto.encode msg in
  Wire.count_out conn.out (String.length payload);
  Netaddr.write_all conn.fd (Wire.frame payload)

let sync_batch = 500

exception Drop of string

let default_ttl_ms = 60_000

let serve ~addr ~spec ~workers ?chunk ?(lease_ttl_ms = default_ttl_ms) ?resume
    ?monitor:mon ?fleet ?(telemetry = false) ?status_addr
    ?(status_payload = fun () -> "") ?(on_tick = fun (_ : int64) -> ())
    ?(on_event = fun (_ : event) -> ())
    ?(on_cell = fun (_ : Journal.cell) -> ()) () =
  (* every fleet notification is a no-op when no aggregator is armed *)
  let fl f = match fleet with None -> () | Some t -> f t in
  let tracker = Lease.create ?chunk ~boundaries:(Spec.boundaries spec) () in
  Option.iter (Lease.prefill tracker) resume;
  let ttl_ns = Int64.mul (Int64.of_int lease_ttl_ms) 1_000_000L in
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  let setup addr = Netaddr.listen addr in
  let setup_both () =
    match setup addr with
    | Error e -> Error e
    | Ok listen_fd -> (
        match status_addr with
        | None -> Ok (listen_fd, None)
        | Some sa -> (
            match setup sa with
            | Ok sfd -> Ok (listen_fd, Some sfd)
            | Error e ->
                (try Unix.close listen_fd with Unix.Unix_error _ -> ());
                Error (Printf.sprintf "status socket: %s" e)))
  in
  match setup_both () with
  | Error e -> Error e
  | Ok (listen_fd, status_fd) ->
      let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
      (* outstanding lease grants: lease_id -> (grant time, lo, hi). Fed
         only when telemetry is armed; the lease span is emitted
         retroactively once its Done arrives, originating one causal
         flow per cell index in [lo, hi) so the merged trace links the
         grant to the worker's exec spans. *)
      let grants : (int, int64 * int * int) Hashtbl.t = Hashtbl.create 16 in
      let next_worker = ref 0 in
      let joined = ref 0 in
      let started = ref false in
      let buf = Bytes.create 65536 in
      let drop conn reason =
        Hashtbl.remove conns conn.fd;
        (try Unix.close conn.fd with Unix.Unix_error _ -> ());
        match conn.worker with
        | None -> ()
        | Some w ->
            List.iter
              (fun (_ : Lease.lease) -> ())
              (Lease.release_worker tracker ~worker:w);
            fl (fun t -> Fleet.on_leave t ~worker:w ~now:(Mclock.now_ns ()));
            on_event (Worker_left (w, reason))
      in
      let try_send conn msg =
        try
          send_msg conn msg;
          true
        with Unix.Unix_error (err, _, _) ->
          drop conn (Unix.error_message err);
          false
      in
      let handshaken () =
        Hashtbl.fold
          (fun _ c acc -> if c.worker <> None then c :: acc else acc)
          conns []
      in
      let assign now =
        if !started then
          List.iter
            (fun conn ->
              if conn.idle then
                match conn.worker with
                | None -> ()
                | Some w -> (
                    match Lease.next tracker ~worker:w ~now with
                    | None -> ()
                    | Some lease ->
                        let upto = Lease.sync_upto tracker lease in
                        let ok = ref true in
                        if upto > conn.synced then begin
                          let cells =
                            Lease.range tracker ~lo:conn.synced ~hi:upto
                          in
                          let rec batches = function
                            | [] -> ()
                            | cs ->
                                let rec take n acc = function
                                  | rest when n = 0 -> (List.rev acc, rest)
                                  | [] -> (List.rev acc, [])
                                  | c :: rest -> take (n - 1) (c :: acc) rest
                                in
                                let head, rest = take sync_batch [] cs in
                                if try_send conn (Proto.Sync { cells = head })
                                then batches rest
                                else ok := false
                          in
                          batches cells;
                          if !ok then conn.synced <- upto
                        end;
                        if
                          !ok
                          && try_send conn
                               (Proto.Lease
                                  {
                                    lease_id = lease.Lease.lease_id;
                                    gen = lease.Lease.gen;
                                    lo = lease.Lease.lo;
                                    hi = lease.Lease.hi;
                                  })
                        then begin
                          conn.idle <- false;
                          if telemetry then
                            Hashtbl.replace grants lease.Lease.lease_id
                              (now, lease.Lease.lo, lease.Lease.hi);
                          fl (fun t ->
                              Fleet.on_lease t ~worker:w
                                ~lease_id:lease.Lease.lease_id
                                ~cells:(lease.Lease.hi - lease.Lease.lo) ~now);
                          on_event (Lease_granted (lease, w))
                        end
                        else
                          (* the connection died mid-grant; the drop
                             already requeued the lease *)
                          ()))
            (handshaken ())
      in
      let handle_msg conn now = function
        | Proto.Hello { proto; pid; host } ->
            if proto <> Proto.version then
              raise
                (Drop
                   (Printf.sprintf "protocol version %d (this side runs %d)"
                      proto Proto.version))
            else begin
              let w = !next_worker in
              incr next_worker;
              conn.worker <- Some w;
              conn.idle <- true;
              incr joined;
              fl (fun t -> Fleet.on_join t ~worker:w ~pid ~host ~now);
              if try_send conn (Proto.Welcome { worker_id = w; spec; telemetry })
              then on_event (Worker_joined w)
            end
        | Proto.Cell { lease_id; cell } -> (
            match Lease.record tracker ~lease_id ~now cell with
            | `Fresh ->
                (match conn.worker with
                | Some w -> fl (fun t -> Fleet.on_cell t ~worker:w ~now)
                | None -> ());
                on_cell cell;
                on_event (Progress (Lease.collected tracker, Lease.total tracker))
            | `Dup | `Out_of_range -> ())
        | Proto.Done { lease_id; spans; metrics } ->
            (match conn.worker with
            | Some w ->
                fl (fun t ->
                    Fleet.on_done t ~worker:w ~lease_id ~now;
                    if spans <> [] then Fleet.add_spans t ~worker:w spans;
                    if metrics <> [] then Fleet.on_metrics t ~worker:w metrics)
            | None -> ());
            (match Hashtbl.find_opt grants lease_id with
            | Some (t0_ns, lo, hi) ->
                Hashtbl.remove grants lease_id;
                Span.emit ~cat:"lease"
                  ~name:(Printf.sprintf "lease %d [%d,%d)" lease_id lo hi)
                  ~t0_ns ~dur_ns:(Int64.sub now t0_ns) ~flow:lo
                  ~flow_n:(hi - lo) ()
            | None -> ());
            Lease.finish tracker ~lease_id;
            conn.idle <- true
        | Proto.Beat { queue_depth; rss_kb } -> (
            match conn.worker with
            | Some w ->
                Lease.beat_worker tracker ~worker:w ~now;
                fl (fun t ->
                    Fleet.on_beat t ~worker:w ~now ~queue_depth ~rss_kb)
            | None -> ())
        | Proto.Welcome _ | Proto.Sync _ | Proto.Lease _ | Proto.Shutdown ->
            raise (Drop "unexpected message from worker")
      in
      let serve_status () =
        match status_fd with
        | None -> ()
        | Some sfd -> (
            match Unix.accept sfd with
            | exception Unix.Unix_error _ -> ()
            | cfd, _ ->
                (* one snapshot line per connection, HTTP-free: curl or
                   `campaign status` reads to EOF *)
                (try Netaddr.write_all cfd (status_payload () ^ "\n")
                 with Unix.Unix_error _ -> ());
                (try Unix.close cfd with Unix.Unix_error _ -> ()))
      in
      let handle_readable fd now =
        if Some fd = status_fd then serve_status ()
        else if fd = listen_fd then begin
          match Unix.accept listen_fd with
          | exception Unix.Unix_error _ -> ()
          | cfd, _ ->
              Hashtbl.replace conns cfd
                {
                  fd = cfd;
                  dec = Wire.decoder ();
                  out = Wire.counters ();
                  worker = None;
                  synced = 0;
                  idle = false;
                }
        end
        else
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some conn -> (
              match Unix.read conn.fd buf 0 (Bytes.length buf) with
              | 0 -> drop conn "connection closed"
              | exception Unix.Unix_error (err, _, _) ->
                  drop conn (Unix.error_message err)
              | n -> (
                  Wire.feed conn.dec buf n;
                  try
                    let rec drain () =
                      match Wire.next conn.dec with
                      | `Awaiting -> ()
                      | `Corrupt msg -> raise (Drop ("corrupt frame: " ^ msg))
                      | `Frame payload -> (
                          match Proto.decode payload with
                          | Error e -> raise (Drop ("bad message: " ^ e))
                          | Ok msg ->
                              handle_msg conn now msg;
                              drain ())
                    in
                    drain ()
                  with Drop reason -> drop conn reason))
      in
      let finish () =
        Hashtbl.iter
          (fun _ conn ->
            (try send_msg conn Proto.Shutdown with
            | Unix.Unix_error _ -> ());
            try Unix.close conn.fd with Unix.Unix_error _ -> ())
          conns;
        Hashtbl.reset conns;
        (try Unix.close listen_fd with Unix.Unix_error _ -> ());
        Netaddr.cleanup addr;
        Option.iter
          (fun sfd -> try Unix.close sfd with Unix.Unix_error _ -> ())
          status_fd;
        Option.iter Netaddr.cleanup status_addr;
        Option.iter (fun m -> with_mon m (fun m -> m.live <- false)) mon
      in
      let rec loop () =
        (* completion waits for live leases to drain (Done, worker death
           or expiry), so the last worker's Done is read and everyone
           gets a clean Shutdown instead of a broken pipe *)
        if Lease.complete tracker && Lease.outstanding tracker = [] then begin
          finish ();
          Ok (Lease.cells tracker)
        end
        else if !started && handshaken () = [] && Hashtbl.length conns = 0
        then begin
          (* every worker died and took its leases with it: hand the
             partial cell set back for local completion *)
          on_event
            (Fallback (Lease.total tracker - Lease.collected tracker));
          finish ();
          Ok (Lease.cells tracker)
        end
        else begin
          let fds =
            (match status_fd with Some sfd -> [ sfd ] | None -> [])
            @ listen_fd
              :: Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
          in
          let readable, _, _ =
            try Unix.select fds [] [] 0.25
            with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
          in
          let now = Mclock.now_ns () in
          List.iter (fun fd -> handle_readable fd now) readable;
          if (not !started) && !joined >= workers then started := true;
          List.iter
            (fun (lease, w) ->
              on_event (Lease_expired (lease, w));
              (* the worker may be wedged mid-lease: its connection
                 stays (it may recover and stream late, harmlessly),
                 but the lease is free for someone else *)
              ())
            (Lease.expire tracker ~now ~ttl_ns);
          assign now;
          Option.iter (fun m -> publish m tracker) mon;
          fl (fun t ->
              List.iter
                (fun conn ->
                  match conn.worker with
                  | None -> ()
                  | Some w ->
                      let i = Wire.ingress conn.dec in
                      Fleet.set_wire t ~worker:w ~frames_in:i.Wire.frames
                        ~bytes_in:i.Wire.bytes ~frames_out:conn.out.Wire.frames
                        ~bytes_out:conn.out.Wire.bytes)
                (handshaken ()));
          on_tick now;
          loop ()
        end
      in
      let result = try loop () with e -> finish (); raise e in
      result
