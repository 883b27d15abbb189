type progress =
  | Connected of int
  | Leased of { gen : int; lo : int; hi : int }
  | Finished of { lease_id : int; executed : int }

let default_retries = 20
let retry_pause = 0.5
let beat_ms = 1000

exception Fail of string

(* blocking read of the next protocol message *)
let recv fd dec buf =
  let rec go () =
    match Wire.next dec with
    | `Frame payload -> (
        match Proto.decode payload with
        | Ok msg -> msg
        | Error e -> raise (Fail ("bad message: " ^ e)))
    | `Corrupt msg -> raise (Fail ("corrupt frame: " ^ msg))
    | `Awaiting -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> raise (Fail "connection closed by coordinator")
        | exception Unix.Unix_error (err, _, _) ->
            raise (Fail (Printf.sprintf "recv: %s" (Unix.error_message err)))
        | n ->
            Wire.feed dec buf n;
            go ())
  in
  go ()

let connect ~addr ~retries =
  match Netaddr.connect ~retries ~pause:retry_pause addr with
  | Ok fd -> fd
  | Error e -> raise (Fail e)

(* liveness with the local pool's queue depth and the RSS *)
let beat () =
  let queue_depth =
    match Pool.current () with
    | Some p -> (Pool.stats p).Pool.in_flight
    | None -> 0
  in
  Proto.Beat { queue_depth; rss_kb = Hostinfo.rss_kb () }

(* the heartbeat domain: one {!beat} between naps. Sends share the
   connection mutex with the serving domain; a send failure here is
   swallowed — the serving domain will hit the same broken socket and
   report it properly *)
let beater ~send ~stop =
  Domain.spawn (fun () ->
      let rec nap n =
        if n > 0 && not (Atomic.get stop) then begin
          Unix.sleepf 0.1;
          nap (n - 1)
        end
      in
      while not (Atomic.get stop) do
        nap (beat_ms / 100);
        if not (Atomic.get stop) then
          try send (beat ()) with Fail _ | Unix.Unix_error _ -> ()
      done)

let run_lease ~send ~jobs ~spec ~known ~record ~telemetry ~lease_id ~gen ~lo
    ~hi =
  let spec = Spec.clamp spec ~gen in
  let executed = ref 0 in
  let sink (c : Journal.cell) =
    (* the run replays the synced prefix and fabricates placeholders
       outside the shard; only the leased range is real — and only it
       leaves this process *)
    if c.Journal.index >= lo && c.Journal.index < hi then begin
      record c;
      send (Proto.Cell { lease_id; cell = c });
      incr executed
    end
  in
  let (_ : Spec.summary) =
    Spec.run_local ?jobs ~sink ~resume:known
      ~exec_filter:(fun i -> i >= lo && i < hi)
      spec
  in
  (* the RSS after execution reaches the coordinator before the lease
     closes, however short the session *)
  send (beat ());
  (* the pool has joined its domains, so draining here races nothing *)
  let spans = if telemetry then Span.drain () else [] in
  let metrics = if telemetry then Metrics.counters () else [] in
  send (Proto.Done { lease_id; spans; metrics });
  !executed

let run ~addr ?jobs ?(retries = default_retries) ?journal
    ?(on_progress = fun _ -> ()) () =
  (match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | _ -> ()
  | exception Invalid_argument _ -> ());
  match
    let fd = connect ~addr ~retries in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let dec = Wire.decoder () in
        let buf = Bytes.create 65536 in
        let out = Wire.counters () in
        let sm = Mutex.create () in
        let send msg =
          Mutex.lock sm;
          Fun.protect
            ~finally:(fun () -> Mutex.unlock sm)
            (fun () ->
              let payload = Proto.encode msg in
              Wire.count_out out (String.length payload);
              Netaddr.write_all fd (Wire.frame payload))
        in
        send
          (Proto.Hello
             {
               proto = Proto.version;
               pid = Unix.getpid ();
               host = Unix.gethostname ();
             });
        let spec, telemetry =
          match recv fd dec buf with
          | Proto.Welcome { worker_id; spec; telemetry } ->
              on_progress (Connected worker_id);
              (spec, telemetry)
          | _ -> raise (Fail "expected welcome")
        in
        (* the first beat leaves now, not a beater's nap later, so a
           session shorter than one nap still reports its facts *)
        send (beat ());
        if telemetry then begin
          Span.reset ();
          Span.enable ()
        end;
        (* the per-worker journal: every cell this worker ever executed,
           durably appended in arrival order. A restarted worker replays
           it — cells from a killed lease that land in a new lease are
           streamed from the journal instead of re-executed *)
        let jw, mine =
          match journal with
          | None -> (None, [])
          | Some path -> (
              match Journal.append ~path (Spec.header spec) with
              | Ok (w, cells) -> (Some w, cells)
              | Error e -> raise (Fail (Journal.error_to_string e)))
        in
        let written = Hashtbl.create 64 in
        List.iter (fun c -> Hashtbl.replace written (Journal.key c) ()) mine;
        let record c =
          match jw with
          | None -> ()
          | Some w ->
              let k = Journal.key c in
              if not (Hashtbl.mem written k) then begin
                Hashtbl.replace written k ();
                Journal.write_cell w c
              end
        in
        (* synced cells arrive as a growing prefix in index order; kept
           reversed for O(1) extension *)
        let known_rev = ref [] in
        let total = ref 0 in
        let rec serve () =
          match recv fd dec buf with
          | Proto.Sync { cells } ->
              List.iter (fun c -> known_rev := c :: !known_rev) cells;
              serve ()
          | Proto.Lease { lease_id; gen; lo; hi } ->
              on_progress (Leased { gen; lo; hi });
              let executed =
                run_lease ~send ~jobs ~spec
                  ~known:(mine @ List.rev !known_rev)
                  ~record ~telemetry ~lease_id ~gen ~lo ~hi
              in
              total := !total + executed;
              on_progress (Finished { lease_id; executed });
              serve ()
          | Proto.Shutdown ->
              Option.iter Journal.commit jw;
              !total
          | Proto.Hello _ | Proto.Welcome _ | Proto.Cell _ | Proto.Done _
          | Proto.Beat _ ->
              raise (Fail "unexpected message from coordinator")
        in
        let stop = Atomic.make false in
        let bd = beater ~send ~stop in
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Domain.join bd)
          serve)
  with
  | total -> Ok total
  | exception Fail msg -> Error msg
  | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
