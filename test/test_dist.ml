(* The distributed fabric: wire framing robustness (torn, truncated,
   corrupt and oversized frames), the checksummed protocol codec and a
   decoder that survives random and damaged input, the refusal of a
   peer of another protocol version, the lease tracker's awkward
   corners (duplicates, out-of-order replies, expiry, worker death),
   the scratch-journal append mode — and the
   subsystem's headline property: a coordinator plus loopback workers
   collect a cell set byte-identical to the single-process run, even
   when a worker dies mid-lease after streaming garbage-ordered
   duplicates. Every campaign's shard run streams its lease exactly as
   the single-process run does and counts only the leased cells. *)

let cell_str c = Jsonl.to_string (Journal.cell_to_json c)

let check_cells label expected got =
  Alcotest.(check (list string))
    label
    (List.map cell_str expected)
    (List.map cell_str got)

let mk_cell ?(mode = "m") ?(opt = "-") ?(config = 1) index =
  {
    Journal.index;
    seed = 1000 + index;
    mode;
    config;
    opt;
    outcomes = [ Outcome.Success (Printf.sprintf "v%d" index) ];
    note = "";
  }

(* --- wire framing --- *)

let drain dec =
  let rec go acc =
    match Wire.next dec with
    | `Frame p -> go (p :: acc)
    | `Awaiting -> Ok (List.rev acc)
    | `Corrupt m -> Error m
  in
  go []

let test_wire_roundtrip () =
  let payloads = [ "a"; ""; String.make 5000 'x'; "{\"k\":\"v\"}" ] in
  (* all frames in one feed *)
  let dec = Wire.decoder () in
  Wire.feed_string dec (String.concat "" (List.map Wire.frame payloads));
  (match drain dec with
  | Ok got -> Alcotest.(check (list string)) "one feed" payloads got
  | Error m -> Alcotest.failf "corrupt: %s" m);
  (* the same bytes fed one byte at a time *)
  let dec = Wire.decoder () in
  let got = ref [] in
  String.iter
    (fun ch ->
      Wire.feed_string dec (String.make 1 ch);
      match drain dec with
      | Ok ps -> got := !got @ ps
      | Error m -> Alcotest.failf "corrupt byte-by-byte: %s" m)
    (String.concat "" (List.map Wire.frame payloads));
  Alcotest.(check (list string)) "byte-by-byte" payloads !got

let test_wire_torn () =
  let whole = Wire.frame "hello world" in
  (* every strict prefix is a clean [`Awaiting], never corruption *)
  for cut = 0 to String.length whole - 1 do
    let dec = Wire.decoder () in
    Wire.feed_string dec (String.sub whole 0 cut);
    match Wire.next dec with
    | `Awaiting -> ()
    | `Frame _ -> Alcotest.failf "prefix of %d bytes produced a frame" cut
    | `Corrupt m -> Alcotest.failf "prefix of %d bytes corrupt: %s" cut m
  done

let corrupt_after label bytes =
  let dec = Wire.decoder () in
  Wire.feed_string dec bytes;
  (match Wire.next dec with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.failf "%s not flagged" label);
  (* corruption is sticky: feeding a good frame does not resynchronise *)
  Wire.feed_string dec (Wire.frame "good");
  match Wire.next dec with
  | `Corrupt _ -> ()
  | `Frame _ | `Awaiting -> Alcotest.failf "%s corruption not sticky" label

let test_wire_corrupt () =
  corrupt_after "non-numeric length" "nope\npayload\n";
  corrupt_after "negative length" "-4\nabcd\n";
  corrupt_after "oversized length"
    (Printf.sprintf "%d\n" (Wire.max_frame + 1));
  corrupt_after "bad terminator" "4\nabcdX";
  (* a length header longer than max_frame's digits is rejected without
     waiting for the newline *)
  corrupt_after "runaway length header" (String.make 32 '9')

(* --- protocol codec --- *)

let small_spec campaign =
  match
    Spec.make ~campaign ~n:1 ~config_ids:[ 1; 12 ] ~gen_size:2 ()
  with
  | Ok s -> s
  | Error m -> Alcotest.failf "spec: %s" m

let exec_span =
  {
    Span.cat = "exec";
    name = "exec:1-";
    t0_ns = 12345L;
    dur_ns = 678L;
    domain = 2;
    task = 7;
    flow = 17;
    flow_n = 0;
  }

(* every message kind, Welcome and Done with and without telemetry *)
let sample_msgs () =
  [
    Proto.Hello { proto = Proto.version; pid = 42; host = "h" };
    Proto.Welcome
      { worker_id = 3; spec = small_spec "table4"; telemetry = false };
    Proto.Welcome { worker_id = 0; spec = small_spec "fuzz"; telemetry = true };
    Proto.Sync { cells = [ mk_cell 0; mk_cell 1 ] };
    Proto.Lease { lease_id = 9; gen = 2; lo = 16; hi = 24 };
    Proto.Cell { lease_id = 9; cell = mk_cell 17 };
    Proto.Done { lease_id = 9; spans = []; metrics = [] };
    Proto.Done
      {
        lease_id = 10;
        spans = [ exec_span; { exec_span with flow = -1; task = -1 } ];
        metrics = [ ("cells.total", 3); ("interp.steps", 99) ];
      };
    Proto.Beat { queue_depth = 3; rss_kb = 51200 };
    Proto.Shutdown;
  ]

let test_proto_roundtrip () =
  List.iter
    (fun m ->
      let s = Proto.encode m in
      match Proto.decode s with
      | Error e -> Alcotest.failf "decode failed: %s (%s)" e s
      | Ok m' ->
          Alcotest.(check string)
            "re-encode is stable" s (Proto.encode m'))
    (sample_msgs ())

let test_proto_checksum () =
  List.iter
    (fun m ->
      let s = Proto.encode m in
      (* flip one payload byte: the per-line MD5 must catch it *)
      let i = String.length s / 2 in
      let flipped =
        String.mapi
          (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c)
          s
      in
      match Proto.decode flipped with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "flipped byte accepted: %s" s)
    (sample_msgs ())

(* --- decoder fuzzing --- *)

(* one generator per message kind, over arbitrary ints and bytes *)
let gen_kinds =
  let open QCheck.Gen in
  let str = string_size ~gen:char (0 -- 8) in
  let outcome =
    oneof
      [
        map (fun v -> Outcome.Success v) str;
        map (fun v -> Outcome.Build_failure v) str;
        map (fun v -> Outcome.Crash v) str;
        return Outcome.Timeout;
        map (fun v -> Outcome.Machine_crash v) str;
        map (fun v -> Outcome.Ub v) str;
      ]
  in
  let cell =
    let+ index = int
    and+ seed = int
    and+ mode = str
    and+ config = int
    and+ opt = oneofl [ "-"; "+"; "*" ]
    and+ outcomes = list_size (0 -- 3) outcome
    and+ note = str in
    { Journal.index; seed; mode; config; opt; outcomes; note }
  in
  let spec =
    let+ campaign = oneofl Spec.campaigns
    and+ n = int
    and+ seed0 = int
    and+ fuel = opt int
    and+ config_ids = opt (list_size (0 -- 4) int)
    and+ variants = int
    and+ feedback = bool
    and+ gen_size = int
    and+ minimize = bool in
    {
      Spec.campaign;
      n;
      seed0;
      fuel;
      config_ids;
      variants;
      feedback;
      gen_size;
      minimize;
    }
  in
  let span =
    let+ cat = str
    and+ name = str
    and+ t0 = int
    and+ dur = int
    and+ domain = int
    and+ task = int
    and+ flow = int
    and+ flow_n = int in
    {
      Span.cat;
      name;
      t0_ns = Int64.of_int t0;
      dur_ns = Int64.of_int dur;
      domain;
      task;
      flow;
      flow_n;
    }
  in
  [
    (let+ proto = int and+ pid = int and+ host = str in
     Proto.Hello { proto; pid; host });
    (let+ worker_id = int and+ spec = spec and+ telemetry = bool in
     Proto.Welcome { worker_id; spec; telemetry });
    map (fun cells -> Proto.Sync { cells }) (list_size (0 -- 3) cell);
    (let+ lease_id = int and+ gen = int and+ lo = int and+ hi = int in
     Proto.Lease { lease_id; gen; lo; hi });
    (let+ lease_id = int and+ cell = cell in
     Proto.Cell { lease_id; cell });
    (let+ lease_id = int
     and+ spans = list_size (0 -- 3) span
     and+ metrics = list_size (0 -- 3) (pair str int) in
     Proto.Done { lease_id; spans; metrics });
    (let+ queue_depth = int and+ rss_kb = int in
     Proto.Beat { queue_depth; rss_kb });
    return Proto.Shutdown;
  ]

let arb_of gen =
  QCheck.make
    ~print:(fun ms -> String.concat "\n" (List.map Proto.encode ms))
    gen

(* one message of each of the eight kinds *)
let arb_each = arb_of (QCheck.Gen.flatten_l gen_kinds)

(* a short run of messages of any kinds *)
let arb_run = arb_of QCheck.Gen.(list_size (1 -- 4) (oneof gen_kinds))

(* [decode] answers [Ok] or [Error] and never raises *)
let returns s =
  match Proto.decode s with
  | Ok _ | Error _ -> ()
  | exception e ->
      QCheck.Test.fail_reportf "decode %S raised %s" s (Printexc.to_string e)

let prop_random_strings =
  let json_char =
    QCheck.Gen.(
      frequency
        [
          (1, char);
          (2, oneofl [ '{'; '}'; '['; ']'; '"'; ':'; ','; '0'; '7'; '-'; 'm' ]);
        ])
  in
  QCheck.Test.make ~count:3000 ~name:"decode returns on random strings"
    (QCheck.make ~print:(Printf.sprintf "%S")
       QCheck.Gen.(string_size ~gen:json_char (0 -- 120)))
    (fun s ->
      returns s;
      true)

let flip s i =
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s

(* every byte flipped and every cut, of the line as sent (the checksum's
   catch) and of its object resealed under a fresh checksum (the typed
   decoder's catch); and every top-level member dropped, which must be
   an error, or given a value of each JSON type *)
let prop_damage =
  QCheck.Test.make ~count:25
    ~name:"decode returns on any damage" arb_each
    (fun msgs ->
      List.iter
        (fun m ->
          let line = Proto.encode m in
          let fields =
            match Jsonl.decode_line line with
            | Ok fields -> fields
            | Error e -> QCheck.Test.fail_reportf "%s: %s" line e
          in
          let body = Jsonl.to_string (Jsonl.Obj fields) in
          let resealed s =
            match Jsonl.of_string s with
            | Ok (Jsonl.Obj fs) -> returns (Jsonl.encode_line fs)
            | Ok _ | Error _ -> ()
          in
          for i = 0 to String.length line - 1 do
            returns (flip line i);
            returns (String.sub line 0 i)
          done;
          for i = 0 to String.length body - 1 do
            resealed (flip body i);
            resealed (String.sub body 0 i)
          done;
          List.iter
            (fun (k, _) ->
              let without = List.filter (fun (k', _) -> k' <> k) fields in
              (match Proto.decode (Jsonl.encode_line without) with
              | Error _ -> ()
              | Ok _ -> QCheck.Test.fail_reportf "%s without %S decoded" line k
              | exception e ->
                  QCheck.Test.fail_reportf "%s without %S raised %s" line k
                    (Printexc.to_string e));
              List.iter
                (fun v ->
                  returns
                    (Jsonl.encode_line
                       (List.map
                          (fun (k', v') -> (k', if k' = k then v else v'))
                          fields)))
                Jsonl.[ Null; Bool true; Int 0; Str ""; List []; Obj [] ])
            fields)
        msgs;
      true)

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"every kind re-encodes byte-identically"
    arb_each
    (List.for_all (fun m ->
         let s = Proto.encode m in
         match Proto.decode s with
         | Ok m' -> String.equal s (Proto.encode m')
         | Error e -> QCheck.Test.fail_reportf "%s: %s" s e))

let prop_stream_splits =
  QCheck.Test.make ~count:30
    ~name:"any split of a stream = one feed"
    arb_run
    (fun msgs ->
      let payloads = List.map Proto.encode msgs in
      let stream = String.concat "" (List.map Wire.frame payloads) in
      let feed parts =
        let dec = Wire.decoder () in
        List.concat_map
          (fun part ->
            Wire.feed_string dec part;
            match drain dec with
            | Ok ps -> ps
            | Error e -> QCheck.Test.fail_reportf "corrupt: %s" e)
          parts
      in
      let whole = feed [ stream ] in
      if whole <> payloads then QCheck.Test.fail_report "one feed";
      let len = String.length stream in
      for k = 0 to len do
        if feed [ String.sub stream 0 k; String.sub stream k (len - k) ] <> whole
        then QCheck.Test.fail_reportf "split at %d of %d" k len
      done;
      true)

let test_addr_parse () =
  (match Netaddr.of_string "unix:/tmp/x.sock" with
  | Ok (Netaddr.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix addr");
  (match Netaddr.of_string "127.0.0.1:9000" with
  | Ok (Netaddr.Tcp ("127.0.0.1", 9000)) -> ()
  | _ -> Alcotest.fail "tcp addr");
  List.iter
    (fun s ->
      match Netaddr.of_string s with
      | Ok _ -> Alcotest.failf "accepted %S" s
      | Error _ -> ())
    [ "noport"; "host:"; "host:notint"; "host:0"; "host:70000"; "" ]

(* --- lease tracker --- *)

let test_lease_lifecycle () =
  let t = Lease.create ~chunk:4 ~boundaries:[ (0, 10) ] () in
  Alcotest.(check int) "total" 10 (Lease.total t);
  let l1 = Option.get (Lease.next t ~worker:0 ~now:0L) in
  Alcotest.(check (pair int int)) "first lease" (0, 4) (l1.Lease.lo, l1.Lease.hi);
  Alcotest.(check int) "no dependencies" 0 (Lease.sync_upto t l1);
  let l2 = Option.get (Lease.next t ~worker:1 ~now:0L) in
  Alcotest.(check (pair int int)) "second lease" (4, 8) (l2.Lease.lo, l2.Lease.hi);
  (* out-of-order arrival within the lease, then duplicates *)
  List.iter
    (fun i ->
      match Lease.record t ~lease_id:l1.Lease.lease_id ~now:1L (mk_cell i) with
      | `Fresh -> ()
      | _ -> Alcotest.failf "cell %d not fresh" i)
    [ 3; 1; 0; 2 ];
  (match Lease.record t ~lease_id:l1.Lease.lease_id ~now:2L (mk_cell 3) with
  | `Dup -> ()
  | _ -> Alcotest.fail "duplicate not folded");
  (match Lease.record t ~lease_id:l1.Lease.lease_id ~now:2L (mk_cell 99) with
  | `Out_of_range -> ()
  | _ -> Alcotest.fail "out-of-range accepted");
  Lease.finish t ~lease_id:l1.Lease.lease_id;
  (* a cell from an unknown (already-finished) lease still counts:
     determinism makes a late duplicate's bytes correct *)
  (match Lease.record t ~lease_id:l2.Lease.lease_id ~now:3L (mk_cell 4) with
  | `Fresh -> ()
  | _ -> Alcotest.fail "late cell refused");
  Alcotest.(check int) "collected" 5 (Lease.collected t);
  check_cells "range" [ mk_cell 0; mk_cell 1 ] (Lease.range t ~lo:0 ~hi:2)

let test_lease_expiry () =
  let t = Lease.create ~chunk:8 ~boundaries:[ (0, 8) ] () in
  let l = Option.get (Lease.next t ~worker:0 ~now:0L) in
  ignore (Lease.record t ~lease_id:l.Lease.lease_id ~now:100L (mk_cell 0));
  (* the streamed cell refreshed the heartbeat, so expiry is measured
     from it *)
  Alcotest.(check int) "fresh lease survives" 0
    (List.length (Lease.expire t ~now:150L ~ttl_ns:100L));
  (match Lease.expire t ~now:201L ~ttl_ns:100L with
  | [ (l', w) ] ->
      Alcotest.(check int) "expired lease" l.Lease.lease_id l'.Lease.lease_id;
      Alcotest.(check int) "expired worker" 0 w
  | other -> Alcotest.failf "%d leases expired" (List.length other));
  (* the uncollected remainder is leasable again; the collected cell is
     not re-granted *)
  let l2 = Option.get (Lease.next t ~worker:1 ~now:300L) in
  Alcotest.(check (pair int int)) "requeued range" (1, 8)
    (l2.Lease.lo, l2.Lease.hi);
  (* worker death requeues the same way *)
  (match Lease.release_worker t ~worker:1 with
  | [ l' ] -> Alcotest.(check int) "released" l2.Lease.lease_id l'.Lease.lease_id
  | other -> Alcotest.failf "%d leases released" (List.length other));
  let l3 = Option.get (Lease.next t ~worker:2 ~now:400L) in
  Alcotest.(check (pair int int)) "re-requeued range" (1, 8)
    (l3.Lease.lo, l3.Lease.hi)

let test_lease_generations () =
  let t = Lease.create ~chunk:2 ~boundaries:[ (0, 4); (4, 8) ] () in
  Alcotest.(check int) "frontier opens at 0" 0 (Lease.frontier t);
  let l1 = Option.get (Lease.next t ~worker:0 ~now:0L) in
  let l2 = Option.get (Lease.next t ~worker:1 ~now:0L) in
  (* the whole frontier generation is covered by live leases: the next
     generation must NOT open early *)
  Alcotest.(check bool) "no cross-generation lease" true
    (Lease.next t ~worker:2 ~now:0L = None);
  List.iter
    (fun i -> ignore (Lease.record t ~lease_id:l1.Lease.lease_id ~now:1L (mk_cell i)))
    [ 0; 1 ];
  Lease.finish t ~lease_id:l1.Lease.lease_id;
  Alcotest.(check bool) "generation still incomplete" true
    (Lease.next t ~worker:2 ~now:1L = None);
  List.iter
    (fun i -> ignore (Lease.record t ~lease_id:l2.Lease.lease_id ~now:2L (mk_cell i)))
    [ 2; 3 ];
  Lease.finish t ~lease_id:l2.Lease.lease_id;
  Alcotest.(check int) "frontier advanced" 1 (Lease.frontier t);
  let l3 = Option.get (Lease.next t ~worker:2 ~now:3L) in
  Alcotest.(check (pair int int)) "generation-1 lease" (4, 6)
    (l3.Lease.lo, l3.Lease.hi);
  Alcotest.(check int) "generation-1 sync prefix" 4 (Lease.sync_upto t l3)

let test_lease_prefill () =
  let t = Lease.create ~chunk:4 ~boundaries:[ (0, 6) ] () in
  Lease.prefill t [ mk_cell 0; mk_cell 1; mk_cell 5; mk_cell 99 ];
  Alcotest.(check int) "prefilled" 3 (Lease.collected t);
  let l = Option.get (Lease.next t ~worker:0 ~now:0L) in
  (* the free run stops at the already-collected cell 5 *)
  Alcotest.(check (pair int int)) "lease skips known cells" (2, 5)
    (l.Lease.lo, l.Lease.hi);
  List.iter
    (fun i -> ignore (Lease.record t ~lease_id:l.Lease.lease_id ~now:1L (mk_cell i)))
    [ 2; 3; 4 ];
  Lease.finish t ~lease_id:l.Lease.lease_id;
  Alcotest.(check bool) "complete" true (Lease.complete t);
  check_cells "index order with prefill"
    (List.map mk_cell [ 0; 1; 2; 3; 4; 5 ])
    (Lease.cells t)

(* --- scratch journal (append mode) --- *)

let test_journal_append () =
  let path = Filename.temp_file "dist_scratch" ".jsonl" in
  Sys.remove path;
  let header =
    Journal.make_header ~campaign:"t" ~ident:[ ("a", "1") ] ~scale:[]
  in
  (match Journal.append ~path header with
  | Error e -> Alcotest.failf "fresh append: %s" (Journal.error_to_string e)
  | Ok (w, cells) ->
      Alcotest.(check int) "fresh file has no cells" 0 (List.length cells);
      Journal.write_cell w (mk_cell 1);
      Journal.write_cell w (mk_cell 0);
      Journal.commit w);
  (* reopen: arrival order preserved, appends continue in place *)
  (match Journal.append ~path header with
  | Error e -> Alcotest.failf "reopen: %s" (Journal.error_to_string e)
  | Ok (w, cells) ->
      check_cells "arrival order" [ mk_cell 1; mk_cell 0 ] cells;
      Journal.write_cell w (mk_cell 2);
      Journal.commit w);
  (* a torn final line is dropped, the good prefix survives *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"torn";
  close_out oc;
  (match Journal.append ~path header with
  | Error e -> Alcotest.failf "torn reopen: %s" (Journal.error_to_string e)
  | Ok (w, cells) ->
      check_cells "torn tail dropped"
        [ mk_cell 1; mk_cell 0; mk_cell 2 ]
        cells;
      Journal.commit w);
  (* a record cut just before its '\n' is not committed either: dropped
     on reopen, and the next append lands after the repaired tail *)
  let ic = open_in_bin path in
  let data = really_input_string ic (in_channel_length ic) in
  close_in ic;
  let oc = open_out_bin path in
  output_string oc (String.sub data 0 (String.length data - 1));
  close_out oc;
  (match Journal.append ~path header with
  | Error e -> Alcotest.failf "unterminated reopen: %s" (Journal.error_to_string e)
  | Ok (w, cells) ->
      check_cells "unterminated record dropped" [ mk_cell 1; mk_cell 0 ] cells;
      Journal.write_cell w (mk_cell 3);
      Journal.commit w);
  (match Journal.load ~path with
  | Error e -> Alcotest.failf "reload: %s" (Journal.error_to_string e)
  | Ok (_, cells, torn) ->
      Alcotest.(check bool) "clean after the append" false torn;
      check_cells "appended after the repair"
        [ mk_cell 1; mk_cell 0; mk_cell 3 ]
        cells);
  (* identity mismatch still refused *)
  let other =
    Journal.make_header ~campaign:"t" ~ident:[ ("a", "2") ] ~scale:[]
  in
  (match Journal.append ~path other with
  | Error (Journal.Mismatch _) -> ()
  | _ -> Alcotest.fail "identity mismatch accepted");
  Sys.remove path

(* --- loopback fabric integration --- *)

let with_sock f =
  let path = Filename.temp_file "dist" ".sock" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f (Netaddr.Unix_sock path))

let ground_truth spec =
  let cells = ref [] in
  let (_ : Spec.summary) =
    Spec.run_local ~jobs:1 ~sink:(fun c -> cells := c :: !cells) spec
  in
  List.rev !cells

(* run a coordinator over [clients] (each a thunk spawned in its own
   domain) and return the collected cell set *)
let fabric ?chunk ~workers ~clients spec =
  with_sock @@ fun addr ->
  let doms = List.map (fun th -> Domain.spawn (fun () -> th addr)) clients in
  let res = Coordinator.serve ~addr ~spec ~workers ?chunk () in
  List.iter Domain.join doms;
  match res with
  | Ok cells -> cells
  | Error e -> Alcotest.failf "coordinator: %s" e

let worker addr =
  match Dist_worker.run ~addr ~jobs:1 () with
  | Ok (_ : int) -> ()
  | Error e -> Alcotest.failf "worker: %s" e

let test_fabric_table () =
  let spec = small_spec "table4" in
  let truth = ground_truth spec in
  let cells =
    fabric ~chunk:5 ~workers:2 ~clients:[ worker; worker ] spec
  in
  check_cells "table4 grid over 2 workers" truth cells;
  (* the merge of the collected set replays without executing: its
     journal stream is the single-process stream *)
  let merged = ref [] in
  let (_ : Spec.summary) =
    Spec.run_local ~jobs:1 ~sink:(fun c -> merged := c :: !merged)
      ~resume:cells spec
  in
  check_cells "merged journal stream" truth (List.rev !merged)

let test_fabric_fuzz () =
  (* two generations: leases cross a sync barrier, so workers run the
     frontier only after receiving the complete prefix *)
  let spec =
    match
      Spec.make ~campaign:"fuzz" ~n:4 ~config_ids:[ 1; 12 ] ~gen_size:2 ()
    with
    | Ok s -> s
    | Error m -> Alcotest.failf "spec: %s" m
  in
  Alcotest.(check int) "two generations" 2
    (List.length (Spec.boundaries spec));
  let truth = ground_truth spec in
  let cells = fabric ~workers:2 ~clients:[ worker; worker ] spec in
  check_cells "fuzz generations over 2 workers" truth cells

(* a hand-rolled peer's socket, retried until the coordinator listens *)
let connect_raw addr =
  let sa =
    match Netaddr.sockaddr_of addr with
    | Ok s -> s
    | Error e -> failwith e
  in
  let rec conn tries =
    let fd = Unix.socket (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
    match Unix.connect fd sa with
    | () -> fd
    | exception Unix.Unix_error _ when tries > 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Unix.sleepf 0.05;
        conn (tries - 1)
  in
  conn 100

(* a protocol-conformant client that takes a lease, streams half of it
   in reverse order with a duplicate, then dies without Done — the
   torn-worker case the lease tracker must absorb *)
let half_shard_client truth addr =
  let fd = connect_raw addr in
  let dec = Wire.decoder () in
  let buf = Bytes.create 4096 in
  let send msg =
    let s = Wire.frame (Proto.encode msg) in
    ignore (Unix.write_substring fd s 0 (String.length s))
  in
  let rec recv () =
    match Wire.next dec with
    | `Frame p -> (
        match Proto.decode p with Ok m -> m | Error e -> failwith e)
    | `Corrupt e -> failwith e
    | `Awaiting -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> failwith "closed"
        | n ->
            Wire.feed dec buf n;
            recv ())
  in
  send (Proto.Hello { proto = Proto.version; pid = 0; host = "half" });
  let rec until_lease () =
    match recv () with
    | Proto.Lease { lease_id; lo; hi; _ } -> (lease_id, lo, hi)
    | _ -> until_lease ()
  in
  let lease_id, lo, hi = until_lease () in
  let half = lo + ((hi - lo) / 2) in
  let mine =
    List.filter
      (fun c -> c.Journal.index >= lo && c.Journal.index < half)
      truth
  in
  (* reverse order, then one duplicate: arrival order must not matter *)
  List.iter
    (fun cell -> send (Proto.Cell { lease_id; cell }))
    (List.rev mine);
  (match mine with
  | cell :: _ -> send (Proto.Cell { lease_id; cell })
  | [] -> ());
  (* die mid-lease: no Done, just a dropped connection *)
  Unix.close fd

(* a hand-rolled coordinator leases a real worker five cells: after the
   lease's last Cell and before its Done comes a Beat, so the final
   status holds the RSS measured after execution *)
let test_beat_before_done () =
  let spec = small_spec "table4" in
  with_sock @@ fun addr ->
  let lfd =
    match Netaddr.listen addr with Ok fd -> fd | Error e -> Alcotest.fail e
  in
  let d = Domain.spawn (fun () -> worker addr) in
  let fd, _ = Unix.accept lfd in
  let dec = Wire.decoder () and buf = Bytes.create 65536 in
  let send msg = Netaddr.write_all fd (Wire.frame (Proto.encode msg)) in
  let rec recv () =
    match Wire.next dec with
    | `Frame p -> (
        match Proto.decode p with Ok m -> m | Error e -> Alcotest.fail e)
    | `Corrupt e -> Alcotest.fail e
    | `Awaiting ->
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then Alcotest.fail "worker closed";
        Wire.feed dec buf n;
        recv ()
  in
  (match recv () with
  | Proto.Hello _ -> ()
  | _ -> Alcotest.fail "expected hello");
  send (Proto.Welcome { worker_id = 0; spec; telemetry = false });
  send (Proto.Lease { lease_id = 0; gen = 0; lo = 0; hi = 5 });
  (* what arrived, oldest first, up to the Done *)
  let rec until_done acc =
    match recv () with
    | Proto.Done _ -> List.rev acc
    | m -> until_done (m :: acc)
  in
  let msgs = until_done [] in
  send Proto.Shutdown;
  Domain.join d;
  Unix.close fd;
  Unix.close lfd;
  let cells = List.filter (function Proto.Cell _ -> true | _ -> false) msgs in
  Alcotest.(check int) "the lease's cells streamed" 5 (List.length cells);
  match List.rev msgs with
  | Proto.Beat { rss_kb; _ } :: Proto.Cell _ :: _ ->
      Alcotest.(check bool) "the closing beat carries the RSS" true (rss_kb > 0)
  | _ -> Alcotest.fail "no Beat between the last Cell and Done"

(* the fleet aggregator riding a real fabric run: per-worker cell
   attribution must cover the grid, and the status line must survive a
   decode/re-encode roundtrip *)
let test_fabric_fleet () =
  let spec = small_spec "table4" in
  let truth = ground_truth spec in
  with_sock @@ fun addr ->
  let fleet = Fleet.create ~total:(List.length truth) ~now:(Mclock.now_ns ()) () in
  (* a worker reports its facts from the start: by its first streamed
     cell, its row already holds the RSS of the beat sent on Welcome *)
  let first_rss = ref None in
  let on_cell _ =
    if !first_rss = None then
      first_rss :=
        Some
          (List.map
             (fun (r : Fleet.row) -> r.Fleet.rss_kb)
             (Fleet.snapshot fleet ~now:(Mclock.now_ns ()) ~collected:0
                ~in_flight:0)
               .Fleet.rows)
  in
  let doms = [ Domain.spawn (fun () -> worker addr) ] in
  let res =
    Coordinator.serve ~addr ~spec ~workers:1 ~chunk:5 ~fleet ~on_cell ()
  in
  List.iter Domain.join doms;
  let cells =
    match res with
    | Ok c -> c
    | Error e -> Alcotest.failf "coordinator: %s" e
  in
  check_cells "fleet-observed run still byte-identical" truth cells;
  (match !first_rss with
  | Some [ rss ] ->
      Alcotest.(check bool) "rss_kb > 0 at the first streamed cell" true
        (rss > 0)
  | Some rows -> Alcotest.failf "%d worker rows" (List.length rows)
  | None -> Alcotest.fail "no cell streamed");
  let snap =
    Fleet.snapshot fleet ~now:(Mclock.now_ns ())
      ~collected:(List.length cells) ~in_flight:0
  in
  let worker_cells =
    List.fold_left (fun a (r : Fleet.row) -> a + r.Fleet.cells) 0 snap.Fleet.rows
  in
  Alcotest.(check int) "per-worker cells cover the grid"
    (List.length truth)
    (worker_cells + snap.Fleet.local_cells);
  Alcotest.(check bool) "wire bytes counted" true
    (List.for_all
       (fun (r : Fleet.row) -> r.Fleet.bytes_in > 0 && r.Fleet.bytes_out > 0)
       snap.Fleet.rows);
  let line = Fleet.snapshot_to_line ~campaign:"table4" ~phase:"done" snap in
  (match Fleet.snapshot_of_line line with
  | Ok (c, p, s2) ->
      Alcotest.(check string) "campaign" "table4" c;
      Alcotest.(check string) "phase" "done" p;
      Alcotest.(check string)
        "snapshot line roundtrips" line
        (Fleet.snapshot_to_line ~campaign:c ~phase:p s2)
  | Error e -> Alcotest.failf "status line: %s" e);
  let table = Fleet.to_table ~campaign:"table4" ~phase:"done" snap in
  Alcotest.(check bool) "table renders a worker row" true
    (String.length table > 0)

(* a coordinated run has one watchdog, whose probe reads the
   coordinator while the fabric is live and the merge's local pool
   after it *)
let test_fabric_watchdog_probe () =
  let spec = small_spec "table4" in
  with_sock @@ fun addr ->
  let mon = Coordinator.monitor () in
  let probe = Coordinator.probe mon in
  Alcotest.(check bool) "no fabric and no pool: nothing to watch" true
    (probe () = None);
  let collected = ref 0 and seen = ref [] in
  let on_event = function
    | Coordinator.Progress (c, _) -> collected := c
    | _ -> ()
  in
  (* on_tick runs on the serving thread after each tick's publish *)
  let on_tick _ = seen := (probe (), !collected) :: !seen in
  let doms = [ Domain.spawn (fun () -> worker addr) ] in
  let res =
    Coordinator.serve ~addr ~spec ~workers:1 ~chunk:5 ~monitor:mon ~on_event
      ~on_tick ()
  in
  List.iter Domain.join doms;
  (match res with Ok _ -> () | Error e -> Alcotest.failf "coordinator: %s" e);
  Alcotest.(check bool) "probed while serving" true (!seen <> []);
  List.iter
    (fun (p, c) ->
      match p with
      | Some (completed, _, _) ->
          Alcotest.(check int) "the coordinator's collected count" c completed
      | None -> Alcotest.fail "the live fabric probed as idle")
    !seen;
  Alcotest.(check bool) "after serve, no pool: None" true (probe () = None);
  Pool.with_pool ~jobs:1 (fun _ ->
      Alcotest.(check bool) "after serve, the local pool" true
        (probe () = Watchdog.pool_probe () && probe () <> None))

let test_fabric_torn_worker () =
  let spec = small_spec "table4" in
  let truth = ground_truth spec in
  (* two leases for the two clients, both granted at the handshake
     barrier: the half client always receives one, so the death path
     runs on every run (a client that never gets a lease fails) *)
  let cells =
    fabric ~chunk:12 ~workers:2
      ~clients:[ half_shard_client truth; worker ]
      spec
  in
  check_cells "mid-lease death recovered byte-identically" truth cells

(* a peer of protocol 1 says Hello to a live coordinator: it is dropped
   before any Welcome, takes no worker id, and the current worker that
   connects after it still runs the whole grid *)
let test_fabric_v1_refused () =
  let spec = small_spec "table4" in
  let truth = ground_truth spec in
  let v1_saw = ref None and joined = ref [] in
  let v1_then_worker addr =
    let fd = connect_raw addr in
    let hello =
      Wire.frame (Proto.encode (Proto.Hello { proto = 1; pid = 0; host = "v1" }))
    in
    ignore (Unix.write_substring fd hello 0 (String.length hello));
    let buf = Bytes.create 4096 and got = Buffer.create 64 in
    let rec to_eof () =
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | n ->
          Buffer.add_subbytes got buf 0 n;
          to_eof ()
    in
    to_eof ();
    Unix.close fd;
    v1_saw := Some (Buffer.contents got);
    worker addr
  in
  let cells =
    with_sock @@ fun addr ->
    let d = Domain.spawn (fun () -> v1_then_worker addr) in
    let on_event = function
      | Coordinator.Worker_joined w -> joined := w :: !joined
      | _ -> ()
    in
    let res = Coordinator.serve ~addr ~spec ~workers:1 ~chunk:5 ~on_event () in
    Domain.join d;
    match res with
    | Ok cells -> cells
    | Error e -> Alcotest.failf "coordinator: %s" e
  in
  Alcotest.(check (option string))
    "the v1 peer reads EOF, no Welcome frame" (Some "") !v1_saw;
  Alcotest.(check (list int)) "only the current worker joined" [ 0 ] !joined;
  check_cells "the grid, collected" truth cells;
  let table ?resume () =
    match Spec.run_local ~jobs:1 ?resume spec with
    | Spec.Table t -> t
    | Spec.Fuzz r -> Fuzz_loop.to_table r
  in
  Alcotest.(check string)
    "merged table = local run's" (table ()) (table ~resume:cells ())

(* --- one leased shard per campaign, run as a worker runs it --- *)

let shard_spec campaign =
  match
    Spec.make ~campaign
      ~n:(if campaign = "fuzz" then 6 else 1)
      ~config_ids:[ 1; 12 ] ~variants:2 ~gen_size:2 ()
  with
  | Ok s -> s
  | Error m -> Alcotest.failf "spec: %s" m

let test_shard campaign () =
  let spec = shard_spec campaign in
  let total = Spec.total_cells spec in
  (* the unfiltered run: every planned cell, in task order, its
     generations where the spec says they are *)
  let gen_kernels = ref [] in
  let truth = ref [] in
  let (_ : Spec.summary) =
    Spec.run_local ~jobs:1
      ~sink:(fun c -> truth := c :: !truth)
      ~events:(function
        | Eventlog.Generation { kernels; _ } ->
            gen_kernels := kernels :: !gen_kernels
        | _ -> ())
      spec
  in
  let truth = List.rev !truth in
  Alcotest.(check (list int))
    "streams total_cells cells in task order" (List.init total Fun.id)
    (List.map (fun c -> c.Journal.index) truth);
  let ranges =
    match campaign with
    | "fuzz" ->
        let cpk = Fuzz_loop.cells_per_kernel ~config_ids:[ 1; 12 ] () in
        List.rev
          (snd
             (List.fold_left
                (fun (lo, acc) k -> (lo + (k * cpk), (lo, lo + (k * cpk)) :: acc))
                (0, [])
                (List.rev !gen_kernels)))
    | _ -> [ (0, total) ]
  in
  Alcotest.(check (list (pair int int)))
    "generations split at Spec.boundaries" ranges (Spec.boundaries spec);
  (* a lease inside the middle generation (fuzz: 1 of 0..2, so the spec
     is clamped): the synced prefix and one cell of the lease itself (a
     worker's own journal) are replayed, the rest of the lease executes,
     every other cell is a placeholder *)
  let gen = (List.length ranges - 1) / 2 in
  let glo, ghi = List.nth ranges gen in
  let lo = glo + ((ghi - glo) / 4) and hi = ghi - ((ghi - glo) / 4) in
  let known =
    List.filter
      (fun c -> c.Journal.index < glo || c.Journal.index = lo)
      truth
  in
  Metrics.reset ();
  let got = ref [] in
  let (_ : Spec.summary) =
    Spec.run_local ~jobs:1
      ~sink:(fun c ->
        if c.Journal.index >= lo && c.Journal.index < hi then got := c :: !got)
      ~resume:known
      ~exec_filter:(fun i -> i >= lo && i < hi)
      (Spec.clamp spec ~gen)
  in
  check_cells "shard cells equal the ground truth"
    (List.filter (fun c -> c.Journal.index >= lo && c.Journal.index < hi) truth)
    (List.rev !got);
  let counters = Metrics.counters () in
  Alcotest.(check int)
    "cells.completed counts the lease" (hi - lo)
    (Option.value ~default:0 (List.assoc_opt "cells.completed" counters));
  Alcotest.(check (list (pair string int)))
    "no vote or fold counters on a worker" []
    (List.filter
       (fun (name, v) ->
         v <> 0
         && List.exists
              (fun prefix -> String.starts_with ~prefix name)
              [ "cells.class."; "cells.note."; "fuzz." ])
       counters)

let () =
  Alcotest.run "dist"
    [
      ( "wire",
        [
          Alcotest.test_case "frame round-trips" `Quick test_wire_roundtrip;
          Alcotest.test_case "torn frames await" `Quick test_wire_torn;
          Alcotest.test_case "corruption detected, sticky" `Quick
            test_wire_corrupt;
        ] );
      ( "proto",
        [
          Alcotest.test_case "message round-trips" `Quick test_proto_roundtrip;
          Alcotest.test_case "checksum mismatch rejected" `Quick
            test_proto_checksum;
          Alcotest.test_case "address parsing" `Quick test_addr_parse;
        ] );
      ( "proto-fuzz",
        List.map QCheck_alcotest.to_alcotest
          [ prop_random_strings; prop_damage; prop_roundtrip; prop_stream_splits ]
      );
      ( "lease",
        [
          Alcotest.test_case "lifecycle, dup, out-of-order" `Quick
            test_lease_lifecycle;
          Alcotest.test_case "expiry and worker death requeue" `Quick
            test_lease_expiry;
          Alcotest.test_case "generation barriers" `Quick
            test_lease_generations;
          Alcotest.test_case "resume prefill" `Quick test_lease_prefill;
        ] );
      ( "scratch",
        [ Alcotest.test_case "append journal" `Quick test_journal_append ] );
      ( "fabric",
        [
          Alcotest.test_case "table grid byte-identical" `Slow
            test_fabric_table;
          Alcotest.test_case "fuzz generations byte-identical" `Slow
            test_fabric_fuzz;
          Alcotest.test_case "worker death mid-lease" `Slow
            test_fabric_torn_worker;
          Alcotest.test_case "fleet aggregation over a live run" `Slow
            test_fabric_fleet;
          Alcotest.test_case "a beat closes each lease" `Slow
            test_beat_before_done;
          Alcotest.test_case "watchdog probe hand-off" `Slow
            test_fabric_watchdog_probe;
          Alcotest.test_case "v1 peer refused, grid completed" `Slow
            test_fabric_v1_refused;
        ] );
      ( "shard",
        List.map
          (fun campaign ->
            Alcotest.test_case campaign `Slow (test_shard campaign))
          Spec.campaigns );
    ]
