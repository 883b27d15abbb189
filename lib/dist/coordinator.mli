(** The campaign coordinator: shards the cell grid into leases over
    connected workers and collects their streamed results.

    Single-threaded [Unix.select] event loop. Leasing starts once
    [workers] connections complete the [Hello]/[Welcome] handshake
    (late joiners are welcomed and put to work too); each idle worker
    receives the [Sync] prefix its next lease's generation depends on,
    then the lease itself. Streamed [Cell] messages double as
    heartbeats; a lease whose heartbeat goes stale for [lease_ttl_ms],
    or whose worker's connection drops, is requeued and re-granted —
    re-executed cells are byte-identical by the determinism contract,
    so duplicate replies are folded idempotently.

    The coordinator never executes cells and never orders results
    itself: it returns the collected cell set, and the caller feeds it
    as [resume] input to {!Spec.run_local} — the ordinary campaign
    path — whose ordered merge produces the journal, tables and
    eventlog. Byte-identity with a single-process run holds by
    construction, and if every worker dies the same merge simply
    executes the missing cells locally. *)

type event =
  | Worker_joined of int
  | Worker_left of int * string  (** reason *)
  | Lease_granted of Lease.lease * int
  | Lease_expired of Lease.lease * int
  | Progress of int * int  (** collected, total *)
  | Fallback of int  (** all workers gone; missing cells *)

(** Shared liveness state readable from other domains (the watchdog). *)
type monitor

val monitor : unit -> monitor

val probe : monitor -> Watchdog.probe
(** The one watchdog probe of a coordinated run. While {!serve} runs
    with this monitor, [completed] is collected cells, [in_flight] live
    leases, and the heartbeat list carries [(worker_id, last_beat_ns)] —
    so a stall report names stale {e workers}, not pool domains.
    Outside it, the local pool's {!Watchdog.pool_probe}: the merge that
    follows the fabric, or [None] when no pool is alive. *)

val serve :
  addr:Netaddr.t ->
  spec:Spec.t ->
  workers:int ->
  ?chunk:int ->
  ?lease_ttl_ms:int ->
  ?resume:Journal.cell list ->
  ?monitor:monitor ->
  ?fleet:Fleet.t ->
  ?telemetry:bool ->
  ?status_addr:Netaddr.t ->
  ?status_payload:(unit -> string) ->
  ?on_tick:(int64 -> unit) ->
  ?on_event:(event -> unit) ->
  ?on_cell:(Journal.cell -> unit) ->
  unit ->
  (Journal.cell list, string) result
(** Listen on [addr], drive the fabric until every cell of [spec]'s
    grid is collected (or all workers died after leasing began —
    [Fallback] is reported and the partial set returned for local
    completion). [resume] pre-fills the tracker with journalled cells.
    [chunk] caps lease size (default {!Lease.create}'s); [lease_ttl_ms]
    defaults to 60000. [on_event] and [on_cell] run on the serving
    thread; [on_cell] sees each fresh cell in arrival order — the
    scratch-journal hook ({!Journal.append}) that makes a killed
    coordinator resumable without losing collected work. Socket setup
    errors return [Error].

    Fleet telemetry, all opt-in and invisible to campaign output:
    [fleet] receives every join/leave/beat/cell/lease/done (plus
    per-connection {!Wire} transport totals each tick); [telemetry]
    asks workers (via [Welcome]) to arm span collection and ship
    buffers back; [status_addr] opens a second listening socket that
    answers every connection with one [status_payload ()] line and
    closes — the live status surface; [on_tick] runs on the serving
    thread once per select tick (the file-mode status writer). *)
