(** Coordinator-side fleet telemetry: fold worker heartbeats, streamed
    cells, shipped spans and lease lifecycle into a live
    per-worker/fleet view.

    The distributed fabric's deterministic output (journal, eventlog,
    tables) flows through the ordered merge and never touches this
    module; a {!t} only {e observes} the fabric, so arming it cannot
    change a byte of campaign output. The coordinator feeds it from the
    serving thread; the status surface and the watchdog read snapshots
    from other threads — every operation takes an internal mutex.

    Each fact is recorded once, from the message that carries it: a
    worker's throughput is the rate of the {e fresh} cells it streamed
    (the growth over a few one-second samples, {!Series.rate_window}),
    its stage tally the sum of the span batches it shipped on [Done],
    and only its queue depth and RSS come from its heartbeat.

    Straggler rule: a live worker holding a lease that showed no sign
    of life (a streamed cell, a beat or a [Done]) for 10 s, or — once
    at least two workers report a positive rate — a live worker whose
    rate is below half the fleet median. *)

val span_to_json : Span.t -> Jsonl.t
(** Wire form of one span, every field always present (nanosecond ints
    fit {!Jsonl.Int}). *)

val span_of_json : Jsonl.t -> Span.t option
(** [None] when a field is missing or ill-typed. *)

type t

val create : total:int -> now:int64 -> unit -> t
(** [total] is the campaign's full cell count; [now] a monotonic
    timestamp (all clocks are passed in, keeping the fold
    deterministic under test). *)

val on_join : t -> worker:int -> pid:int -> host:string -> now:int64 -> unit
val on_leave : t -> worker:int -> now:int64 -> unit

val on_beat :
  t -> worker:int -> now:int64 -> queue_depth:int -> rss_kb:int -> unit
(** A heartbeat arrived: it refreshes liveness and carries the worker's
    local pool tasks in flight and its resident set size. *)

val on_cell : t -> worker:int -> now:int64 -> unit
(** One fresh cell streamed by [worker] (duplicates excluded), feeding
    the coordinator-side throughput rate and per-worker cell count. *)

val on_lease : t -> worker:int -> lease_id:int -> cells:int -> now:int64 -> unit
val on_done : t -> worker:int -> lease_id:int -> now:int64 -> unit
(** Lease closed: grant-to-done latency lands in the worker's rolling
    window of its last 64 leases and the global ["fleet.lease_ms"]
    {!Metrics} histogram. *)

val on_metrics : t -> worker:int -> (string * int) list -> unit
(** A worker's cumulative counter snapshot (shipped on [Done]): deltas
    against the previous snapshot are folded into the global registry
    under ["fleet.<name>"], building the fleet-wide metrics view. *)

val add_spans : t -> worker:int -> Span.t list -> unit
(** One span batch shipped on [Done]: kept for {!span_groups} and
    folded into the worker's stage tally ({!Span.stage_us}). *)

val span_groups : t -> (string * Span.t list) list
(** Shipped span buffers grouped per worker in id order, labelled
    ["worker N (host, pid P)"] — the {!Trace.write_groups} input. *)

val note_local : t -> int -> unit
(** Count cells that entered the campaign outside worker attribution:
    resumed/salvaged prefill and the local merge's own executions. *)

type row = {
  worker : int;
  host : string;
  pid : int;
  alive : bool;
  cells : int;  (** fresh cells streamed by this worker *)
  rate_milli : int;  (** fresh-cell throughput, milli-cells/s *)
  queue_depth : int;  (** from the last beat *)
  rss_kb : int;  (** from the last beat; 0 unknown *)
  leases : int;  (** leases currently held *)
  lease_p50_ms : int;  (** rolling lease-latency percentiles; 0 empty *)
  lease_p90_ms : int;
  last_ms : int;  (** ms since the worker's last sign of life *)
  frames_in : int;
  bytes_in : int;
  frames_out : int;
  bytes_out : int;
  straggler : bool;
}

type snapshot = {
  total : int;
  collected : int;
  in_flight : int;  (** live leases *)
  elapsed_ms : int;
  fleet_milli : int;  (** summed live-worker rate, milli-cells/s *)
  eta_ms : int;  (** -1 when the rate gives no estimate *)
  local_cells : int;
  stage_us : (string * int) list;
      (** per-category span time of every batch the workers shipped;
          empty unless telemetry was armed *)
  stragglers : int list;
  rows : row list;  (** worker id order *)
}

val set_wire : t -> worker:int -> frames_in:int -> bytes_in:int -> frames_out:int -> bytes_out:int -> unit
(** Latest per-connection transport totals (see [Wire] counters). *)

val snapshot : t -> now:int64 -> collected:int -> in_flight:int -> snapshot
(** [collected]/[in_flight] come from the lease tracker (the fleet
    only knows per-worker attribution, not the grid's resume state). *)

val status_version : int
(** Schema version stamped into {!snapshot_to_line}: 2. *)

val snapshot_to_line : campaign:string -> phase:string -> snapshot -> string
(** One checksummed JSONL object (no trailing newline) — the
    [--status] file/socket payload. [phase] is ["fabric"], ["merge"]
    or ["done"]. *)

val snapshot_to_json : campaign:string -> phase:string -> snapshot -> Jsonl.t
(** The same object as {!snapshot_to_line} but as a JSON value without
    the checksum field — what [campaign status --json] prints. *)

val snapshot_of_line : string -> (string * string * snapshot, string) result
(** Parse and checksum-verify a status line back into
    [(campaign, phase, snapshot)]. *)

val to_table : campaign:string -> phase:string -> snapshot -> string
(** The operator-facing fleet table rendered from a snapshot. *)
