(** The coordinator/worker message vocabulary.

    Every message is one checksummed JSONL object (the journal's codec
    and MD5 line discipline) carried in one {!Wire} frame. Cells travel
    in the journal's own canonical record encoding
    ({!Journal.cell_to_json}), so a result has exactly one serialised
    form end to end — what the worker streams is byte-for-byte what the
    merged journal records.

    Lifecycle: the worker opens with [Hello]; the coordinator answers
    [Welcome] carrying the full campaign {!Spec} (workers need no
    campaign flags of their own). Work arrives as [Lease] messages —
    a half-open global cell index range within one generation —
    preceded by whatever [Sync] prefix of already-collected cells the
    lease's generation depends on. The worker streams every executed
    cell back as [Cell] (each doubles as a liveness beat) and closes
    the lease with [Done]; [Shutdown] ends the session. *)

type msg =
  | Hello of { proto : int; pid : int; host : string }
  | Welcome of { worker_id : int; spec : Spec.t; telemetry : bool }
      (** [telemetry] asks the worker to arm span collection and ship
          buffers back on [Done] *)
  | Sync of { cells : Journal.cell list }
      (** already-collected cells the next lease's generation depends
          on, in global index order *)
  | Lease of { lease_id : int; gen : int; lo : int; hi : int }
      (** execute global cells [lo, hi) of generation [gen] *)
  | Cell of { lease_id : int; cell : Journal.cell }
  | Done of {
      lease_id : int;
      spans : Span.t list;
          (** the lease's drained span buffer; empty unless telemetry
              was armed *)
      metrics : (string * int) list;
          (** the worker's cumulative counter registry snapshot; empty
              unless telemetry was armed *)
    }
      (** lease closed; the coordinator has counted its cells from the
          streamed [Cell]s *)
  | Beat of { queue_depth : int; rss_kb : int }
      (** worker liveness, with the two facts only the worker has: its
          local pool's tasks in flight and its resident set size (0
          when unknown) *)
  | Shutdown

val version : int
(** Protocol version carried by [Hello]: 2. The coordinator refuses a
    peer of any other version — a fabric run reproduces the
    single-process journal only when every worker runs the
    coordinator's own build. *)

val encode : msg -> string
(** One checksummed JSONL line (no newline, not yet framed). Every
    member of a message is always present. *)

val decode : string -> (msg, string) result
(** Parse, checksum-verify and type one payload; a missing or
    ill-typed member is an [Error]. Never raises. *)
