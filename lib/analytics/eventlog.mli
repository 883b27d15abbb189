(** Typed, schema-versioned structured event stream for a campaign.

    The journal records {e results}; the eventlog records the {e story}:
    campaign lifecycle, per-cell completions, fuzzing generations,
    coverage deltas, triage hits, pool health and watchdog escalations,
    one record per event ([{"v":2,"e":"<kind>",...,"h":"<md5>"}]) in a
    {!Recordlog} file next to the journal. Any text tool can tail it;
    {!load} replays it for the offline report generator.

    {b Determinism.} Every lifecycle event ({!is_deterministic}) is
    emitted from the ordered merged result stream — the same path that
    makes journals byte-identical across [-j] — and carries no
    wall-clock fields, so two runs of the same campaign at any [-j]
    produce byte-identical event files. The monitoring kinds
    ([Pool_health], [Stage_timing], [Watchdog]) are explicitly outside
    that contract: they only appear when the operator armed [--trace] or
    the watchdog, and a healthy untraced run never emits them. *)

val schema_version : int
(** The version stamped into every record: 2. The decoder accepts any
    version in [1..schema_version] — v1 kinds are a strict subset, so
    old eventlogs keep loading. *)

(** One worker's health as the watchdog saw it, inside {!event.Fleet_health}. *)
type fleet_worker = {
  fw_worker : int;
  fw_cells : int;  (** fresh cells streamed so far *)
  fw_rate_milli : int;  (** effective throughput, milli-cells/s *)
  fw_last_ms : int;  (** ms since last sign of life at sample time *)
  fw_alive : bool;
  fw_straggler : bool;
}

type event =
  | Campaign_start of {
      campaign : string;
      ident : (string * string) list;
      scale : (string * string) list;
      total : int;  (** planned cells, resumed cells included *)
    }
  | Cell of {
      index : int;  (** position in the run's deterministic task order *)
      seed : int;
      mode : string;
      config : int;
      opt : string;
      cls : string;  (** short class tag: "ok", "w", "bf", "c", "to", ... *)
    }  (** one completed cell, streamed in merged task order *)
  | Generation of {
      gen : int;
      kernels : int;
      mutants : int;
      new_bits : int;
      coverage : int;  (** cumulative coverage points *)
      corpus : int;
      findings : int;
      distinct_bugs : int;  (** cumulative distinct buckets *)
    }  (** one fuzzing generation's summary *)
  | Coverage_delta of { gen : int; kernel : int; new_bits : int; total : int }
      (** a kernel earned admission: its novelty and the new total *)
  | Triage_hit of {
      cls : string;
      config : int;
      opt : string;
      signature : string;
      seed : int;  (** kernel identity (fuzz kernel index) *)
      mode : string;
      hash : string;  (** content address of the kernel text *)
    }  (** one interesting cell, already classified *)
  | Pool_health of {
      worker : int;
          (** [-1]: the local execution pool; [>= 0]: a distributed
              fabric worker id ([stalled_domains] then lists stale
              worker ids rather than domain ids) *)
      submitted : int;
      completed : int;
      in_flight : int;
      stalled_domains : int list;
    }  (** watchdog-sampled pool snapshot (nondeterministic) *)
  | Stage_timing of (string * int) list
      (** per-stage-category microseconds from drained spans; only
          emitted when [--trace] armed span collection
          (nondeterministic) *)
  | Watchdog of {
      level : string;  (** "warn" | "stall" | "abort" *)
      completed : int;
      in_flight : int;
      stalled_domains : int list;
      idle_ms : int;  (** zero-progress window length at detection *)
    }  (** a stall escalation (nondeterministic) *)
  | Fleet_health of {
      total : int;
      collected : int;
      in_flight : int;
      fleet_milli : int;  (** fleet throughput, milli-cells/s *)
      workers : fleet_worker list;
    }
      (** the per-worker fleet snapshot the distributed watchdog saw
          when it escalated; schema v2 (nondeterministic) *)
  | Campaign_end of { cells : int }

val is_deterministic : event -> bool
(** Whether the event kind is inside the [-j] byte-identity contract. *)

val encode : event -> string
(** One checksummed JSONL line (no trailing newline). *)

val decode : string -> (event, string) result
(** Parse, checksum-verify and type one line. *)

type writer

val create : path:string -> writer
(** Truncate [path] and open it for appending events. *)

val emit : writer -> event -> unit
(** Write one event ({!Recordlog.write}: the commit point). Safe to
    call from the watchdog domain concurrently with the submitting
    domain (serialised by a mutex); the deterministic stream itself is
    produced by the submitting domain only, in order. *)

val close : writer -> unit

val load : path:string -> (event list * bool, string) result
(** All committed events in file order; the flag reports a dropped torn
    tail. Fails on damage or a schema-version mismatch. *)
