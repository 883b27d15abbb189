(** Timed scopes over the pipeline, collected per domain.

    A span is one timed execution of a named stage — generating a
    kernel, running one optimisation pass, executing a cell on one
    configuration, voting, appending to the journal. Collection is off
    by default and costs one atomic load per {!with_} call; {!enable}
    turns it on (the CLI does so only when [--trace] is given), after
    which each span is pushed onto a buffer local to the recording
    domain. Buffers register themselves in a global list on first use,
    so {!drain} — called from the submitting domain once the pool has
    been torn down — can collect everything without any cross-domain
    synchronisation on the hot path.

    Spans deliberately live {e outside} the [-j] byte-identity
    contract: their timestamps, durations and domain placement vary
    run to run. Everything that must be deterministic (tables,
    journals, metric totals) flows through the ordered [?on_result]
    stream instead; spans only observe it. *)

type t = {
  cat : string;  (** stage family: "gen", "check", "opt", "exec", "vote", "persist" *)
  name : string;  (** e.g. "generate", "opt:const_fold", "exec:7+" *)
  t0_ns : int64;  (** monotonic start time *)
  dur_ns : int64;  (** duration; >= 0 *)
  domain : int;  (** recording domain id — one trace pid per domain *)
  task : int;  (** pool task index in flight, or -1 outside the pool *)
  flow : int;
      (** causal flow id (global cell index), or -1 when unlinked.
          With [flow_n = 0] the span {e participates} in flow [flow];
          with [flow_n > 0] it {e originates} flows [flow ..
          flow + flow_n - 1] (a coordinator lease covering a cell
          range). *)
  flow_n : int;  (** number of flows originated here; 0 = participant *)
}

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** Whether {!with_} currently records. *)

val with_ :
  cat:string -> ?flow:int -> ?flow_n:int -> string -> (unit -> 'a) -> 'a
(** [with_ ~cat name f] runs [f ()], recording a span on the current
    domain when collection is enabled. The span is recorded even when
    [f] raises (the exception is re-raised), so crashing cells still
    show up in the trace. *)

val emit :
  cat:string ->
  name:string ->
  t0_ns:int64 ->
  dur_ns:int64 ->
  ?flow:int ->
  ?flow_n:int ->
  unit ->
  unit
(** Record a span with explicit timing — for retroactive spans whose
    interval was measured elsewhere (a coordinator lease is only
    emitted once its Done arrives). No-op when collection is off. *)

val set_task : int -> unit
(** Tag subsequent spans on this domain with a pool task index. *)

val clear_task : unit -> unit

val drain : unit -> t list
(** All spans recorded on any domain since the last drain, sorted by
    start time; buffers are emptied. Call only while no domain is
    recording (the pool joins its workers before the campaign
    returns). *)

val reset : unit -> unit
(** Discard all buffered spans. *)

val tally : (string * int) list -> (string * int) list
(** Sum the values of equal categories: one pair per category, sorted
    by category. The stage tally of drained spans ({!stage_us}), of the
    span batches a fabric worker shipped, and of the fleet's sum over
    its workers. *)

val stage_us : t list -> (string * int) list
(** The {!tally} of each span's duration in whole microseconds
    ({!Mclock.ns_to_us}) by category — the eventlog's [stage_timing]
    record and the fleet's per-worker [stage_us]. *)
