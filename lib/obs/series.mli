(** A bounded ring of timestamped samples: the one windowed series
    behind every rate and rolling window in the tree — the fleet's
    per-worker rates and lease-latency windows, the progress line's
    rate and ETA, and the serve daemon's metrics history.

    A push is kept only when at least [interval_ns] has passed since the
    newest kept sample (the first push is always kept); the ring holds
    the newest [capacity] kept samples and drops older ones. Timestamps
    are monotonic nanoseconds supplied by the caller, so a test can
    drive a series with its own clock. A series is not synchronised:
    it belongs to one domain, or sits behind its owner's lock. *)

type 'a t

val create : capacity:int -> interval_ns:int64 -> 'a t
(** An empty series; [capacity] is at least 1. *)

val rate_window : unit -> int t
(** A fresh series for a displayed rate: five samples one second apart,
    so {!rate_milli} reads the growth over the last four to five
    seconds. *)

val capacity : 'a t -> int

val due : 'a t -> now:int64 -> bool
(** Whether a push at [now] would be kept — for callers whose sample is
    costly to build. *)

val push : 'a t -> now:int64 -> 'a -> unit
(** Keep [(now, v)] if {!due}, dropping the oldest sample of a full
    ring; otherwise do nothing. *)

val samples : 'a t -> (int64 * 'a) list
(** The retained samples, oldest first. *)

val rate_milli : int t -> now:int64 -> int -> int
(** The growth per second of a cumulative count, in milli-units, from
    the oldest retained sample to the value [v] read at [now]; 0 while
    the series is empty or no whole millisecond has passed. Once the
    ring rolls past the last change of a count, its rate reads 0. *)

val percentile : int t -> int -> int option
(** [percentile t p] for [p] in [0, 100]: the retained value at
    {!Metrics.rank} [p] among them in increasing order, or [None] on an
    empty series. *)
