(** Global registry of named counters and histograms.

    Counters are [Atomic.t] ints keyed by name; histograms bucket
    observations by power of two. Registration (first use of a name)
    takes a mutex; increments afterwards are lock-free, so any domain
    may bump a counter it holds. Names are dotted lower-case paths,
    e.g. ["interp.steps"], ["cells.class.w"], ["pool.queue_depth"].

    Determinism: a counter is only as deterministic as its increments.
    Counters fed from the ordered [?on_result] stream (cell totals,
    interpreter work, outcome classes) are [-j]-invariant and tested as
    such; scheduling-dependent gauges (pool busy time, queue depth) are
    not, and are documented per call site. {!to_json} renders the whole
    registry as one canonical {!Jsonl.t} object with sorted keys, so
    equal registries produce equal bytes. *)

type counter
type histogram

val counter : string -> counter
(** Find or register the counter of that name. *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val histogram : string -> histogram
(** Find or register the histogram of that name. *)

val observe : histogram -> int -> unit
(** Record one observation. Values [<= 1] share the lowest bucket;
    otherwise a value lands in the bucket labelled by the largest power
    of two [<= value]. *)

val counters : unit -> (string * int) list
(** Snapshot of every registered counter, sorted by name. *)

val histograms : unit -> (string * (int * int) list) list
(** Snapshot of every histogram, sorted by name; each histogram is its
    non-empty [(bucket_floor, count)] pairs in increasing order. *)

val rank : int -> int -> int
(** [rank p n]: the 1-based rank of the [p]-th percentile among [n]
    ordered observations, [max 1 (ceil (p/100 * n))] — the one rank
    rule, used by {!percentile} and [Series.percentile]. *)

val percentile : histogram -> int -> int option
(** [percentile h p] for [p] in [0, 100]: the smallest bucket floor whose
    cumulative count reaches {!rank} [p total], or [None] on an empty
    histogram. Exact over the bucket representatives (every
    observation reports as its bucket floor), so p50/p90/p99 summaries
    are deterministic functions of the bucket contents. *)

val reset : unit -> unit
(** Zero every counter and histogram (registration survives). *)

val to_prometheus : unit -> string
(** The whole registry in Prometheus text exposition format: every
    counter as a [# TYPE name counter] pair, every histogram as
    cumulative [name_bucket{le="..."}] lines (inclusive upper bounds of
    the power-of-two buckets) plus [name_count]. Dots and other
    non-identifier characters in registry names become underscores.
    Sorted by name like {!to_json}, so equal registries produce equal
    text. *)

val to_json : unit -> Jsonl.t
(** [{"version":2,"counters":{...},"histograms":{name:{"buckets":
    {floor:count},"count":N,"p50":P,"p90":P,"p99":P}}}] with every level
    sorted by key; empty-histogram percentiles render as [null]. *)
