(** The serve daemon's state: corpus, coverage, observations — all
    behind one append-only journal.

    The journal is a {!Recordlog} file. Every mutation writes its
    record before touching memory, so the journal is the state: a
    daemon killed with [-9] and reopened replays to a store whose
    query responses are byte-identical to the moment of death. Three
    record kinds follow the header line:

    - [kernel] — a corpus submission: {!Corpus.entry_fields} plus the
      full kernel text (the store is self-contained; no side files);
    - [obs] — one reported cell ({!Journal.cell_to_json}), optionally
      a classified {!Triage.observation}, and the cell's coverage
      indices;
    - [claim] — the work cursor after a claim, last-wins, so replay
      never re-issues work already handed out.

    Dedup is part of the contract: kernels dedup by content hash,
    observations by {!Journal.key}, making concurrent or retried
    submissions idempotent. *)

type t

val open_ : path:string -> (t, string) result
(** Create (fresh header) or replay an existing journal, cutting a torn
    tail off first ({!Recordlog.append}). A missing, empty or
    torn-header journal starts afresh; other damage fails. *)

val close : t -> unit

val submit_kernel : t -> Corpus.entry -> string -> (bool, string) result
(** [Ok true] if the kernel is new, [Ok false] on a duplicate hash;
    [Error] when the text does not hash to the entry's address. *)

val report_observation :
  t ->
  cell:Journal.cell ->
  obs:Triage.observation option ->
  cov:int list ->
  (bool * int, string) result
(** [(fresh, new coverage bits)]; a duplicate cell key reports
    [(false, 0)] without journaling. [Error] on an out-of-range
    coverage index. *)

val claim : t -> (Corpus.entry * string) option
(** The next unclaimed kernel in submission order, advancing (and
    journaling) the cursor; [None] when the corpus is exhausted. *)

val buckets : t -> Triage.bucket list
(** Distinct bugs from every reported observation, in arrival order —
    the same dedup core ({!Triage.of_observations}) the offline triage
    path uses, so a serve campaign and a journal triage agree. *)

val coverage_count : t -> int
val coverage_hex : t -> string

val corpus : t -> Corpus.entry list
(** Submission order. *)

val kernel : t -> string -> string option
(** Kernel text by content hash. *)

val cells : t -> Journal.cell list
(** Reported cells in arrival order — what [/report] renders. *)

val kernel_count : t -> int
val cell_count : t -> int
val cursor : t -> int

val header : t -> Journal.header
(** A synthetic ["serve"] campaign header for {!Report_html.render}. *)
