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

(** {2 Record codecs}

    The kernel and the reported-cell records are the journal's and the
    HTTP API's alike: the client sends them, the router decodes them
    once and the store journals them, all through these four. *)

val kernel_fields : Corpus.entry -> string -> (string * Jsonl.t) list
(** {!Corpus.entry_fields} plus the kernel [text]: a [kernel] journal
    record, a [/kernel] body and a [/claim] reply. *)

val kernel_of_json : Jsonl.t -> (Corpus.entry * string) option
(** Inverse of {!kernel_fields} applied to an object value. *)

val report_fields :
  cell:Journal.cell ->
  obs:Triage.observation option ->
  cov:int list ->
  (string * Jsonl.t) list
(** One reported cell: [cell], [obs] when classified, and [cov] — an
    [/observation] body, and an [obs] journal record after its kind. *)

val report_of_json :
  Jsonl.t ->
  (Journal.cell * Triage.observation option * int list option) option
(** Inverse of {!report_fields}; [None] when the cell, the observation
    or a [cov] list is malformed. The [cov] is [None] when absent,
    which an HTTP body may be (read as no coverage) and a journal
    record may not. *)

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
