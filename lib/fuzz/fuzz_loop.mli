(** The coverage-guided fuzzing campaign — feedback-directed search as a
    fifth campaign alongside the paper-reproduction tables.

    The paper's campaigns are blind sweeps: every kernel is generated
    from an independent seed and its outcome teaches the next iteration
    nothing. This loop closes the feedback cycle the way modern compiler
    fuzzers (Fuzzilli, CLIR) do, from ingredients already in-tree:

    + {b plan} a generation of kernels — fresh generator output (modes
      round-robin, counter-sharing kernels skipped exactly as the paper
      discarded them) or, with feedback on, mutants of energy-selected
      corpus seeds ({!Seedpool}, {!Mutator});
    + {b execute} every (kernel, configuration, opt-level) cell through
      the execution pool under the ordered-merge contract — results are
      consumed strictly in task order, so everything derived from them
      is byte-identical across [-j] values;
    + {b observe}: majority-vote each kernel across the device matrix,
      fold each cell's {!Covmap} signature into the campaign bitmap,
      admit kernels that lit new bits into the seed pool (optionally
      minimized by {!Reduce.reduce} under a keep-coverage predicate),
      and dedup interesting cells into {!Triage} buckets;
    + {b repeat} until the kernel budget is exhausted.

    {b Determinism}: generation planning happens in the submitting
    domain on a splitmix stream derived from [(seed, generation)];
    coverage, pool admission and triage fold over the merged result
    stream only. The final corpus, bitmap, bug list and journal are
    therefore pure functions of [(seed, fuel, configs, feedback,
    gen_size, minimize, budget)] — identical across [-j] values, and a
    run resumed from its journal finishes byte-identical to an
    uninterrupted one. [budget] is a scale parameter: a longer run's
    kernel sequence extends a shorter one's, because generation [g]'s
    plan depends only on the results of generations [< g].

    {b Journal encoding}: one cell per (kernel, config, opt) with
    [mode = "fuzz"] and [seed] the dense kernel counter (mutants are
    not regenerable from a generator seed; they are re-derived by
    deterministic replay). The [note] field carries provenance and the
    interpreter tally ([p=..;s=..;b=..;a=..;r=..]) so replayed cells
    reconstruct the exact coverage signature of a live run. *)

type provenance =
  | P_gen of int  (** generator seed *)
  | P_mut of int * string
      (** parent {e kernel index} and mutation operator — the parent is
          always an earlier journalled kernel, so the journal alone
          reconstructs the full mutation ancestry DAG ({!Lineage}) *)

type gen_stat = {
  gen : int;
  kernels : int;  (** kernels executed this generation *)
  mutants : int;  (** of which were mutation products *)
  new_bits : int;  (** coverage points first lit this generation *)
  coverage : int;  (** cumulative bitmap population after the generation *)
  corpus : int;  (** pool size after admissions *)
  findings : int;  (** interesting (wrong-code/crash/bf) cells this generation *)
  distinct_bugs : int;  (** cumulative triage bucket count *)
}

type result = {
  budget : int;
  kernels_run : int;
  cells_run : int;
  generations : gen_stat list;
  covmap : Covmap.t;
  pool : Seedpool.t;
  buckets : Triage.bucket list;
  exemplar_texts : (string * string) list;
      (** [hash -> kernel text] for every bucket exemplar (mutants are
          not regenerable, so their text travels with the result) *)
}

val default_budget : int
val default_gen_size : int

val journal_header :
  ?fuel:int ->
  ?budget:int ->
  ?seed:int ->
  ?config_ids:int list ->
  ?feedback:bool ->
  ?gen_size:int ->
  ?minimize:bool ->
  unit ->
  Journal.header
(** Header describing a {!run} with the same arguments (same defaults).
    [budget] is scale; everything else is identity. *)

val run :
  ?jobs:int ->
  ?fuel:int ->
  ?budget:int ->
  ?seed:int ->
  ?config_ids:int list ->
  ?feedback:bool ->
  ?gen_size:int ->
  ?minimize:bool ->
  ?sink:(Journal.cell -> unit) ->
  ?events:(Eventlog.event -> unit) ->
  ?resume:Journal.cell list ->
  ?exec_filter:(int -> bool) ->
  unit ->
  result
(** [feedback:false] degrades to a blind sweep — fresh kernels only,
    the pool never consulted — so the feedback advantage is directly
    measurable at equal budget. [sink]/[resume] follow the campaign
    persistence contract ({!Par.engine}). [events] receives the
    loop's lifecycle events ([Generation], [Coverage_delta],
    [Triage_hit]) from the ordered fold over the merged result stream —
    deterministic and [-j]-invariant, like the journal.

    [exec_filter] restricts execution to a leased shard of the global
    cell index space (distributed worker). Because generation [g]'s plan
    depends on generations [< g], a worker is only sound when [resume]
    already replays every earlier generation's cells — the coordinator
    guarantees this by syncing prior cells before leasing [g], and caps
    the worker's [budget] at the leased generation's end. *)

val cells_per_kernel : ?config_ids:int list -> unit -> int
(** Cells each kernel occupies in the journal — [2 x #configs]. *)

val finding_entries : result -> (Corpus.entry * string) list
(** One corpus entry per triage bucket: the exemplar kernel's text under
    its content address (mutants carry their kernel counter as [seed]
    and ["fuzz"] as mode). *)

val to_table : result -> string
(** Per-generation progress table, coverage/corpus summary and the
    distinct-bug triage table. *)
