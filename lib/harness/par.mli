(** Parallel building blocks shared by the campaign drivers.

    Everything here preserves the sequential drivers' observable output
    bit-for-bit: work is dispatched to an execution pool but consumed in
    stable task order, so a campaign's tables are identical across [-j]
    values and across runs at the same seed. *)

type ('a, 'r) verdict = Accept of 'a | Reject of 'r

val collect :
  Pool.t ->
  n:int ->
  seed0:int ->
  classify:(seed:int -> ('a, 'r) verdict) ->
  'a list * 'r list
(** Classify candidate seeds [seed0, seed0+1, ...] in parallel batches
    and scan the verdicts in seed order, exactly as the sequential
    generate-and-filter loops did: the first [n] accepted candidates are
    returned (in seed order) together with the rejection tags of every
    seed before the [n]-th acceptance. A batch is never larger than the
    acceptances still needed, so [classify] is called on exactly the
    seeds the sequential loop would classify, [seed0] up to the [n]-th
    acceptance, at every pool size. [classify] must be deterministic in
    its seed. *)

val count : 'r list -> tag:'r -> int
(** Occurrences of [tag] in a rejection list. *)

(** {1 The cell engine}

    Every campaign runs a grid of cells — (kernel, configuration, opt
    level) in Table 4, (benchmark, configuration) in Table 3 — through
    one engine, built once per run from the run's persistence hooks
    (DESIGN.md §8). A driver hands it, per batch of cells, its tasks,
    each task's journal key, the cell function and a {!codec}; the
    engine does the rest:

    - it numbers the cells: a run's batches share one global index
      space, counted across modes and generations, which is the journal
      index, the causal flow id and the index [exec_filter] judges;
    - it replays a journalled cell whose key is found in [resume] (one
      index per run) instead of executing it;
    - with [exec_filter], a cell the filter rejects and [resume] does
      not replay becomes an instant placeholder, never executed;
    - it streams every cell, replayed, placeholder and fresh alike, to
      [sink] as a {!Journal.cell} in global task order, as soon as it
      and all its predecessors are ready;
    - it counts each cell into {!Metrics} ([cells.completed],
      [interp.*], [outcomes.*]) and the cost profile, in task order —
      in a filtered run only the cells the filter keeps, so a fabric
      worker counts exactly its lease. *)

type engine

val engine :
  ?sink:(Journal.cell -> unit) ->
  ?resume:Journal.cell list ->
  ?exec_filter:(int -> bool) ->
  Pool.t ->
  engine
(** The engine of one run over [pool]. *)

type ('a, 'r) codec = {
  outcomes : 'r -> Outcome.t list;
      (** the result's journalled outcomes, also counted under
          [outcomes.*] *)
  note : 'a -> 'r -> Interp.stats -> string;
      (** the journal note of a task's result; only built for [sink] *)
  decode : Journal.cell -> ('r * Interp.stats) option;
      (** a journalled cell back to its result; [None] re-executes it *)
  crash : Outcome.t -> 'r;
      (** the result standing for a crash outcome: an uncaught harness
          exception, or the placeholder of a cell outside the shard *)
}
(** How one campaign's cell results map to and from journal records. *)

val cells :
  engine ->
  ('a, 'r) codec ->
  key:('a -> string * int * int * string) ->
  f:(int -> 'a -> 'r * Interp.stats) ->
  'a list ->
  'r list
(** Run one batch of cells and return their results in task order.
    [key] is a task's journal key [(mode, seed, config, opt)]
    ({!Journal.key}); [f index task] executes a cell given its global
    index. Exception isolation as in {!Pool.map_isolated}: a non-fatal
    exception becomes [crash] of a harness-crash outcome; fatal
    exhaustion stops the sink stream at its index and re-raises. *)

val replayed : engine -> string * int * int * string -> Journal.cell option
(** The journalled cell [resume] holds under a key
    [(mode, seed, config, opt)], if any — how a driver reads a verdict
    the journal already records instead of computing it again. *)

type 'a held
(** A value a known number of cells share — a kernel's
    {!Driver.prepared} — dropped once the last of them has run, so a
    batch does not keep every kernel's compiled forms and run memo alive
    until it ends. *)

val hold : cells:int -> 'a -> 'a held

val use : 'a held -> ('a -> 'b) -> 'b
(** Run one of the [cells] on the held value; the last call (returning
    or raising) drops it, and a call after that raises
    [Invalid_argument]. Domain-safe. A cell replayed or replaced by a
    placeholder never calls [use], so its value stays held until the
    [held] itself is unreachable. *)

val vote : engine -> Outcome.t list -> Majority.bucket list
(** Majority-vote one kernel's outcomes (under a ["vote"] span) and
    bucket each, ticking ["cells.class.<name>"] per outcome. *)

val tally : engine -> Metrics.counter -> int -> unit
(** Add to one of a driver's fold counters ([cells.note.*], [fuzz.*]).
    Like {!vote}'s ticks, a no-op in a run given [exec_filter]: a
    worker's folds read placeholders and replays, not its lease. *)

val chunk : int -> 'a list -> 'a list list
(** Split into consecutive chunks of the given size (the last may be
    shorter) — used to regroup a flat cell-result list by kernel. *)
