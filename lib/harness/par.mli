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
(** Evaluate candidate seeds [seed0, seed0+1, ...] in parallel batches and
    scan the verdicts in seed order, exactly as the sequential
    generate-and-filter loops did: the first [n] accepted candidates are
    returned (in seed order) together with the rejection tags of every
    seed consumed before the [n]-th acceptance. Seeds evaluated beyond
    that point are discarded unobserved, so the result — including the
    discard tallies — is independent of batch size and [-j]. [classify]
    must be pure. *)

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
