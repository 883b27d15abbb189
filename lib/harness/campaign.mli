(** Intensive CLsmith-based differential testing (paper section 7.3,
    Table 4).

    For each generator mode, a batch of kernels is generated (counter-
    sharing kernels discarded as in the paper) and prefiltered on
    configuration 1 with optimisations — the paper "used configuration 1+
    (NVIDIA GTX Titan) to generate the tests, discarding tests that failed
    to compile or that timed out". Every kernel then runs on the selected
    configurations at both optimisation levels; wrong-code classification
    is by ≥3 majority across all collected results, and each (config,
    level) accumulates the w / bf / c / to / ok buckets plus the
    wrong-code percentage w% = w / (w + ok). *)

type cell = { w : int; bf : int; c : int; timeout : int; ok : int }

val w_pct : cell -> string

type mode_result = {
  mode : Gen_config.mode;
  tests_used : int;
  discarded_sharing : int;
  discarded_prefilter : int;
  per_config : ((int * bool) * cell) list;  (** key: (config id, opt on?) *)
}

val journal_header :
  ?fuel:int ->
  ?per_mode:int ->
  ?seed0:int ->
  ?config_ids:int list ->
  ?modes:Gen_config.mode list ->
  unit ->
  Journal.header
(** The journal header describing a [run] with the same arguments (same
    defaults). [seed0], [fuel], [config_ids] and [modes] are identity
    parameters; [per_mode] is scale (a journal may be resumed at a larger
    or smaller [-n]). *)

val run :
  ?jobs:int ->
  ?fuel:int ->
  ?per_mode:int ->
  ?seed0:int ->
  ?config_ids:int list ->
  ?modes:Gen_config.mode list ->
  ?sink:(Journal.cell -> unit) ->
  ?resume:Journal.cell list ->
  ?exec_filter:(int -> bool) ->
  unit ->
  mode_result list
(** Defaults: 60 kernels/mode (paper: 10,000), the above-threshold
    configurations, all six modes.

    [jobs] (default [Pool.recommended_jobs ()]) sizes the execution pool;
    every (kernel, config, opt-level) cell is an independent task, and the
    merged result is byte-identical across [jobs] values and across runs
    at the same seed. [fuel] overrides the per-task soft timeout (the
    interpreter's step budget).

    [sink], [resume] and [exec_filter] build the run's cell engine
    ({!Par.engine}). [sink] is invoked once per completed cell, in
    deterministic task order, streamed as results complete — the
    journalling hook. [resume] replays previously journalled cells:
    any task whose [(mode, seed, config, opt)] key is found is not
    re-executed, its recorded outcome is used (and re-emitted to [sink]
    in order), so an interrupted campaign continues where it stopped and
    finishes with output byte-identical to an uninterrupted run.
    Generation is always recomputed (it is deterministic and rebuilds the
    kernels); a kernel whose 1+ cell [resume] holds takes its prefilter
    verdict from that cell instead of running the prefilter again.

    [exec_filter] is the distributed-worker hook: when given, a cell
    whose global task index is rejected (and that [resume] does not
    replay) is not executed — it yields an instant placeholder outcome
    instead, and only the kept cells are counted in {!Metrics}. The
    caller (a fabric worker) must then treat the fold result as garbage
    and only forward cells its [sink] accepted. *)

val to_table : mode_result list -> string
