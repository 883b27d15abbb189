(** Self-contained HTML campaign report.

    [campaign report JOURNAL --html] renders a finished (or torn)
    journal — plus, when present, its eventlog — into one
    zero-dependency HTML file: no scripts, no external assets, inline
    CSS and inline SVG only, so the artifact CI uploads opens anywhere,
    forever. Sections, each skipped when its inputs are absent:

    - campaign identity, scale parameters and cell counts;
    - the Table-1 analogue: per-(configuration, opt-level) outcome
      counts with wrong-code recomputed by per-kernel majority vote,
      exactly like the campaign tables;
    - a per-(configuration, opt-level) heatmap shaded by the share of
      interesting (wrong-code / build-failure / crash) cells;
    - coverage-growth and distinct-bugs-over-budget curves from the
      eventlog's [Generation] records, as inline SVG;
    - stage timings from the eventlog's [Stage_timing] record;
    - watchdog / pool-health incidents, when any were recorded;
    - per-bug discovery paths: collapsible lineage trees (seed →
      mutation operators → triage bucket) reconstructed by {!Lineage}
      from fuzz journal provenance, plus mutation-operator counts. *)

val render :
  header:Journal.header ->
  cells:Journal.cell list ->
  ?truncated:bool ->
  ?events:Eventlog.event list ->
  ?history:Svhistory.sample list ->
  unit ->
  string
(** The complete HTML document. [truncated] marks a journal whose torn
    final line was discarded; [events] is the loaded eventlog (empty or
    absent is fine — event-driven sections are skipped); [history], the
    serve daemon's {!Svhistory} samples, adds its throughput (from
    consecutive request deltas) and latency-over-time panel when it
    holds two samples or more. *)

val summary :
  header:Journal.header ->
  cells:Journal.cell list ->
  ?truncated:bool ->
  ?events:Eventlog.event list ->
  unit ->
  string
(** Plain-text digest of the same data for [campaign report] without
    [--html]: identity, cell/kernel counts, outcome grid and distinct
    bugs, one fact per line. *)
