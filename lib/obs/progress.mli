(** Live campaign progress for terminals and CI logs alike.

    On an interactive terminal the line is [\r]-overwritten in place —
    done/total cells, throughput, ETA, running class tallies — throttled
    so a fast campaign does not spend its time printing. When stderr is
    not a tty (captured CI logs), or the operator set [NO_COLOR] or
    [TERM=dumb], the display degrades to plain newline-separated status
    lines at a much lower cadence instead of spamming carriage returns
    into the log. Driven from the submitting domain via the ordered
    [?on_result] stream: {!step} is called once per delivered cell with a
    short class tag (["ok"], ["w"], ["bf"], ...), so the tallies match
    the table being built. Purely an observer — it writes nothing to
    stdout and never affects table or journal bytes. *)

type t

type style =
  | Ansi  (** interactive: [\r]-overwritten single line *)
  | Plain  (** non-tty / NO_COLOR / TERM=dumb: throttled newline updates *)

val detect_style : out_channel -> style
(** [Plain] when the channel is not a tty, [NO_COLOR] is set non-empty,
    or [TERM=dumb]; [Ansi] otherwise. *)

val create :
  ?out:out_channel ->
  ?style:style ->
  ?min_interval_ms:int ->
  ?start:int ->
  label:string ->
  total:int ->
  unit ->
  t
(** [create ~label ~total ()] starts the clock. [total] is the full
    cell count (resumed cells included). [start] (default 0) counts
    cells already done before this session — resumed or prefilled work
    shown in done/total but excluded from the rate and ETA. [style]
    defaults to {!detect_style} of the channel; [min_interval_ms]
    limits redraw frequency and defaults to 100 (Ansi) / 1000 (Plain). *)

val step : t -> tag:string -> unit
(** Count one finished cell under class [tag] and maybe redraw. *)

val eta_string : t -> int64 -> string
(** The displayed ETA at monotonic time [now]: ["0s"] when nothing
    remains, ["--:--"] when work remains but the session's rate is zero
    (prefill only, just started, or no cell within the rate window),
    otherwise an extrapolation in {!Mclock.duration_string}'s format,
    like ["42.0s"] / ["3.5m"] / ["1.2h"]. The rate is the growth over
    the last few one-second samples ({!Series.rate_window}). Exposed
    for tests. *)

val finish : t -> unit
(** Final redraw (Plain mode skips it when the last {!step} already
    printed the final state) and flush, leaving the line intact. *)
