(** Bench records, their history trail and the regression gate.

    Every bench target builds one record ({!make}): a {!Jsonl} object
    of integers and strings, rates in milli-units per second and times
    in microseconds. It names what gates it: [ident], the fields that
    must be equal for two runs to be compared; [rates], throughputs
    flagged at a drop of more than 15%; [floors], quantities flagged at
    any drop (the fuzz loop's final coverage, deterministic at equal
    [ident]). {!write} prints it as a [BENCH-JSON] line, saves it as
    [BENCH_<target>.json] and appends it to the history trail. *)

val default_path : string
(** ["BENCH_history.jsonl"], in the current directory. *)

val make :
  bench:string ->
  ident:(string * int) list ->
  rates:(string * int) list ->
  floors:(string * int) list ->
  (string * Jsonl.t) list ->
  Jsonl.t
(** [bench], [schema] (3), [ident], [rates] and [floors], then the
    target's own fields. *)

val write : target:string -> Jsonl.t -> unit
(** Best effort: a file that cannot be written warns on stderr. *)

val check : string list -> int * string list
(** The gate over a history's lines: an exit code and the verdict
    lines. Per bench name, its last two rows are compared: a different
    [ident] is skipped, a single row has no baseline. Otherwise a rate
    in both rows with a positive old value is flagged when
    [100 * new < 85 * old], and a floor when [new < old]. A flag, or a
    non-blank line that is not a record with a [bench] name (named by
    its line number), exits 1. *)

val compare_latest : ?path:string -> unit -> int
(** {!check} of the history at [path], printed; no history exits 0. *)
