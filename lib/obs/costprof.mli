(** Deterministic per-AST-construct cost profile.

    The interpreter, when armed, counts one tick per AST-node visit
    (see [Costwalk] in ocl_vm); the driver packages the counts of one
    executed cell as a {!cell} keyed by kernel content hash and
    (config, opt). The campaign layer calls {!record} exclusively from
    the ordered merged cell stream — the same fold point as the metric
    counters — so the accumulated profile is [-j]-invariant and
    byte-identical across pool sizes.

    Collection is off by default and costs the driver one atomic load
    per cell; everything downstream is gated on the [prof] payload
    being non-empty. The profile file is a {!Recordlog} file: a header
    record, then cells and constructs in sorted order. *)

type construct = {
  kind : string;  (** AST constructor family, e.g. "for", "binop", "index" *)
  loc : int;  (** static preorder id within the kernel; -1 = synthetic *)
  path : string;  (** ';'-separated frames from the enclosing function *)
  n : int;  (** ticks attributed to this construct *)
}

type cell = {
  khash : string;  (** content hash of the kernel's printed program *)
  config : int;
  opt : string;  (** "+" or "-" *)
  ticks : int;  (** total ticks of this cell; equals the construct sum *)
  constructs : construct list;
}

val enable : unit -> unit
val disable : unit -> unit

val enabled : unit -> bool
(** Whether the driver currently attaches cost cells to its stats. *)

val record : cell -> unit
(** Fold one cell into the global accumulator. Call only from the
    ordered merged cell stream (the [-j]-invariance contract). *)

val snapshot : unit -> cell list
(** The accumulated profile: cells sorted by (khash, config, opt),
    constructs sorted by (loc, kind), counts summed per construct. *)

val reset : unit -> unit
(** Drop all accumulated cells. *)

val write : path:string -> cell list -> unit
(** A header record, then one record per cell, replacing [path] whole
    ({!Recordlog.replace}). Raises [Sys_error]. *)

val load : path:string -> (cell list * bool, string) result
(** The committed cells of a profile file; the flag reports a dropped
    torn tail. *)

val write_folded : path:string -> cell list -> unit
(** Collapsed-stack aggregate ("path count" per line, sorted), loadable
    by flamegraph.pl and speedscope, replacing [path] whole. Raises
    [Sys_error]. *)

val report : cell list -> string
(** Text report ranking constructs by share of total ticks. *)
