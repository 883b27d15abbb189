(** Behavioral coverage map for the feedback-directed fuzzing loop.

    Classic coverage-guided fuzzers (AFL, Fuzzilli) key scheduling on
    edge coverage of the target. We have no compiled target — every
    configuration is a simulated device — but we do have two rich,
    fully deterministic observation channels for each
    (kernel, configuration, opt-level) cell:

    - the {b static trigger vector} {!Features.of_testcase}, the same
      syntactic features the documented fault models key on; and
    - the {b behavioral tally} the interpreter returns in every
      {!Interp.stats}: steps, barrier arrivals, atomics and race-checker
      probes, which are exact for a fixed (testcase, config) because
      groups and threads execute on a deterministic schedule.

    A cell's {e coverage signature} folds both — feature flags, log2
    buckets of each tally, the outcome class, the configuration
    identity and whether the cell diverged from the cross-config
    majority — into a handful of indices in a fixed-size bitmap. A
    kernel that lights up a previously unset bit has exhibited a new
    (structure, behavior, outcome) combination somewhere in the device
    matrix, and is worth keeping as a mutation seed.

    Everything here is pure integer arithmetic over deterministic
    inputs: the same cell always produces the same indices, so the
    bitmap built from the pool's ordered result stream is byte-identical
    across [-j] values and across resumed runs. *)

type t
(** A fixed-size bitmap of {!size} bits. *)

val size : int
(** Number of bits (a power of two). *)

val create : unit -> t
val copy : t -> t

val bucket : int -> int
(** Log2 bucketing of a work tally: [0] for values [<= 1], otherwise
    the position of the highest set bit — the same compression
    {!Metrics} histograms use, so "ran twice as long" is novel but
    "ran 3% longer" is not. *)

val indices :
  features:Features.t ->
  config:int ->
  opt:bool ->
  divergent:bool ->
  outcome:Outcome.t ->
  stats:Interp.stats ->
  int list
(** The coverage points of one cell, each in [0, size): the full cell
    signature (features x behavior x outcome x config), a
    config-agnostic behavior point (features x behavior x outcome) and
    a device-reaction point (config x outcome x divergence). Giving a
    cell several points lets a kernel earn credit for a new behavior
    even when the full tuple collides with a seen one. *)

val add : t -> int -> bool
(** Set one bit; [true] iff it was previously unset. *)

val add_all : t -> int list -> int
(** Set every index; the number of bits that were new. *)

val mem : t -> int -> bool

val count : t -> int
(** Set bits — the scalar "coverage" the bench curves plot. *)

val to_hex : t -> string
(** Canonical lowercase-hex rendering of the bitmap bytes — the
    coverage artifact persisted next to a campaign's corpus; equal
    maps render to equal bytes. *)

val of_hex : string -> t option
(** Inverse of {!to_hex}; [None] on wrong length or a non-hex byte
    (uppercase digits are rejected — the rendering is canonical). *)

val merge : t -> t -> int
(** [merge dst src] ors [src] into [dst]; the number of bits newly set
    in [dst]. How a serve daemon folds coverage reported by remote
    clients into its authoritative map. *)
