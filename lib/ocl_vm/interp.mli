(** The reference OpenCL device: an NDRange interpreter for MiniCL.

    Execution model: groups run one after another; within a group, threads
    are run serially in the order given by the {!Sched} policy, each until
    it completes or reaches a barrier (implemented with OCaml 5 effect
    handlers — a barrier captures the thread's continuation). When every
    thread of the group has arrived, the rendezvous is checked for barrier
    divergence (same syntactic barrier, same enclosing-loop iteration
    counts, cf. paper section 3.1) and all threads resume in the next
    epoch's order. This serial run-to-barrier execution is a sound
    sequentialisation of OpenCL 1.x intra-group concurrency, and together
    with {!Race}'s epoch-based detector it observes exactly the data races
    the paper's definition describes.

    The interpreter is parameterised by a {!Layout.policy} (union member
    access) and a {!Profile.t} of semantic quirks, so the same engine
    executes both the trustworthy reference device and the buggy code that
    vendor fault models produce.

    A program is first compiled ({!compile}) into closures with every
    name resolved — variables to frame slots, names bound nowhere in scope
    to the launch's buffers and constant arrays, struct fields to member
    indices, calls to the compiled callee, constants to prebuilt values —
    and each node's cost-profile slot baked in. The compiled form is
    immutable and may be run ({!exec}) any number of times, concurrently
    from several domains, under any {!config}. *)

type config = {
  fuel : int;  (** per-thread execution-step budget; exhaustion = timeout *)
  schedule : Sched.t;
  detect_races : bool;
  check_divergence : bool;
  layout : Layout.policy;
  profile : Profile.t;
}

val default_config : config
(** Reference semantics: standard layout, no quirks, ascending schedule,
    divergence checking on, race detection off, fuel 250,000. *)

type stats = {
  steps : int;  (** fuel units consumed (one per executed statement/expression charge) *)
  barriers : int;  (** barrier arrivals, counted per thread *)
  atomics : int;  (** atomic operations executed *)
  race_checks : int;  (** local/global accesses fed to the race detector *)
  prof : Costprof.cell list;
      (** cost-profile cells attached by the driver when [--profile] is
          armed; always [[]] straight out of {!run} *)
}
(** Work performed by one launch. Groups and threads execute serially
    on the calling domain with a deterministic schedule, so for a fixed
    testcase and config these counts are exactly reproducible — the
    campaign layer folds them into [-j]-invariant metric totals. *)

val zero_stats : stats
val add_stats : stats -> stats -> stats

type run_result = {
  outcome : Outcome.t;
  races : Race.race list;  (** non-empty only when [detect_races] *)
  stats : stats;  (** work done, valid on every outcome including crashes *)
  ticks : int array;
      (** with [exec ~profile:true], the cost profile: one count per slot
          of the compiled program, one tick per AST-node visit; decode
          with {!constructs}. Empty otherwise. *)
}

type compiled
(** A program compiled for execution. *)

val compile : Ast.program -> compiled
(** Never fails: what a run cannot resolve (an unbound variable, an
    unknown function, a bad arity, a missing kernel buffer) crashes the
    run when execution reaches it, as it would in a tree-walker. *)

val exec :
  ?config:config -> ?profile:bool -> compiled -> Ast.testcase -> run_result
(** Run a compiled program with the testcase's launch: its NDRange,
    buffers and observed outputs. The program run is the compiled one;
    the testcase's own [prog] is not read. [profile] (default [false])
    counts the cost profile into [ticks]: one array bump per node visit,
    on the slot compiled into the node. *)

val exec_witnessed :
  ?config:config -> ?profile:bool -> compiled -> Ast.testcase -> run_result * bool
(** {!exec} watched by the schedule witness: the run, its stats (race
    checks included) and its ticks are exactly {!exec}'s, and the flag
    says whether the run certifies that no {!Sched.t} could change any of
    them. It certifies when the run ended in [Success], executed no
    atomic, stored no pointer to private memory in local or global
    memory (where another thread could reach that private memory
    unwatched), and no two threads of one work-group touched one local
    or global location within one barrier epoch of its space, either
    access a write. A struct or array access touches each of its leaves.
    Groups run in a fixed order and a schedule only permutes one group's
    threads at each rendezvous, so under those conditions every thread
    reads the same values whatever the order, and the run's outcome,
    stats and ticks are the same under every schedule. A run that
    certifies under one schedule does so under all of them. *)

val constructs : compiled -> int array -> Costprof.construct list
(** The non-zero ticks of a run of this program as cost-profile
    constructs, sorted by (loc, kind). The slot names are built once
    per compiled program, by its first decode (from any domain), and
    every decoded run shares their path strings; an unprofiled program
    never builds them. *)

val run : ?config:config -> Ast.testcase -> run_result
(** [compile] the testcase's program, then [exec] it. *)

val run_outcome : ?config:config -> Ast.testcase -> Outcome.t
(** Just the outcome. *)

val output_of_buffers : (string * Scalar.t array) list -> string
(** The canonical result string: buffers in [observe] order, each printed
    as a comma-separated value list (the format CLsmith host programs
    print). Exposed for tests. *)
