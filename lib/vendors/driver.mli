(** Compile-and-run a test case on a simulated configuration.

    The pipeline mirrors an online OpenCL compile+execute cycle:

    + front-end checks — vendor-specific rejections, compile hangs and
      pathological compile times fire here (build failure / timeout);
    + optimisation — when optimisations are on and the configuration
      optimises, the AST pass pipeline runs (const-fold, simplify, unroll,
      DCE), with buggy pass variants substituted where a fault demands;
    + miscompilation — gated [Wrong_code] faults apply deterministic
      mutations; gated [Quirk] faults assemble the execution profile;
    + execution — the device simulator runs the result; gated crash /
      machine-crash / timeout faults pre-empt execution (the simulation
      does not need to burn cycles to know the run would crash).

    Everything is deterministic in (configuration, optimisation level,
    test case). *)

type prepared
(** A test case with its feature vector and pass-pipeline results cached:
    features, the optimised program and each post-pass program's compiled
    form ({!Interp.compile}) are shared by every configuration, opt level
    and work-item, so campaigns prepare and compile once and run many.
    Each post-pass program also memoizes its runs, keyed by the full
    {!Interp.config} and whether the cost profile is counted: cells that
    agree on both — a campaign's prefilter and its 1+ cell, the two opt
    levels of a configuration that does not optimise — execute once.
    Cells that agree on both up to the schedule form a group, whose
    first run is witnessed ({!Interp.exec_witnessed}); when that run
    certifies that no schedule could change it (it succeeded, executed
    no atomic, put no private address in shared memory, and no two
    threads of one work-group touched one shared location within one
    barrier epoch, either access a write), it
    serves every cell of the group. Otherwise it serves only its own
    config, and each other config of the group runs its own. Whichever
    cell of a group runs first decides, and the outcome is the same at
    every [-j], since a run certifies under one schedule exactly when it
    does under all. Race-detecting configs are never grouped. Every cell
    still gets its own exec span, stats and cost cell. A cell whose
    program a wrong-code fault mutates compiles and runs its own,
    unmemoized. The caches are domain-safe ({!Memo}), so one prepared
    kernel may be run concurrently from every domain of an execution
    pool; they live as long as the prepared kernel. *)

val prepare : Ast.testcase -> prepared
val testcase_of : prepared -> Ast.testcase
val features_of_prepared : prepared -> Features.t

val run_prepared :
  ?noise:bool -> ?fuel:int -> Config.t -> opt:bool -> prepared -> Outcome.t
(** [noise:false] considers only deterministic faults (gate rate >= 1.0) —
    used when demonstrating a specific reduced bug exhibit, where the
    paper's investigation likewise separated the bug under study from
    unrelated transient failures. Default [true].

    [fuel] overrides the interpreter's per-thread step budget — the
    campaigns' per-task soft timeout. Exhaustion yields a deterministic
    [Outcome.Timeout]; the execution pool never kills a task. *)

val run_prepared_stats :
  ?noise:bool ->
  ?fuel:int ->
  ?flow:int ->
  Config.t ->
  opt:bool ->
  prepared ->
  Outcome.t * Interp.stats
(** [run_prepared] plus the interpreter's work tally for the launch —
    zero when a front-end or pre-execution fault short-circuits the run.
    Deterministic in (configuration, opt level, test case), so campaign
    metric totals built from it are [-j]-invariant.

    [flow] tags the exec span with a causal flow id (the campaign's
    global cell index) so merged traces can stitch coordinator leases,
    worker executions and serve submissions of the same cell together.

    When {!Costprof.enabled}, the stats carry exactly one cost cell
    (kernel content hash × (config, opt) × per-construct tick counts);
    the interpreter's tick table is built on the post-pass,
    post-mutation program actually executed. Compiling that program,
    when not already cached, happens inside the cell's exec span, and so
    does reading a memoized run. *)

val cell_program :
  ?noise:bool ->
  ?fuel:int ->
  Config.t ->
  opt:bool ->
  prepared ->
  (Ast.program * Interp.config) option
(** The program (post-pass, post-mutation) and interpreter config that
    {!run_prepared_stats} executes for this cell, or [None] when a fault
    decides the cell without executing it. *)

val run : ?noise:bool -> Config.t -> opt:bool -> Ast.testcase -> Outcome.t
(** [prepare] + [run_prepared]. *)

val run_both : Config.t -> Ast.testcase -> Outcome.t * Outcome.t
(** (optimisations off, optimisations on). *)

val reference_outcome : ?detect_races:bool -> Ast.testcase -> Outcome.t
(** The trustworthy reference device (no faults, standard layout). *)

val compiled_program : Config.t -> opt:bool -> Ast.testcase -> Ast.program
(** The program as the configuration's compiler transforms it (passes and
    mutations applied) — the analogue of inspecting emitted PTX/assembly
    when investigating a bug (paper section 6). Front-end rejections are
    ignored here. *)
