(** Static AST-construct table for the interpreter cost profiler.

    [build] walks a program once in deterministic preorder (functions
    in declaration order, the kernel last) and assigns every statement
    and expression node a static slot, a constructor-family name and a
    ';'-separated path of enclosing frames. Lookups are by physical node
    identity and happen when {!Interp.compile} runs, which bakes each
    node's slot into its closure: at run time a tick is one array bump
    into a per-run count array of {!size} slots. The names are built
    only to decode a profiled run's counts.

    Expressions the interpreter synthesises (the EMI guard reads) miss
    the table and fall back to one per-kind synthetic slot (loc -1), so
    every tick is attributed and totals still sum to 100%. Nullary
    constructors ([Break], [Continue], [Return None]) are immediates and
    physically equal across the program; their visits collapse into one
    slot each — deterministic, and harmless for ranking purposes. *)

type t
(** The slot names: enough to decode a count array. *)

type index
(** The identity lookups from nodes to slots, for use while compiling. *)

val build : Ast.program -> t
val index : Ast.program -> index
(** Both number the program's nodes the same way. *)

val size : index -> int
(** Number of slots: the program's nodes, then one synthetic slot per
    constructor family. *)

val expr_slot : index -> Ast.expr -> int
val stmt_slot : index -> Ast.stmt -> int
(** The node's static slot, or the synthetic slot of its family when
    the node is not part of the indexed program. *)

val ticks : int array -> int
(** Total ticks of a count array; equals the sum of construct counts. *)

val constructs : t -> int array -> Costprof.construct list
(** Non-zero counts of a [size]-slot count array as constructs, sorted
    by (loc, kind). *)
