(** Mutation engine over corpus kernels.

    Seven operators, all deterministic functions of the caller's
    splitmix {!Rng.t} stream:

    - {b opt-tweak}: one semantics-changing rewrite from {!Mutate}
      (comparison flip, operand swap, constant-multiplier bump,
      conditional-arm swap) — the same engine the wrong-code fault
      models use, now aimed at producing {e new inputs} rather than
      modelling a buggy compiler;
    - {b lit-tweak}: perturb one integer literal ([+1], [-1], [xor 1]
      or doubling), keeping its declared scalar type;
    - {b swizzle-shuffle}: permute the component list of one vector
      swizzle (type-preserving: length and source width unchanged);
    - {b geom-tweak}: rewrite the launch geometry within the original
      thread budget — swap the X/Y dimensions, collapse a dimension to
      one work-group, or force [Nx = 1] (the Fig. 1(b) trigger). The
      total thread count never grows, so buffer sizes stay valid;
    - {b splice}: graft one statement subtree from a donor corpus
      kernel into the kernel body at a random position — accepted only
      if the result still typechecks (generated kernels share naming
      conventions, so a useful fraction does);
    - {b emi-graft}: inject fresh dead-by-construction EMI blocks
      ({!Inject.inject}) into a kernel that has none;
    - {b emi-prune}: prune existing EMI blocks with one of the paper's
      parameter combinations ({!Prune}).

    Every candidate passes the well-formedness gate before it is
    returned: {!Typecheck.check_testcase}, the determinism discipline
    ({!Validate.check}) and a race-and-divergence-checked reference
    interpretation — the reducer's concurrency-aware gate, run at a
    reduced fuel so the (sequential) gate stays cheap and mutants that
    would merely time out downstream are rejected up front. Mutants are
    therefore always valid differential-testing inputs whose majority
    vote is schedule-independent. *)

type op =
  | Opt_tweak
  | Lit_tweak
  | Swizzle_shuffle
  | Geom_tweak
  | Splice
  | Emi_graft
  | Emi_prune

val op_name : op -> string
(** Stable kebab-case name, used in journal provenance notes and the
    corpus index. *)

val well_formed : Ast.testcase -> bool
(** The gate described above. Exposed for tests. *)

val mutate :
  rng:Rng.t ->
  donor:(unit -> Ast.testcase option) ->
  Ast.testcase ->
  (op * Ast.testcase) option
(** Draw operators until one produces a well-formed mutant distinct
    from the input, for at most a fixed number of attempts; [None] if
    all fail. Two biases push towards {e distinct}-bug yield: the draw
    is weighted towards splice and geometry tweaks (the operators that
    move a kernel to a new trigger signature or change its
    per-configuration reaction), and a mutant that moves neither the
    signature nor the launch geometry is only returned as a fallback
    when no attempt produced one that does — mutants that stay inside
    the parent's triage bucket cannot find new bugs. [donor] supplies
    splice material (typically another pool entry); splice is skipped
    when it returns [None]. *)
