(** A self-contained description of one campaign, shippable over the
    wire.

    The coordinator owns all campaign parameters; workers receive this
    record in [Welcome] and need no flags of their own. Both sides
    derive the same deterministic cell grid from it: {!total_cells}
    cells in global task order, partitioned into {!boundaries}
    generations (one trivial generation for the table campaigns; the
    fuzzing loop's feedback generations for ["fuzz"], where generation
    [g]'s plan depends on every cell of generations [< g]).

    {!run_local} dispatches to the existing drivers — the same code
    path a single-process run takes — so a distributed run inherits
    the ordered-merge byte-identity contract instead of re-proving
    it. *)

type t = {
  campaign : string;  (** "table1" .. "table5" | "fuzz" *)
  n : int;  (** scale: per_mode / bases / kernel budget (table3: unused) *)
  seed0 : int;
  fuel : int option;
  config_ids : int list option;  (** None: the campaign's default set *)
  variants : int;  (** table3/table5 variants per benchmark/base *)
  feedback : bool;  (** fuzz *)
  gen_size : int;  (** fuzz *)
  minimize : bool;  (** fuzz (identity parameter — affects the corpus) *)
}

val campaigns : string list
(** The five legal [campaign] values. *)

val make :
  campaign:string ->
  n:int ->
  ?seed0:int ->
  ?fuel:int ->
  ?config_ids:int list ->
  ?variants:int ->
  ?feedback:bool ->
  ?gen_size:int ->
  ?minimize:bool ->
  unit ->
  (t, string) result
(** Validate the campaign name and fill per-campaign default [seed0]
    (table1: 1, table3: 90000, table4: 10000, table5: 50000, fuzz: 1)
    and [variants] (table3: 12, table5: 10). *)

val default_n : string -> int
(** A campaign's default scale on the command line ([-n]): kernels per
    mode (table1: 10, table4: 60), bases (table5: 15), kernel budget
    (fuzz: {!Fuzz_loop.default_budget}) — and for table3, whose
    benchmark set is fixed, its EMI variants (12). *)

val to_json : t -> Jsonl.t
val of_json : Jsonl.t -> (t, string) result

val header : t -> Journal.header
(** The journal header of the equivalent single-process run — the
    merged journal must validate against (and resume from) it. *)

val total_cells : t -> int
(** Planned cells in the run's global deterministic task order. *)

val boundaries : t -> (int * int) list
(** Generation ranges [(lo, hi)] covering [0, total_cells).
    Generation [g] may only execute once all cells below its [lo] are
    collected; the table campaigns are one dependency-free range. *)

val lease_cells : t -> workers:int -> int
(** The lease size that keeps [workers] busy: a fuzz generation split
    evenly over them, or a table grid cut into two leases per worker.
    At least 1. *)

val clamp : t -> gen:int -> t
(** The spec a worker runs to execute a lease of generation [gen]:
    for ["fuzz"] the kernel budget is capped at generation [gen]'s
    end, which provably leaves the planning of generations [<= gen]
    unchanged and stops the loop right after; table specs are
    returned unchanged. *)

type summary = Table of string | Fuzz of Fuzz_loop.result

val run_local :
  ?jobs:int ->
  ?sink:(Journal.cell -> unit) ->
  ?events:(Eventlog.event -> unit) ->
  ?resume:Journal.cell list ->
  ?exec_filter:(int -> bool) ->
  t ->
  summary
(** Run the campaign through its existing driver. [sink], [resume] and
    [exec_filter] are passed straight through ({!Campaign.run});
    [events] reaches the fuzzing loop only (the table drivers emit no
    lifecycle events of their own). *)
