(** Crash-safe, append-only campaign result journal.

    One {!Recordlog} file per campaign run (its framing and crash policy
    are described there): a versioned header record carrying the
    campaign's parameters, then one self-describing record per completed
    cell, written in deterministic task order as the execution pool
    completes cells. A [kill -9] therefore loses at most the in-flight
    cells.

    Parameters split into {b identity} (seed0, fuel, configurations,
    modes, per-cell variant counts — anything that changes a cell's key
    or outcome) and {b scale} (sample sizes like [-n]). Resume rejects a
    journal whose identity differs from the requested run but accepts a
    different scale: continuing an [-n 1] journal at [-n 2] is exactly
    the "grow the campaign" workflow, because a smaller run's cell set is
    a subset of a larger one's at the same identity.

    Resume rewrites rather than appends: replayed and newly-run cells
    stream to a {!Recordlog.replace} writer in the {e new} run's task
    order, renamed over the journal on {!commit}. That is what makes
    a resumed journal byte-identical to an uninterrupted run's, and it
    keeps the original journal intact if the resumed run crashes too. *)

type header = {
  version : int;
  campaign : string;  (** "table1" | "table3" | "table4" | "table5" *)
  ident : (string * string) list;  (** sorted; must match to resume *)
  scale : (string * string) list;  (** recorded, not compared *)
}

val make_header :
  campaign:string ->
  ident:(string * string) list ->
  scale:(string * string) list ->
  header
(** Sorts both parameter lists by key and stamps the current version. *)

type cell = {
  index : int;  (** position in the run's deterministic task order *)
  seed : int;  (** generator seed of the kernel / EMI base (0: none) *)
  mode : string;  (** generation mode, or benchmark name for table3 *)
  config : int;  (** configuration id *)
  opt : string;  (** ["-"] | ["+"] | ["*"] (both levels in [outcomes]) *)
  outcomes : Outcome.t list;
      (** the cell's full outcomes — enough to recompute the table *)
  note : string;  (** campaign-specific payload (table3 result code) *)
}

val key : cell -> string * int * int * string
(** [(mode, seed, config, opt)] — the resume identity of a cell. *)

val cell_to_json : cell -> Jsonl.t
(** The cell's canonical record object — the same encoding a journal
    line carries (minus the line checksum). Shared by the distributed
    fabric's wire protocol so a cell has exactly one serialised form. *)

val cell_of_json : Jsonl.t -> cell option
(** Inverse of {!cell_to_json}; [None] on any malformed field. *)

val index_cells : cell list -> (string * int * int * string, cell) Hashtbl.t

type error =
  | Io of string
  | Corrupt of string  (** damage, or a record this format rejects *)
  | Mismatch of string  (** header identity differs *)

val error_to_string : error -> string

type writer

val create : path:string -> header -> writer
(** Fresh journal: truncates [path], writes the header, flushes. *)

val resume : path:string -> header -> (writer * cell list, error) result
(** Validate the journal at [path] against [header] (version, campaign
    and identity parameters must match) and return its committed cells
    plus a writer replacing [path] on {!commit}, carrying the new header.
    A missing file degrades to {!create} with no cells. *)

val append : path:string -> header -> (writer * cell list, error) result
(** Validate like {!resume}, but return a writer that appends to [path]
    {e in place} — every {!write_cell} is immediately durable in the
    file itself, with no commit-time rename. This is the scratch-journal
    mode of the distributed fabric: cells land in arrival order (not
    task order), so the file is a recovery record for {!load}, never a
    byte-comparable artefact. A torn tail is cut off first
    ({!Recordlog.append}); a missing, empty or torn-header file starts
    afresh like {!create}. *)

val write_cell : writer -> cell -> unit
(** Write one record ({!Recordlog.write}: the commit point). *)

val commit : writer -> unit
(** Close, and for a resume writer rename over the journal. *)

val load : path:string -> (header * cell list * bool, error) result
(** The header and the committed cells; the flag reports a dropped torn
    tail. *)
