(** Mutation-ancestry reconstruction from fuzz journal provenance.

    Every fuzz journal cell's note carries the kernel's provenance —
    ["p=g<seed>"] for a freshly generated kernel, ["p=m<parent>:<op>"]
    for a mutant of an earlier kernel — so a finished (or torn) journal
    contains the complete mutation history of the campaign. This module
    rebuilds it as a DAG over kernel indices: every parent reference
    must name a strictly earlier kernel present in the journal (which
    makes the graph acyclic by construction — every edge decreases the
    id), and a kernel's provenance must agree across all of its cells.
    From the DAG it derives each distinct bug's {e discovery path}: the
    chain root seed → mutation operators → triage bucket that the HTML
    report renders as a collapsible lineage tree. *)

type prov =
  | Root of int  (** generator seed of a fresh kernel *)
  | Mutant of { parent : int; op : string }
      (** parent kernel index and the operator that derived this one *)

type node = {
  id : int;  (** kernel index ([seed] field of the fuzz journal cells) *)
  prov : prov;
  cls_tags : string list;
      (** distinct outcome short-tags observed over the kernel's cells,
          in journal order *)
}

type t

val prov_of_note : string -> prov option
(** Parse the ["p=..."] field of one journal note. *)

val of_cells : Journal.cell list -> (t, string) result
(** Reconstruct the DAG from a journal's cells (non-fuzz cells are
    ignored). [Error] when a note is unparsable, a kernel's provenance
    is inconsistent, or a parent reference does not resolve to an
    earlier journalled kernel. *)

val size : t -> int
val ids : t -> int list
(** Kernel ids in journal (= execution) order. *)

val node : t -> int -> node option
val parent : t -> int -> int option

val path_to_root : t -> int -> (int * string option) list
(** Root-first ancestry of a kernel: [(id, op)] pairs where [op] is the
    operator that produced that node ([None] for the root). *)

val depth : t -> int -> int
(** Mutation distance from the root (0 for a fresh kernel). *)

val root_seed : t -> int -> int option
(** The generator seed at the top of the kernel's ancestry. *)

val operator_counts : t -> (string * int) list
(** How many journalled kernels each mutation operator produced,
    sorted by operator name. *)

type discovery = {
  d_cls : string;
  d_config : int;
  d_opt : string;
  d_signature : string;
  d_kernel : int;  (** the bucket's exemplar kernel *)
  d_path : (int * string option) list;  (** its root-first ancestry *)
}

val discovery_paths :
  t -> (string * int * string * string * int) list -> discovery list
(** [(cls, config, opt, signature, kernel)] triage hits, in hit order:
    one discovery per distinct bucket key (first witness wins, exactly
    like the triage exemplar), with the exemplar's ancestry attached.
    Hits whose kernel is not in the DAG are skipped. *)
