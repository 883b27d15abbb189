(** Content-addressed corpus of interesting kernels.

    Wrong-code, crash and build-failure witnesses from a campaign are
    kept as OpenCL C text ([Pp.program_to_string]) under their content
    hash — [DIR/<md5hex>.cl] — so the same kernel surfacing in many
    campaigns, configurations or resumed runs is stored exactly once.
    A {!Recordlog} index ([DIR/index.jsonl]) records one entry per
    (kernel, classification, configuration, opt level): the provenance
    needed to regenerate the kernel deterministically from its seed and
    re-run it against the configuration that misbehaved. *)

type entry = {
  hash : string;  (** MD5 hex of the kernel text = file basename *)
  seed : int;  (** generator seed: the kernel's deterministic provenance *)
  mode : string;  (** generation mode name *)
  cls : string;  (** "wrong-code" | "crash" | "build-failure" *)
  config : int;
  opt : string;  (** ["-"] | ["+"] *)
}

val hash_text : string -> string
(** MD5 hex of the kernel text — the content address. *)

val entry_fields : entry -> (string * Jsonl.t) list
(** The entry's canonical JSON fields (kind tag ["kernel"] first) —
    one corpus index line minus the checksum, also the serve API's
    kernel encoding. *)

val entry_of_fields : (string * Jsonl.t) list -> entry option
(** Inverse of {!entry_fields}; ignores unknown fields. *)

val kernel_path : dir:string -> hash:string -> string

val add_all : dir:string -> (entry * string) list -> (int, string) result
(** Store each (entry, kernel text) pair: the kernel file is written
    whole if absent ({!Recordlog.replace}), and the index, its torn tail
    cut off first ({!Recordlog.append}), gains an entry per new (hash,
    cls, config, opt). Returns how many index entries were new. *)

val index : dir:string -> (entry list, string) result
(** All committed index entries, insertion order. A missing corpus
    reads as empty. *)

val read_kernel : dir:string -> hash:string -> (string, string) result

val fold :
  dir:string ->
  init:'a ->
  f:('a -> entry -> string -> 'a) ->
  ('a, string) result
(** One pass over the corpus: [f] receives every index entry together
    with its kernel text, in index order. Kernel files are read once
    per distinct hash (entries sharing a kernel share the read), so
    consumers no longer re-scan the index and then re-open each file
    per entry. Fails on the first unreadable kernel. *)

val load_all : dir:string -> ((entry * string) list, string) result
(** [fold] specialised to collecting [(entry, kernel text)] pairs in
    index order — the one-call replacement for the
    [index]-then-[read_kernel] two-pass pattern. *)

val verify : dir:string -> entry -> (unit, string) result
(** Re-hash the stored kernel text and compare with the content address. *)

(** One inconsistency found by {!fsck}. *)
type damage =
  | Hash_mismatch of { hash : string; actual : string }
      (** stored text no longer hashes to its address *)
  | Missing_kernel of string  (** indexed hash with no [.cl] file *)
  | Orphan_kernel of string  (** [.cl] file no index entry references *)
  | Duplicate_entry of { hash : string; cls : string; config : int; opt : string }
      (** the same dedup key indexed twice *)
  | Index_unreadable of string

val damage_to_string : damage -> string

val fsck : dir:string -> damage list
(** Full corpus consistency check — duplicate index keys, then content
    addresses (each distinct hash re-hashed once), then orphan kernel
    files in directory-sorted order. Empty list means healthy; a healthy
    check is read-only and touches each kernel file once. *)
