(** Minimal JSON codec for the persistence layer's line-oriented files.

    Every record file is JSONL: one self-describing JSON object per
    line, so any text tool can inspect a run. The codec supports
    exactly the subset the store emits — null, booleans, OCaml ints,
    strings, arrays, objects — and round-trips arbitrary OCaml strings
    (bytes outside printable ASCII are escaped as [\u00XX]). Encoding is
    canonical: no whitespace, object fields in construction order — which
    is what makes per-line checksums and byte-identical journals possible.

    {!encode_line}/{!decode_line} add and verify a trailing ["h"] field:
    an MD5 hex digest of the canonical encoding of the object without it.
    Whether a line failing its checksum is a torn tail or damage is
    {!Recordlog}'s policy. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Canonical (whitespace-free, order-preserving) encoding. *)

val of_string : string -> (t, string) result
(** Parse one JSON value; rejects trailing garbage, floats and
    [\u]-escapes above [0x00FF] (the codec never emits either). *)

val member : string -> t -> t option
(** First field of that name when the value is an object. *)

val get_str : t -> string option
val get_int : t -> int option
val get_bool : t -> bool option
val get_list : t -> t list option

val encode_line : (string * t) list -> string
(** The object with a checksum field ["h"] appended — no newline. *)

val decode_line : string -> ((string * t) list, string) result
(** Parse, verify and strip the ["h"] checksum field. *)
