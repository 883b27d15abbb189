(** The on-disk framing and crash policy of every record file the
    system writes: the campaign journal, the corpus index, the
    eventlog, the cost profile and the serve store (DESIGN.md §9).

    A log is a sequence of lines, each one {!Jsonl.encode_line} record
    followed by ['\n']. A record is committed by its ['\n']: writers
    flush after every record, so a kill at any byte leaves the
    committed records plus at most one torn final line. Loading drops
    that line — unterminated, or failing its checksum — and reports it
    as torn; a line failing its checksum anywhere before it is damage,
    and so is a checksummed record the format's decoder rejects: that
    is a foreign or newer file, not a torn write, and the load fails
    wherever it sits. Appending first truncates a torn tail back to the
    end of the last good record, so a new record is never spliced onto
    a fragment. A file that must change as a whole is written to
    [FILE.tmp] and renamed over [FILE] on {!close}, so a reader sees
    the old file or the new one, never a mix. *)

type error =
  | Io of string  (** the file could not be opened or read *)
  | Bad of int * string
      (** [(line, reason)]: line [line] (1-based) is damaged or rejected *)

val fold :
  path:string ->
  init:'a ->
  f:('a -> (string * Jsonl.t) list -> ('a, string) result) ->
  ('a * bool, error) result
(** Feed the fields of each committed record ({!Jsonl.decode_line}) to
    the decoder [f], in file order. The flag reports a dropped torn
    final line. A format with a header decodes it as its first record. *)

type writer

val create : path:string -> writer
(** Create or truncate [path]. *)

val append :
  path:string ->
  init:'a ->
  f:('a -> (string * Jsonl.t) list -> ('a, string) result) ->
  ('a * writer, error) result
(** {!fold} the log at [path] (a missing file is an empty log), cut a
    torn tail off, and return a writer appending after the last good
    record. *)

val replace : path:string -> writer
(** A writer on [path.tmp] that {!close} renames over [path]. *)

val write : writer -> (string * Jsonl.t) list -> unit
(** Encode one record, add its ['\n'] and flush: the commit point. *)

val output : writer -> string -> unit
(** Raw bytes, unflushed — for whole files given to {!replace} that
    are not record logs (kernel texts, collapsed stacks). *)

val close : writer -> unit
(** Close; a {!replace} writer then renames its file into place. *)
