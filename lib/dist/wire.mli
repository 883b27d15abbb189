(** Length-framed message transport for the distributed fabric.

    One frame on the byte stream is

    {v LENGTH '\n' PAYLOAD '\n' v}

    where [LENGTH] is the decimal byte length of [PAYLOAD] and the
    payload is one checksummed JSONL line ({!Jsonl.encode_line}) — the
    same per-line MD5 discipline the journal and eventlog use, so a
    corrupted frame is detected twice: the framing layer rejects torn
    or oversized frames, and the protocol layer rejects payloads whose
    checksum does not match.

    The decoder is incremental: feed it whatever [read] returned and
    drain complete frames; a partial frame simply waits for more
    bytes. Corruption is sticky — a stream that desynchronised once
    cannot be trusted again, so the connection must be dropped. *)

val max_frame : int
(** Upper bound on a payload's length (16 MiB); a larger announced
    length is treated as corruption, bounding memory per connection. *)

val frame : string -> string
(** The payload wrapped in its length header and terminator. *)

type counters = { mutable frames : int; mutable bytes : int }
(** Transport totals for one direction of one connection — the
    baseline any future frame-compression work must beat. Every count
    also lands in the global {!Metrics} registry under
    ["wire.in.*"]/["wire.out.*"] (registered lazily, so a process that
    never opens a socket never reports them). *)

val counters : unit -> counters
(** A fresh zeroed pair, for the egress side of a connection. *)

val count_out : counters -> int -> unit
(** Record one sent frame whose {e payload} is [n] bytes long; the
    counted byte total includes the length header and terminators,
    matching what {!frame} puts on the wire. *)

type decoder

val decoder : unit -> decoder

val feed : decoder -> Bytes.t -> int -> unit
(** Append the first [n] bytes of the buffer to the decoder. *)

val feed_string : decoder -> string -> unit

val next : decoder -> [ `Frame of string | `Awaiting | `Corrupt of string ]
(** Extract the next complete payload. [`Awaiting] means the buffered
    bytes form a frame prefix; [`Corrupt] is terminal (every later
    call returns it too). *)

val ingress : decoder -> counters
(** Frames and bytes this decoder has accepted so far. *)
