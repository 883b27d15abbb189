(** Bounded ring of periodic serve-daemon metrics snapshots.

    The server pushes at most one sample per second from its tick loop
    (a {!Series} one second apart); the ring keeps the most recent
    [capacity] samples (default 512, ~8.5 minutes at 1 Hz) and drops
    the oldest beyond that, so the daemon's memory stays bounded over
    arbitrarily long runs. [GET /metrics/history] serves {!to_json};
    {!Report_html} charts the throughput/latency panels from
    {!samples}. *)

type sample = {
  t_ms : int;  (** milliseconds since the server started *)
  requests : int;  (** cumulative requests served *)
  shed : int;  (** cumulative connections shed *)
  timeouts : int;  (** cumulative request timeouts *)
  p50_us : int;  (** request latency p50 so far; -1 before any request *)
  p99_us : int;  (** request latency p99 so far; -1 before any request *)
}

type t = sample Series.t

val create : ?capacity:int -> unit -> t

val samples : t -> sample list
(** Oldest first. *)

val to_json : t -> Jsonl.t
(** [{"count":N,"capacity":C,"samples":[{"t_ms":..,"requests":..,
    "shed":..,"timeouts":..,"p50_us":..,"p99_us":..}, ...]}] with
    samples oldest first. *)
