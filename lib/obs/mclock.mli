(** Monotonic wall clock.

    One indirection over the [bechamel.monotonic_clock] C stub
    ([CLOCK_MONOTONIC] on Linux) so nothing else in the tree names the
    vendor package. Readings are nanoseconds from an arbitrary origin:
    only differences are meaningful, and they survive NTP slews that
    would corrupt [Unix.gettimeofday]-based span durations. *)

val now_ns : unit -> int64
(** Current monotonic time in nanoseconds. *)

val ns_to_us : int64 -> int
(** Truncating nanoseconds -> microseconds conversion (Chrome traces
    and the progress line both work in integer microseconds). *)

val duration_string : int -> string
(** A duration in milliseconds for display: ["850ms"], ["10.0s"],
    ["3.5m"], ["1.2h"], or ["?"] when negative (unknown). The fleet
    table and the progress line both print durations with it. *)
