(** Majority voting over per-kernel outcomes (paper section 7.3).

    "We say that a configuration produces a wrong code result for a kernel
    at a given optimization level if, among all the results computed for
    the kernel, there is a majority of at least 3 among the non-{bf,c,to}
    results for the kernel, and the configuration yields a non-{bf,c,to}
    result that disagrees with the majority." *)

val majority_output : Outcome.t list -> string option
(** The output string shared by a strict plurality of at least 3 of the
    computed ([Success]) results, if one exists. *)

val is_wrong_code : majority:string option -> Outcome.t -> bool
(** [true] when a majority exists, the outcome is computed, and it
    disagrees. *)

(** Outcome bucket used by the campaign tables. *)
type bucket = B_wrong | B_ok | B_bf | B_crash | B_timeout

val bucket_of : majority:string option -> Outcome.t -> bucket
val bucket_name : bucket -> string

val bucket_class : bucket -> string option
(** The triage class of a bucket — ["wrong-code"], ["build-failure"] or
    ["crash"] — or [None] for [B_ok] and [B_timeout], which are no bug.
    Triage, the fuzz loop, the report and [campaign client run] all
    name bugs by it. *)
