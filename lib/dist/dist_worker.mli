(** A fabric worker: connects to a coordinator, executes leased shards
    of the campaign grid, streams the results back.

    The worker learns the whole campaign from [Welcome]'s {!Spec} —
    it takes no campaign parameters of its own, which is what makes a
    worker of one campaign indistinguishable from a worker of any
    other. Each lease is run through {!Spec.run_local} with

    - [resume] = every coordinator-synced cell (the lease generation's
      complete dependency prefix),
    - [exec_filter] admitting only the leased global index range, and
    - a [sink] that streams exactly the leased cells back as [Cell]
      messages (everything else the run produces — placeholder cells,
      replayed prefix cells, the driver's fold products — is local
      garbage and discarded).

    Because the executed cells take the same deterministic driver path
    a single-process run takes, what the worker streams is
    byte-identical to what that run would have journalled for those
    indices. *)

type progress =
  | Connected of int  (** worker id from the handshake *)
  | Leased of { gen : int; lo : int; hi : int }
  | Finished of { lease_id : int; executed : int }

val run :
  addr:Netaddr.t ->
  ?jobs:int ->
  ?retries:int ->
  ?journal:string ->
  ?on_progress:(progress -> unit) ->
  unit ->
  (int, string) result
(** Connect (retrying a refused connection [retries] times, default
    20, half a second apart — the coordinator may not be up yet),
    handshake, then serve leases until [Shutdown]. Returns the total
    number of cells executed, or a description of the socket/protocol
    failure. [jobs] sizes the worker's local execution pool.

    [journal] names a per-worker scratch journal ({!Journal.append}):
    every executed cell is durably recorded in arrival order, and a
    restarted worker replays it, streaming previously-executed cells
    that land in a fresh lease instead of re-running them.

    A heartbeat domain ships a [Beat] about once a second: liveness
    plus the two facts only the worker has, its local pool's queue
    depth and its RSS. One more [Beat] leaves right after [Welcome],
    and one after each lease's last [Cell], before its [Done], so even
    a session shorter than a second reports the RSS measured after
    execution. When the coordinator's [Welcome] armed
    telemetry, each lease's drained span buffer and the counter
    registry snapshot travel back on [Done]. None of this touches the
    scratch journal or the streamed cells, so the merged campaign
    output is identical with telemetry on or off. *)
