(* Open-loop HTTP load generator.

   Every request has a due time fixed before the phase starts. At most
   [max_inflight] requests are outstanding, each on its own connection
   ("Connection: close", EOF-delimited response). A request whose due
   time passes while the window is full starts late, and its latency is
   measured from when it was due: a server stall therefore shows up as
   latency on every request queued behind it, never as a lower offered
   rate. *)

type request = {
  due_ns : int64;  (** offset from the phase start *)
  label : string;
  bytes : string;  (** the complete serialised request *)
}

type outcome = {
  label : string;
  due : int64;  (** absolute due time *)
  sent : int64;  (** when the connection was opened *)
  finished : int64;
  status : int;  (** 0 when the connection or the read failed *)
}

let latency_us o = Int64.to_float (Int64.sub o.finished o.due) /. 1000.
let late_us o = Int64.to_float (Int64.sub o.sent o.due) /. 1000.
let ok_status s = s >= 200 && s < 300

let status_of_head s =
  (* "HTTP/1.1 200 OK" *)
  match String.index_opt s ' ' with
  | Some i when String.length s >= i + 4 ->
      Option.value ~default:0 (int_of_string_opt (String.sub s (i + 1) 3))
  | _ -> 0

type conn = {
  idx : int;
  fd : Unix.file_descr;
  mutable off : int;
  resp : Buffer.t;
}

let run ~connect ~max_inflight (reqs : request array) =
  let n = Array.length reqs in
  let t0 = Mclock.now_ns () in
  let due i = Int64.add t0 reqs.(i).due_ns in
  let results = Array.make n None in
  let sent = Array.make n 0L in
  let buf = Bytes.create 65536 in
  let inflight = ref [] in
  let next = ref 0 in
  let finish c status =
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    inflight := List.filter (fun c' -> c'.idx <> c.idx) !inflight;
    let raw = Buffer.contents c.resp in
    results.(c.idx) <-
      Some
        {
          label = reqs.(c.idx).label;
          due = due c.idx;
          sent = sent.(c.idx);
          finished = Mclock.now_ns ();
          status = (if status = 0 then 0 else status_of_head raw);
        }
  in
  let write c =
    let b = reqs.(c.idx).bytes in
    match Unix.write_substring c.fd b c.off (String.length b - c.off) with
    | w -> c.off <- c.off + w
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> finish c 0
  in
  let start i =
    sent.(i) <- Mclock.now_ns ();
    match connect () with
    | fd ->
        Unix.set_nonblock fd;
        let c = { idx = i; fd; off = 0; resp = Buffer.create 256 } in
        inflight := c :: !inflight;
        write c
    | exception Unix.Unix_error _ ->
        results.(i) <-
          Some
            {
              label = reqs.(i).label;
              due = due i;
              sent = sent.(i);
              finished = Mclock.now_ns ();
              status = 0;
            }
  in
  let read c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> finish c 1
    | k -> Buffer.add_subbytes c.resp buf 0 k
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> finish c 0
  in
  while !next < n || !inflight <> [] do
    let now = Mclock.now_ns () in
    while !next < n && List.length !inflight < max_inflight && due !next <= now do
      start !next;
      incr next
    done;
    let timeout =
      if !next < n && List.length !inflight < max_inflight then
        max 0. (Int64.to_float (Int64.sub (due !next) (Mclock.now_ns ())) /. 1e9)
      else 0.5
    in
    if !inflight = [] then (if timeout > 0. then Unix.sleepf timeout)
    else begin
      let writers =
        List.filter_map
          (fun c -> if c.off < String.length reqs.(c.idx).bytes then Some c.fd else None)
          !inflight
      in
      let readers = List.map (fun c -> c.fd) !inflight in
      match Unix.select readers writers [] timeout with
      | r, w, _ ->
          List.iter
            (fun c ->
              if List.mem c.fd w then write c;
              if List.mem c.fd r && List.memq c !inflight then read c)
            !inflight
      | exception Unix.Unix_error (EINTR, _, _) -> ()
    end
  done;
  Array.map Option.get results

(* ---- reports over a phase's outcomes ---- *)

type lateness = {
  sent_n : int;
  late_max_us : float;  (** worst send delay behind the schedule *)
  late_p99_us : float;
  late_over_1ms : int;  (** requests sent more than 1 ms behind schedule *)
  backlog_end_us : float;
      (** median send delay over the last tenth: a backlog that kept
          growing, not a single stall *)
}

let lateness (os : outcome array) =
  let l = Array.to_list (Array.map late_us os) in
  let n = List.length l in
  let tail_from = n - max 1 (n / 10) in
  {
    sent_n = n;
    late_max_us = List.fold_left max 0. l;
    late_p99_us = (if n = 0 then 0. else Stats.rank (Stats.sorted l) 0.99);
    late_over_1ms = List.length (List.filter (fun x -> x > 1000.) l);
    backlog_end_us = Stats.median (List.filteri (fun i _ -> i >= tail_from) l);
  }

let describe_lateness l =
  Printf.sprintf
    "generator lateness: max %.0f us, p99 %.0f us, %d of %d sent >1 ms late, \
     worst over the last tenth %.0f us"
    l.late_max_us l.late_p99_us l.late_over_1ms l.sent_n l.backlog_end_us

(* ---- the highest rate that meets the latency limit ---- *)

type probe = {
  rate : float;
  tail_us : float;  (** the tail percentile of request latency *)
  backlog_us : float;  (** lateness over the probe's last tenth *)
}

let probe_ok ~limit_us p = p.tail_us <= limit_us && p.backlog_us <= limit_us

(* Probe [rates] in ascending order and stop at the first one over the
   limit. The result is where the tail crosses the limit, interpolated
   linearly between the last passing probe and the first failing one
   (the last passing rate when the ladder never fails, None when its
   first rate already fails), with every probe made, in order. *)
let search ~limit_us ~rates probe =
  let rec ascend last acc = function
    | [] -> (Option.map (fun (p : probe) -> p.rate) last, List.rev acc)
    | r :: rest ->
        let p = probe r in
        if probe_ok ~limit_us p then ascend (Some p) (p :: acc) rest
        else
          let est =
            Option.map
              (fun (lo : probe) ->
                let t_lo = lo.tail_us and t_hi = max p.tail_us p.backlog_us in
                let f = if t_hi > t_lo then (limit_us -. t_lo) /. (t_hi -. t_lo) else 0. in
                lo.rate +. (Float.min 1. (Float.max 0. f) *. (p.rate -. lo.rate)))
              last
          in
          (est, List.rev (p :: acc))
  in
  ascend None [] rates
