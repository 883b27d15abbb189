type style = Ansi | Plain

(* CI logs are the motivating case: a \r-overwritten line becomes one
   unreadable kilometer of control characters in a captured log, so
   anything that is not an interactive terminal gets plain, throttled,
   newline-separated updates instead. NO_COLOR (non-empty) and
   TERM=dumb are honoured as explicit operator requests for the same. *)
let detect_style out =
  let env_plain =
    (match Sys.getenv_opt "NO_COLOR" with Some v -> v <> "" | None -> false)
    || Sys.getenv_opt "TERM" = Some "dumb"
  in
  if env_plain then Plain
  else
    match Unix.isatty (Unix.descr_of_out_channel out) with
    | true -> Ansi
    | false | (exception _) -> Plain

type t = {
  out : out_channel;
  style : style;
  min_interval_ns : int64;
  label : string;
  total : int;
  t0_ns : int64;
  rate : int Series.t;
      (** done cells over time, seeded with the cells done before this
          session, so resumed work costs no session time *)
  mutable done_ : int;
  mutable last_draw_ns : int64;
  mutable tallies : (string * int) list; (* insertion-ordered *)
}

let create ?out:(oc = stderr) ?style ?min_interval_ms ?(start = 0) ~label
    ~total () =
  let style = match style with Some s -> s | None -> detect_style oc in
  let min_interval_ms =
    match min_interval_ms with
    | Some ms -> ms
    (* a plain line cannot be overwritten, so redraw far less often *)
    | None -> ( match style with Ansi -> 100 | Plain -> 1000)
  in
  let t0_ns = Mclock.now_ns () in
  let rate = Series.rate_window () in
  Series.push rate ~now:t0_ns start;
  {
    out = oc;
    style;
    min_interval_ns = Int64.mul (Int64.of_int min_interval_ms) 1_000_000L;
    label;
    total;
    t0_ns;
    rate;
    done_ = start;
    last_draw_ns = 0L;
    tallies = [];
  }

let tally t tag =
  let rec bump = function
    | [] -> [ (tag, 1) ]
    | (tg, n) :: rest when String.equal tg tag -> (tg, n + 1) :: rest
    | kv :: rest -> kv :: bump rest
  in
  t.tallies <- bump t.tallies

let eta_string t now =
  if t.total <= t.done_ then "0s"
  else
    match Series.rate_milli t.rate ~now t.done_ with
    (* no session work measured in the window: any extrapolation would
       be garbage *)
    | r when r <= 0 -> "--:--"
    | r -> Mclock.duration_string ((t.total - t.done_) * 1_000_000 / r)

let draw t now =
  t.last_draw_ns <- now;
  let tallies =
    String.concat " "
      (List.map (fun (tag, n) -> Printf.sprintf "%s:%d" tag n) t.tallies)
  in
  let body =
    Printf.sprintf "%s %d/%d cells  %.1f cells/s  ETA %s  %s" t.label t.done_
      t.total
      (float_of_int (Series.rate_milli t.rate ~now t.done_) /. 1000.)
      (eta_string t now) tallies
  in
  match t.style with
  | Ansi -> Printf.fprintf t.out "\r%s\027[K%!" body
  | Plain -> Printf.fprintf t.out "%s\n%!" body

let step t ~tag =
  t.done_ <- t.done_ + 1;
  tally t tag;
  let now = Mclock.now_ns () in
  Series.push t.rate ~now t.done_;
  if
    t.done_ = t.total
    || Int64.compare (Int64.sub now t.last_draw_ns) t.min_interval_ns >= 0
  then draw t now

let finish t =
  (match t.style with
  | Ansi ->
      draw t (Mclock.now_ns ());
      output_char t.out '\n'
  | Plain ->
      (* the final state was already printed by [step] when the last cell
         arrived; redraw only if something happened since *)
      if Int64.compare t.last_draw_ns t.t0_ns <= 0 || t.done_ < t.total then
        draw t (Mclock.now_ns ()));
  flush t.out
