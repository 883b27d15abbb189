(* Offline renderer: everything is recomputed from the journal cells
   (majority vote, buckets) or replayed from the eventlog; nothing here
   touches the live campaign. *)

let esc s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* a cell's outcomes as (opt-level, outcome) pairs: opt "*" journals
   both levels in order, every other campaign one outcome per cell *)
let cell_outcomes (c : Journal.cell) =
  match (c.Journal.opt, c.Journal.outcomes) with
  | "*", [ a; b ] -> [ ("-", a); ("+", b) ]
  | opt, os -> List.map (fun o -> (opt, o)) os

(* cells grouped by kernel identity (mode, seed), journal order kept *)
let kernel_groups cells =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun (c : Journal.cell) ->
      let k = (c.Journal.mode, c.Journal.seed) in
      match Hashtbl.find_opt tbl k with
      | None ->
          order := k :: !order;
          Hashtbl.replace tbl k [ c ]
      | Some cs -> Hashtbl.replace tbl k (c :: cs))
    cells;
  List.rev_map (fun k -> (k, List.rev (Hashtbl.find tbl k))) !order

type counts = {
  mutable n_ok : int;
  mutable n_wrong : int;
  mutable n_bf : int;
  mutable n_crash : int;
  mutable n_to : int;
}

let counts_total r = r.n_ok + r.n_wrong + r.n_bf + r.n_crash + r.n_to
let opt_rank = function "-" -> 0 | "+" -> 1 | _ -> 2

(* the Table-1 analogue: per-(config, opt) bucket counts with
   wrong-code decided by per-kernel majority vote, like the tables *)
let grid cells =
  let tbl : (int * string, counts) Hashtbl.t = Hashtbl.create 16 in
  let keys = ref [] in
  List.iter
    (fun (_, cs) ->
      let majority =
        Majority.majority_output
          (List.concat_map (fun c -> List.map snd (cell_outcomes c)) cs)
      in
      List.iter
        (fun (c : Journal.cell) ->
          List.iter
            (fun (opt, o) ->
              let key = (c.Journal.config, opt) in
              let r =
                match Hashtbl.find_opt tbl key with
                | Some r -> r
                | None ->
                    let r =
                      { n_ok = 0; n_wrong = 0; n_bf = 0; n_crash = 0; n_to = 0 }
                    in
                    keys := key :: !keys;
                    Hashtbl.replace tbl key r;
                    r
              in
              match Majority.bucket_of ~majority o with
              | Majority.B_ok -> r.n_ok <- r.n_ok + 1
              | Majority.B_wrong -> r.n_wrong <- r.n_wrong + 1
              | Majority.B_bf -> r.n_bf <- r.n_bf + 1
              | Majority.B_crash -> r.n_crash <- r.n_crash + 1
              | Majority.B_timeout -> r.n_to <- r.n_to + 1)
            (cell_outcomes c))
        cs)
    (kernel_groups cells);
  let keys =
    List.sort
      (fun (c1, o1) (c2, o2) ->
        match compare c1 c2 with 0 -> compare (opt_rank o1) (opt_rank o2) | n -> n)
      !keys
  in
  List.map (fun k -> (k, Hashtbl.find tbl k)) keys

(* triage hits as (cls, config, opt, signature, kernel): taken from the
   eventlog when it has them (fuzz stamps real trigger signatures),
   recomputed from journal buckets otherwise *)
let hits_of_events events =
  List.filter_map
    (function
      | Eventlog.Triage_hit { cls; config; opt; signature; seed; _ } ->
          Some (cls, config, opt, signature, seed)
      | _ -> None)
    events

let hits_of_cells cells =
  List.concat_map
    (fun ((_, seed), cs) ->
      let majority =
        Majority.majority_output
          (List.concat_map (fun c -> List.map snd (cell_outcomes c)) cs)
      in
      List.concat_map
        (fun (c : Journal.cell) ->
          List.filter_map
            (fun (opt, o) ->
              Option.map
                (fun cls -> (cls, c.Journal.config, opt, "?", seed))
                (Majority.bucket_class (Majority.bucket_of ~majority o)))
            (cell_outcomes c))
        cs)
    (kernel_groups cells)

let distinct_bugs hits =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (cls, config, opt, signature, _) ->
      Hashtbl.replace seen (cls, config, opt, signature) ())
    hits;
  Hashtbl.length seen

let generations events =
  List.filter_map
    (function
      | Eventlog.Generation
          { gen; kernels; mutants; new_bits; coverage; corpus; findings;
            distinct_bugs } ->
          Some
            (gen, kernels, mutants, new_bits, coverage, corpus, findings,
             distinct_bugs)
      | _ -> None)
    events

(* inline SVG polyline chart; "" when there is nothing to plot *)
let svg_chart ~y_label pts =
  match pts with
  | [] | [ _ ] -> ""
  | pts ->
      let w = 540. and h = 220. in
      let l = 52. and r = 12. and t = 12. and btm = 26. in
      let xs = List.map fst pts and ys = List.map snd pts in
      let fmin = List.fold_left min infinity and fmax = List.fold_left max neg_infinity in
      let xmin = fmin xs and xmax = fmax xs in
      let ymin = min 0. (fmin ys) in
      let ymax = fmax ys in
      let ymax = if ymax <= ymin then ymin +. 1. else ymax in
      let xmax = if xmax <= xmin then xmin +. 1. else xmax in
      let px x = l +. ((x -. xmin) /. (xmax -. xmin) *. (w -. l -. r)) in
      let py y = h -. btm -. ((y -. ymin) /. (ymax -. ymin) *. (h -. t -. btm)) in
      let pt_s =
        String.concat " "
          (List.map (fun (x, y) -> Printf.sprintf "%.1f,%.1f" (px x) (py y)) pts)
      in
      let num v =
        if Float.is_integer v then Printf.sprintf "%.0f" v
        else Printf.sprintf "%.1f" v
      in
      Printf.sprintf
        "<svg viewBox=\"0 0 %.0f %.0f\" width=\"%.0f\" height=\"%.0f\" \
         role=\"img\" aria-label=\"%s\">\n\
         <line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" class=\"axis\"/>\n\
         <line x1=\"%.1f\" y1=\"%.1f\" x2=\"%.1f\" y2=\"%.1f\" class=\"axis\"/>\n\
         <text x=\"%.1f\" y=\"%.1f\" class=\"tick\" text-anchor=\"end\">%s</text>\n\
         <text x=\"%.1f\" y=\"%.1f\" class=\"tick\" text-anchor=\"end\">%s</text>\n\
         <text x=\"%.1f\" y=\"%.1f\" class=\"tick\">%s</text>\n\
         <text x=\"%.1f\" y=\"%.1f\" class=\"tick\" text-anchor=\"end\">%s</text>\n\
         <polyline points=\"%s\" class=\"series\"/>\n\
         </svg>"
        w h w h (esc y_label)
        (* y axis, x axis *)
        l t l (h -. btm)
        l (h -. btm) (w -. r) (h -. btm)
        (* y max / y min labels *)
        (l -. 4.) (t +. 10.) (num ymax)
        (l -. 4.) (h -. btm) (num ymin)
        (* x min / x max labels *)
        l (h -. 8.) (num xmin)
        (w -. r) (h -. 8.) (num xmax)
        pt_s

let section b title body =
  if body <> "" then (
    Buffer.add_string b (Printf.sprintf "<h2>%s</h2>\n" (esc title));
    Buffer.add_string b body;
    Buffer.add_char b '\n')

let params_html ident scale =
  let row (k, v) =
    Printf.sprintf "<tr><td>%s</td><td><code>%s</code></td></tr>" (esc k) (esc v)
  in
  Printf.sprintf
    "<table class=\"kv\"><tr><th colspan=\"2\">identity</th></tr>%s\
     <tr><th colspan=\"2\">scale</th></tr>%s</table>"
    (String.concat "" (List.map row ident))
    (String.concat "" (List.map row scale))

let outcome_table g =
  if g = [] then ""
  else
    let row ((config, opt), r) =
      Printf.sprintf
        "<tr><td>%d</td><td>%s</td><td>%d</td>\
         <td class=\"bad\">%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>"
        config (esc opt) r.n_ok r.n_wrong r.n_bf r.n_crash r.n_to
        (counts_total r)
    in
    Printf.sprintf
      "<table><tr><th>config</th><th>opt</th><th>ok</th><th>wrong</th>\
       <th>build&#8209;fail</th><th>crash</th><th>timeout</th><th>total</th></tr>\
       %s</table>"
      (String.concat "\n" (List.map row g))

let heatmap g =
  if g = [] then ""
  else
    let configs =
      List.sort_uniq compare (List.map (fun ((c, _), _) -> c) g)
    in
    let opts =
      List.sort_uniq
        (fun a b -> compare (opt_rank a) (opt_rank b))
        (List.map (fun ((_, o), _) -> o) g)
    in
    let cell config opt =
      match List.assoc_opt (config, opt) g with
      | None -> "<td class=\"na\">&#8211;</td>"
      | Some r ->
          let total = counts_total r in
          let bad = r.n_wrong + r.n_bf + r.n_crash in
          let share = if total = 0 then 0. else float_of_int bad /. float_of_int total in
          Printf.sprintf
            "<td style=\"background:rgba(203,36,49,%.2f)\" title=\"%d of %d \
             interesting\">%.0f%%</td>"
            share bad total (100. *. share)
    in
    Printf.sprintf
      "<p>share of interesting (wrong&#8209;code / build&#8209;failure / crash) \
       cells per configuration and opt level</p>\n\
       <table class=\"heat\"><tr><th>config</th>%s</tr>%s</table>"
      (String.concat ""
         (List.map (fun o -> Printf.sprintf "<th>opt&nbsp;%s</th>" (esc o)) opts))
      (String.concat "\n"
         (List.map
            (fun c ->
              Printf.sprintf "<tr><td>%d</td>%s</tr>" c
                (String.concat "" (List.map (cell c) opts)))
            configs))

let curves gens =
  if gens = [] then ""
  else
    (* x axis: cumulative kernels executed = the campaign budget spent *)
    let _, cov_pts, bug_pts =
      List.fold_left
        (fun (spent, cov, bugs)
             (_, kernels, _, _, coverage, _, _, distinct) ->
          let spent = spent + kernels in
          let x = float_of_int spent in
          ( spent,
            (x, float_of_int coverage) :: cov,
            (x, float_of_int distinct) :: bugs ))
        (0, [ (0., 0.) ], [ (0., 0.) ])
        gens
    in
    let gen_rows =
      List.map
        (fun (gen, kernels, mutants, new_bits, coverage, corpus, findings,
              distinct) ->
          Printf.sprintf
            "<tr><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td>\
             <td>%d</td><td>%d</td><td>%d</td></tr>"
            gen kernels mutants new_bits coverage corpus findings distinct)
        gens
    in
    Printf.sprintf
      "<div class=\"charts\"><figure><figcaption>coverage growth over \
       executed kernels</figcaption>%s</figure>\n\
       <figure><figcaption>distinct bugs over executed kernels</figcaption>%s\
       </figure></div>\n\
       <details><summary>per-generation detail</summary>\n\
       <table><tr><th>gen</th><th>kernels</th><th>mutants</th>\
       <th>new&nbsp;bits</th><th>coverage</th><th>corpus</th>\
       <th>findings</th><th>distinct&nbsp;bugs</th></tr>%s</table></details>"
      (svg_chart ~y_label:"coverage points" (List.rev cov_pts))
      (svg_chart ~y_label:"distinct bugs" (List.rev bug_pts))
      (String.concat "\n" gen_rows)

let stage_timing events =
  let last =
    List.fold_left
      (fun acc e -> match e with Eventlog.Stage_timing s -> Some s | _ -> acc)
      None events
  in
  match last with
  | None | Some [] -> ""
  | Some stages ->
      let total = List.fold_left (fun a (_, us) -> a + us) 0 stages in
      let row (cat, us) =
        Printf.sprintf
          "<tr><td>%s</td><td>%.1f&nbsp;ms</td><td>%.1f%%</td></tr>" (esc cat)
          (float_of_int us /. 1000.)
          (if total = 0 then 0. else 100. *. float_of_int us /. float_of_int total)
      in
      Printf.sprintf
        "<table><tr><th>stage</th><th>time</th><th>share</th></tr>%s</table>"
        (String.concat "\n" (List.map row stages))

let incidents events =
  let items =
    List.filter_map
      (function
        | Eventlog.Watchdog { level; completed; in_flight; stalled_domains;
                              idle_ms } ->
            Some
              (Printf.sprintf
                 "<li class=\"bad\">watchdog <b>%s</b>: no progress for \
                  %d&nbsp;ms at %d completed, %d in flight%s</li>"
                 (esc level) idle_ms completed in_flight
                 (if stalled_domains = [] then ""
                  else
                    Printf.sprintf ", stale domains [%s]"
                      (String.concat "; "
                         (List.map string_of_int stalled_domains))))
        | Eventlog.Pool_health { worker; submitted; completed; in_flight;
                                 stalled_domains } ->
            Some
              (Printf.sprintf
                 "<li>%s health: %d submitted, %d completed, %d in \
                  flight%s</li>"
                 (if worker < 0 then "pool"
                  else Printf.sprintf "worker %d" worker)
                 submitted completed in_flight
                 (if stalled_domains = [] then ""
                  else
                    Printf.sprintf ", stale domains [%s]"
                      (String.concat "; "
                         (List.map string_of_int stalled_domains))))
        | Eventlog.Fleet_health { total; collected; in_flight; fleet_milli;
                                  workers } ->
            let stragglers =
              List.filter (fun fw -> fw.Eventlog.fw_straggler) workers
            in
            Some
              (Printf.sprintf
                 "<li class=\"bad\">fleet health: %d/%d cells, %d in flight, \
                  %d.%d cells/s over %d worker%s%s</li>"
                 collected total in_flight (fleet_milli / 1000)
                 (fleet_milli mod 1000 / 100)
                 (List.length workers)
                 (if List.length workers = 1 then "" else "s")
                 (if stragglers = [] then ""
                  else
                    Printf.sprintf ", stragglers [%s]"
                      (String.concat "; "
                         (List.map
                            (fun fw -> string_of_int fw.Eventlog.fw_worker)
                            stragglers))))
        | _ -> None)
      events
  in
  if items = [] then "" else Printf.sprintf "<ul>%s</ul>" (String.concat "\n" items)

(* the last fleet_health snapshot is the fleet's final recorded shape;
   rendered as its own panel so distributed runs get a per-worker view
   without digging through the incident list *)
let fleet_panel events =
  let last =
    List.fold_left
      (fun acc e ->
        match e with
        | Eventlog.Fleet_health { total; collected; in_flight; fleet_milli;
                                  workers } ->
            Some (total, collected, in_flight, fleet_milli, workers)
        | _ -> acc)
      None events
  in
  match last with
  | None -> ""
  | Some (total, collected, in_flight, fleet_milli, workers) ->
      let row (fw : Eventlog.fleet_worker) =
        Printf.sprintf
          "<tr%s><td>%d</td><td>%s</td><td>%d</td><td>%d.%d</td><td>%d</td>\
           </tr>"
          (if fw.Eventlog.fw_straggler then " class=\"bad\"" else "")
          fw.Eventlog.fw_worker
          (if not fw.Eventlog.fw_alive then "gone"
           else if fw.Eventlog.fw_straggler then "straggler"
           else "live")
          fw.Eventlog.fw_cells
          (fw.Eventlog.fw_rate_milli / 1000)
          (fw.Eventlog.fw_rate_milli mod 1000 / 100)
          fw.Eventlog.fw_last_ms
      in
      Printf.sprintf
        "<p>last watchdog fleet sample: %d/%d cells collected, %d in flight, \
         %d.%d cells/s fleet throughput.</p>\n\
         <table><tr><th>worker</th><th>state</th><th>cells</th>\
         <th>cells/s</th><th>last&nbsp;seen&nbsp;(ms)</th></tr>%s</table>"
        collected total in_flight (fleet_milli / 1000) (fleet_milli mod 1000 / 100)
        (String.concat "\n" (List.map row workers))

let lineage_html cells hits =
  if not (List.exists (fun c -> c.Journal.mode = "fuzz") cells) then ""
  else
    match Lineage.of_cells cells with
    | Error m -> Printf.sprintf "<p class=\"bad\">lineage unavailable: %s</p>" (esc m)
    | Ok t ->
        let discoveries = Lineage.discovery_paths t hits in
        let tree d =
          let step (id, op) =
            match op with
            | None ->
                let seed =
                  match Lineage.root_seed t id with
                  | Some s -> Printf.sprintf " (generator seed %d)" s
                  | None -> ""
                in
                Printf.sprintf "<li>kernel %d — fresh%s</li>" id seed
            | Some op ->
                Printf.sprintf "<li>kernel %d — via <code>%s</code></li>" id
                  (esc op)
          in
          Printf.sprintf
            "<details><summary><b>%s</b> @ config %d, opt %s — \
             <code>%s</code> (kernel %d, %d mutation%s)</summary>\n\
             <ol class=\"path\">%s<li class=\"bad\">&#8627; %s</li></ol></details>"
            (esc d.Lineage.d_cls) d.Lineage.d_config (esc d.Lineage.d_opt)
            (esc d.Lineage.d_signature) d.Lineage.d_kernel
            (Lineage.depth t d.Lineage.d_kernel)
            (if Lineage.depth t d.Lineage.d_kernel = 1 then "" else "s")
            (String.concat "\n" (List.map step d.Lineage.d_path))
            (esc d.Lineage.d_cls)
        in
        let ops = Lineage.operator_counts t in
        let ops_html =
          if ops = [] then ""
          else
            Printf.sprintf
              "<details><summary>mutation operator usage (%d journalled \
               mutants)</summary><table><tr><th>operator</th><th>kernels</th>\
               </tr>%s</table></details>"
              (List.fold_left (fun a (_, n) -> a + n) 0 ops)
              (String.concat "\n"
                 (List.map
                    (fun (op, n) ->
                      Printf.sprintf "<tr><td><code>%s</code></td><td>%d</td></tr>"
                        (esc op) n)
                    ops))
        in
        Printf.sprintf
          "<p>%d kernels in the mutation DAG, %d distinct bug%s with a \
           discovery path.</p>\n%s\n%s"
          (Lineage.size t) (List.length discoveries)
          (if List.length discoveries = 1 then "" else "s")
          (String.concat "\n" (List.map tree discoveries))
          ops_html

let style =
  {css|
body { font: 14px/1.45 system-ui, sans-serif; margin: 2em auto; max-width: 64em;
       padding: 0 1em; color: #1f2328; }
h1 { border-bottom: 2px solid #d0d7de; padding-bottom: .3em; }
h2 { margin-top: 1.6em; }
table { border-collapse: collapse; margin: .6em 0; }
th, td { border: 1px solid #d0d7de; padding: .25em .6em; text-align: right; }
th { background: #f6f8fa; }
td:first-child, th:first-child { text-align: left; }
table.kv td, table.kv th { text-align: left; }
table.heat td { min-width: 4em; text-align: center; }
.bad { color: #cb2431; }
.na { color: #8b949e; }
.badge { display: inline-block; background: #fff8c5; border: 1px solid #d4a72c;
         border-radius: 4px; padding: 0 .5em; font-size: .85em; }
.charts { display: flex; flex-wrap: wrap; gap: 1.5em; }
figure { margin: 0; }
figcaption { font-size: .9em; color: #57606a; margin-bottom: .3em; }
svg .axis { stroke: #57606a; stroke-width: 1; }
svg .series { fill: none; stroke: #0969da; stroke-width: 2; }
svg .tick { font: 10px system-ui, sans-serif; fill: #57606a; }
details { margin: .4em 0; }
summary { cursor: pointer; }
ol.path { margin: .3em 0 .3em 1em; }
code { background: #f6f8fa; padding: 0 .25em; border-radius: 3px; }
|css}

(* serve-daemon time series: throughput from the per-interval request
   delta, latency from the sampled p50/p99 *)
let history_panel (samples : Svhistory.sample list) =
  match samples with
  | [] | [ _ ] -> ""
  | samples ->
      let t_s (s : Svhistory.sample) = float_of_int s.t_ms /. 1000. in
      let rec deltas (prev : Svhistory.sample) = function
        | [] -> []
        | (s : Svhistory.sample) :: tl ->
            let dt = float_of_int (s.t_ms - prev.t_ms) /. 1000. in
            let dr = float_of_int (s.requests - prev.requests) in
            (t_s s, if dt > 0. then dr /. dt else 0.) :: deltas s tl
      in
      let throughput =
        match samples with [] -> [] | first :: rest -> deltas first rest
      in
      let latency p =
        List.filter_map
          (fun s ->
            let v = p s in
            if v < 0 then None else Some (t_s s, float_of_int v))
          samples
      in
      let shed_total = (List.nth samples (List.length samples - 1)).shed in
      String.concat "\n"
        (List.filter
           (fun s -> s <> "")
           [
             svg_chart ~y_label:"requests per second over time (s)" throughput;
             svg_chart ~y_label:"request latency p50 (us) over time (s)"
               (latency (fun s -> s.p50_us));
             svg_chart ~y_label:"request latency p99 (us) over time (s)"
               (latency (fun s -> s.p99_us));
             (if shed_total > 0 then
                Printf.sprintf "<p>%d connection%s shed in total.</p>"
                  shed_total
                  (if shed_total = 1 then "" else "s")
              else "");
           ])

let render ~(header : Journal.header) ~cells ?(truncated = false) ?(events = [])
    ?(history = []) () =
  let b = Buffer.create 8192 in
  let g = grid cells in
  let hits =
    match hits_of_events events with [] -> hits_of_cells cells | hs -> hs
  in
  let kernels = List.length (kernel_groups cells) in
  Buffer.add_string b
    (Printf.sprintf
       "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">\n\
        <title>campaign report — %s</title>\n<style>%s</style></head><body>\n"
       (esc header.Journal.campaign) style);
  Buffer.add_string b
    (Printf.sprintf
       "<h1>campaign report — %s</h1>\n\
        <p>%d journalled cells over %d kernels, %d distinct bug bucket%s.%s</p>\n"
       (esc header.Journal.campaign) (List.length cells) kernels
       (distinct_bugs hits)
       (if distinct_bugs hits = 1 then "" else "s")
       (if truncated then
          " <span class=\"badge\">torn final journal line discarded</span>"
        else ""));
  section b "Parameters" (params_html header.Journal.ident header.Journal.scale);
  section b "Outcomes by configuration and opt level" (outcome_table g);
  section b "Interesting-cell heatmap" (heatmap g);
  section b "Campaign curves" (curves (generations events));
  section b "Stage timing" (stage_timing events);
  section b "Fleet" (fleet_panel events);
  section b "Serve throughput and latency" (history_panel history);
  section b "Incidents" (incidents events);
  section b "Bug discovery paths" (lineage_html cells hits);
  Buffer.add_string b "</body></html>\n";
  Buffer.contents b

let summary ~(header : Journal.header) ~cells ?(truncated = false)
    ?(events = []) () =
  let b = Buffer.create 1024 in
  let g = grid cells in
  let hits =
    match hits_of_events events with [] -> hits_of_cells cells | hs -> hs
  in
  Printf.bprintf b "campaign %s: %d cells, %d kernels, %d distinct bug(s)%s\n"
    header.Journal.campaign (List.length cells)
    (List.length (kernel_groups cells))
    (distinct_bugs hits)
    (if truncated then " [torn tail discarded]" else "");
  List.iter
    (fun ((config, opt), r) ->
      Printf.bprintf b
        "  config %d opt %s: ok %d, wrong %d, bf %d, crash %d, to %d\n" config
        opt r.n_ok r.n_wrong r.n_bf r.n_crash r.n_to)
    g;
  (match generations events with
  | [] -> ()
  | gens ->
      let _, _, _, _, coverage, corpus, _, distinct =
        List.nth gens (List.length gens - 1)
      in
      Printf.bprintf b
        "  fuzz: %d generations, final coverage %d, corpus %d, distinct bugs \
         %d\n"
        (List.length gens) coverage corpus distinct);
  Buffer.contents b
