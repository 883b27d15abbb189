type cell = { w : int; bf : int; c : int; timeout : int; ok : int }

let zero_cell = { w = 0; bf = 0; c = 0; timeout = 0; ok = 0 }

let add_bucket cell (b : Majority.bucket) =
  match b with
  | Majority.B_wrong -> { cell with w = cell.w + 1 }
  | Majority.B_bf -> { cell with bf = cell.bf + 1 }
  | Majority.B_crash -> { cell with c = cell.c + 1 }
  | Majority.B_timeout -> { cell with timeout = cell.timeout + 1 }
  | Majority.B_ok -> { cell with ok = cell.ok + 1 }

let w_pct cell = Table_fmt.pct cell.w (cell.w + cell.ok)

type mode_result = {
  mode : Gen_config.mode;
  tests_used : int;
  discarded_sharing : int;
  discarded_prefilter : int;
  per_config : ((int * bool) * cell) list;
}

let prefilter_config = Config.find 1

let opt_str opt = if opt then "+" else "-"

let journal_header ?fuel ?(per_mode = 60) ?(seed0 = 10_000) ?config_ids ?modes
    () =
  let config_ids =
    match config_ids with Some l -> l | None -> Config.above_threshold_ids
  in
  let modes = match modes with Some m -> m | None -> Gen_config.all_modes in
  Journal.make_header ~campaign:"table4"
    ~ident:
      [
        ("seed0", string_of_int seed0);
        ("fuel", match fuel with Some f -> string_of_int f | None -> "-");
        ("configs", String.concat "," (List.map string_of_int config_ids));
        ("modes", String.concat "," (List.map Gen_config.mode_name modes));
      ]
    ~scale:[ ("per_mode", string_of_int per_mode) ]

(* a cell's result is its one outcome *)
let codec =
  {
    Par.outcomes = (fun o -> [ o ]);
    note = (fun _ _ _ -> "");
    decode =
      (function
      | { Journal.outcomes = [ o ]; _ } -> Some (o, Interp.zero_stats)
      | _ -> None);
    crash = Fun.id;
  }

let run ?jobs ?fuel ?(per_mode = 60) ?(seed0 = 10_000) ?config_ids ?modes ?sink
    ?resume ?exec_filter () =
  let jobs = match jobs with Some j -> j | None -> Pool.recommended_jobs () in
  let config_ids =
    match config_ids with Some l -> l | None -> Config.above_threshold_ids
  in
  let modes = match modes with Some m -> m | None -> Gen_config.all_modes in
  let configs = List.map Config.find config_ids in
  let keys =
    List.concat_map (fun c -> [ (c.Config.id, false); (c.Config.id, true) ]) configs
  in
  Pool.with_pool ~jobs @@ fun pool ->
  (* one engine for the whole run: cells are numbered across modes *)
  let eng = Par.engine ?sink ?resume ?exec_filter pool in
  List.map
    (fun mode ->
      let mode_name = Gen_config.mode_name mode in
      let gcfg = Gen_config.scaled mode in
      (* phase 1: generate + prefilter candidate seeds in parallel batches,
         consumed in seed order (Par.collect), so survivors and discard
         tallies match the sequential loop exactly. Generation is
         recomputed on resume, to rebuild the kernels; a kernel's
         prefilter verdict is read from its journalled 1+ cell when the
         journal holds it, and otherwise computed here — a run that the
         kernel's 1+ cell then reads from the prepared kernel's run memo.
         An accepted kernel is held until its last cell has run. *)
      let classify ~seed =
        let tc, info =
          Span.with_ ~cat:"gen" "generate" (fun () ->
              Generate.generate ~cfg:gcfg ~seed ())
        in
        if info.Generate.counter_sharing then Par.Reject `Sharing
        else
          let prep = Driver.prepare tc in
          let journalled =
            Par.replayed eng
              (mode_name, seed, prefilter_config.Config.id, opt_str true)
          in
          let verdict =
            match Option.bind journalled codec.Par.decode with
            | Some (o, _) -> o
            | None -> Driver.run_prepared ?fuel prefilter_config ~opt:true prep
          in
          match verdict with
          | Outcome.Build_failure _ | Outcome.Timeout -> Par.Reject `Prefiltered
          | _ -> Par.Accept (seed, Par.hold ~cells:(List.length keys) prep)
      in
      let kernels, rejects = Par.collect pool ~n:per_mode ~seed0 ~classify in
      (* phase 2: every (kernel, config, opt-level) cell is one pool task,
         in kernel-major stable order; its global index is the causal flow
         id stitching exec spans to coordinator leases *)
      let tasks =
        List.concat_map
          (fun (seed, prep) ->
            List.concat_map
              (fun c -> [ (seed, prep, c, false); (seed, prep, c, true) ])
              configs)
          kernels
      in
      let outcomes =
        Par.cells eng codec
          ~key:(fun (seed, _, c, opt) -> (mode_name, seed, c.Config.id, opt_str opt))
          ~f:(fun flow (_, prep, c, opt) ->
            Par.use prep (Driver.run_prepared_stats ?fuel ~flow c ~opt))
          tasks
      in
      (* deterministic merge: regroup the flat outcome list by kernel (the
         chunk layout mirrors [keys]) and fold buckets in task order *)
      let cells = Hashtbl.create 64 in
      List.iter (fun k -> Hashtbl.replace cells k zero_cell) keys;
      List.iter
        (fun kernel_outcomes ->
          List.iter2
            (fun key b ->
              Hashtbl.replace cells key (add_bucket (Hashtbl.find cells key) b))
            keys (Par.vote eng kernel_outcomes))
        (Par.chunk (List.length keys) outcomes);
      {
        mode;
        tests_used = List.length kernels;
        discarded_sharing = Par.count rejects ~tag:`Sharing;
        discarded_prefilter = Par.count rejects ~tag:`Prefiltered;
        per_config = List.map (fun k -> (k, Hashtbl.find cells k)) keys;
      })
    modes

let to_table (results : mode_result list) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      let header =
        "metric"
        :: List.map
             (fun ((id, opt), _) -> Printf.sprintf "%d%s" id (if opt then "+" else "-"))
             r.per_config
        @ [ "Total" ]
      in
      let metric name get =
        name
        :: List.map (fun (_, cell) -> string_of_int (get cell)) r.per_config
        @ [ string_of_int (List.fold_left (fun a (_, c) -> a + get c) 0 r.per_config) ]
      in
      let total_cell =
        List.fold_left
          (fun acc (_, c) ->
            { w = acc.w + c.w; bf = acc.bf + c.bf; c = acc.c + c.c;
              timeout = acc.timeout + c.timeout; ok = acc.ok + c.ok })
          zero_cell r.per_config
      in
      let wpct_row =
        "w%"
        :: List.map (fun (_, cell) -> w_pct cell) r.per_config
        @ [ w_pct total_cell ]
      in
      Buffer.add_string buf
        (Table_fmt.render_titled
           ~title:
             (Printf.sprintf
                "Table 4 [%s] (%d tests; %d discarded: counter sharing, %d: \
                 prefilter on 1+)"
                (Gen_config.mode_name r.mode)
                r.tests_used r.discarded_sharing r.discarded_prefilter)
           ~header
           [
             metric "w" (fun c -> c.w);
             metric "bf" (fun c -> c.bf);
             metric "c" (fun c -> c.c);
             metric "to" (fun c -> c.timeout);
             metric "ok" (fun c -> c.ok);
             wpct_row;
           ]);
      Buffer.add_char buf '\n')
    results;
  Buffer.contents buf
