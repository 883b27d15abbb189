type row = {
  base_fails : int;
  w : int;
  bf : int;
  c : int;
  timeout : int;
  stable : int;
}

let zero_row = { base_fails = 0; w = 0; bf = 0; c = 0; timeout = 0; stable = 0 }

type t = {
  bases_used : int;
  discarded_sharing : int;
  discarded_dead : int;
  variants_per_base : int;
  rows : ((int * bool) * row) list;
}

let liveness_config = Config.find 1

(* the liveness filter: inverting dead must change the observable result *)
let live_emi base =
  let normal = Driver.run liveness_config ~opt:true base in
  let inverted = Driver.run liveness_config ~opt:true (Variant.invert_dead base) in
  not (Outcome.equal normal inverted)

(* fold one (base, config, opt) cell's variant outcomes into its row *)
let apply_cell r outcomes =
  let computed =
    List.filter_map
      (function Outcome.Success s -> Some s | _ -> None)
      outcomes
  in
  if computed = [] then { r with base_fails = r.base_fails + 1 }
  else begin
    let distinct = List.sort_uniq String.compare computed in
    let r = if List.length distinct > 1 then { r with w = r.w + 1 } else r in
    let has p = List.exists p outcomes in
    let r =
      if has (function Outcome.Build_failure _ -> true | _ -> false) then
        { r with bf = r.bf + 1 }
      else r
    in
    let r =
      if
        has (function
          | Outcome.Crash _ | Outcome.Machine_crash _ | Outcome.Ub _ -> true
          | _ -> false)
      then { r with c = r.c + 1 }
      else r
    in
    let r =
      if has (function Outcome.Timeout -> true | _ -> false) then
        { r with timeout = r.timeout + 1 }
      else r
    in
    if List.length computed = List.length outcomes && List.length distinct = 1
    then { r with stable = r.stable + 1 }
    else r
  end

let opt_str opt = if opt then "+" else "-"

(* a cell's result is its per-variant outcome list *)
let codec =
  {
    Par.outcomes = Fun.id;
    note = (fun _ _ _ -> "");
    decode =
      (function
      | { Journal.outcomes = []; _ } -> None
      | { Journal.outcomes; _ } -> Some (outcomes, Interp.zero_stats));
    crash = (fun o -> [ o ]);
  }

let journal_header ?fuel ?(bases = 15) ?(variants = 10) ?(seed0 = 50_000)
    ?config_ids () =
  let config_ids =
    match config_ids with Some l -> l | None -> Config.above_threshold_ids
  in
  Journal.make_header ~campaign:"table5"
    ~ident:
      [
        ("seed0", string_of_int seed0);
        ("fuel", match fuel with Some f -> string_of_int f | None -> "-");
        ("configs", String.concat "," (List.map string_of_int config_ids));
        ("variants", string_of_int variants);
      ]
    ~scale:[ ("bases", string_of_int bases) ]

let run ?jobs ?fuel ?(bases = 15) ?(variants = 10) ?(seed0 = 50_000) ?config_ids
    ?sink ?resume ?exec_filter () : t =
  let jobs = match jobs with Some j -> j | None -> Pool.recommended_jobs () in
  let config_ids =
    match config_ids with Some l -> l | None -> Config.above_threshold_ids
  in
  let configs = List.map Config.find config_ids in
  let gcfg = Gen_config.scaled Gen_config.All in
  let mode_name = Gen_config.mode_name Gen_config.All in
  Pool.with_pool ~jobs @@ fun pool ->
  (* phase 1: generation + liveness filter over candidate seeds, in
     parallel batches consumed in seed order (Par.collect classifies
     exactly the sequential loop's seeds). Recomputed on resume: the
     filter's two runs of a base are not cells, so the journal holds no
     verdict to read back. *)
  let classify ~seed =
    let tc, info =
      Span.with_ ~cat:"gen" "generate" (fun () ->
          Generate.generate ~emi:true ~cfg:gcfg ~seed ())
    in
    if info.Generate.counter_sharing then Par.Reject `Sharing
    else if not (live_emi tc) then Par.Reject `Dead
    else Par.Accept (seed, tc)
  in
  let base_list, rejects = Par.collect pool ~n:bases ~seed0 ~classify in
  let keys =
    List.concat_map
      (fun c -> [ (c.Config.id, false); (c.Config.id, true) ])
      configs
  in
  (* phase 2: derive + prepare each base's variants (one task per base);
     the prepared variants are then shared by that base's cells and held
     until the last of them has run. Always recomputed on resume:
     derivation is deterministic in the base seed. *)
  let prepared_bases =
    Pool.map pool
      ~f:(fun (seed, base) ->
        ( seed,
          Par.hold ~cells:(List.length keys)
            (List.map Driver.prepare (Variant.variants ~base ~count:variants)) ))
      base_list
  in
  (* phase 3: one task per (base, config, opt-level) cell, base-major *)
  let tasks =
    List.concat_map
      (fun (seed, vs) ->
        List.concat_map
          (fun c -> [ (seed, vs, c, false); (seed, vs, c, true) ])
          configs)
      prepared_bases
  in
  let eng = Par.engine ?sink ?resume ?exec_filter pool in
  let cell_outcomes =
    Par.cells eng codec
      ~key:(fun (seed, _, c, opt) -> (mode_name, seed, c.Config.id, opt_str opt))
      ~f:(fun _ (_, vs, c, opt) ->
        Par.use vs
          (List.fold_left_map
             (fun acc prep ->
               let o, st = Driver.run_prepared_stats ?fuel c ~opt prep in
               (Interp.add_stats acc st, o))
             Interp.zero_stats)
        |> fun (stats, outcomes) -> (outcomes, stats))
      tasks
  in
  (* deterministic merge in task order *)
  let rows = Hashtbl.create 64 in
  List.iter (fun k -> Hashtbl.replace rows k zero_row) keys;
  List.iter2
    (fun (_, _, c, opt) outcomes ->
      let key = (c.Config.id, opt) in
      Hashtbl.replace rows key (apply_cell (Hashtbl.find rows key) outcomes))
    tasks cell_outcomes;
  {
    bases_used = List.length base_list;
    discarded_sharing = Par.count rejects ~tag:`Sharing;
    discarded_dead = Par.count rejects ~tag:`Dead;
    variants_per_base = variants;
    rows = List.map (fun k -> (k, Hashtbl.find rows k)) keys;
  }

let to_table (t : t) =
  let header =
    "metric"
    :: List.map
         (fun ((id, opt), _) -> Printf.sprintf "%d%s" id (if opt then "+" else "-"))
         t.rows
    @ [ "Total" ]
  in
  let metric name get =
    name
    :: List.map (fun (_, r) -> string_of_int (get r)) t.rows
    @ [ string_of_int (List.fold_left (fun a (_, r) -> a + get r) 0 t.rows) ]
  in
  Table_fmt.render_titled
    ~title:
      (Printf.sprintf
         "Table 5: CLsmith+EMI (%d bases x %d variants; discarded %d for \
          counter sharing, %d by the liveness filter)"
         t.bases_used t.variants_per_base t.discarded_sharing t.discarded_dead)
    ~header
    [
      metric "base fails" (fun r -> r.base_fails);
      metric "w" (fun r -> r.w);
      metric "bf" (fun r -> r.bf);
      metric "c" (fun r -> r.c);
      metric "to" (fun r -> r.timeout);
      metric "stable" (fun r -> r.stable);
    ]
