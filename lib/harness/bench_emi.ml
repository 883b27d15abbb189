type code = Wrong of string | Crash of string | Timed_out | No_gen | Pass

let code_to_string = function
  | Wrong s -> "w" ^ s
  | Crash s -> "c" ^ s
  | Timed_out -> "to"
  | No_gen -> "ng"
  | Pass -> "OK"

let code_of_string = function
  | "to" -> Some Timed_out
  | "ng" -> Some No_gen
  | "OK" -> Some Pass
  | s when String.length s = 2 && s.[0] = 'w' -> Some (Wrong (String.sub s 1 1))
  | s when String.length s = 2 && s.[0] = 'c' -> Some (Crash (String.sub s 1 1))
  | _ -> None

type t = {
  variants : int;
  results : (string * (int * code) list) list;
}

let default_configs = List.init 19 (fun i -> i + 1)

(* superscript: did provoking the defect require substitutions enabled (e),
   disabled (d), or either (?) *)
let superscript ~with_subst ~without_subst =
  match (with_subst, without_subst) with
  | true, true -> "?"
  | true, false -> "e"
  | false, true -> "d"
  | false, false -> "?"

(* everything one benchmark's cells need, computed once and shared *)
type bench_setup = {
  name : string;
  expected : string;
  orig_prep : Driver.prepared;
  tests : (bool * Driver.prepared) list;  (** (substitutions on?, variant) *)
}

(* a cell's result is its code, journalled in the note with no outcomes; a
   cell whose harness code raises is a crash of unknown provenance *)
let codec =
  {
    Par.outcomes = (fun _ -> []);
    note = (fun _ code _ -> code_to_string code);
    decode =
      (fun c ->
        Option.map (fun code -> (code, Interp.zero_stats))
          (code_of_string c.Journal.note));
    crash = (fun _ -> Crash "?");
  }

let journal_header ?fuel ?(variants = 12) ?(seed0 = 90_000) ?config_ids () =
  let config_ids =
    match config_ids with Some l -> l | None -> default_configs
  in
  Journal.make_header ~campaign:"table3"
    ~ident:
      [
        ("seed0", string_of_int seed0);
        ("fuel", match fuel with Some f -> string_of_int f | None -> "-");
        ("configs", String.concat "," (List.map string_of_int config_ids));
        ("variants", string_of_int variants);
      ]
    ~scale:[]

let run ?jobs ?fuel ?(variants = 12) ?(seed0 = 90_000) ?config_ids ?sink
    ?resume ?exec_filter () : t =
  let jobs = match jobs with Some j -> j | None -> Pool.recommended_jobs () in
  let config_ids =
    match config_ids with Some l -> l | None -> default_configs
  in
  let configs = List.map Config.find config_ids in
  let gcfg = Gen_config.scaled Gen_config.All in
  Pool.with_pool ~jobs @@ fun pool ->
  (* phase 1: per-benchmark setup (reference run, EMI injection, prepare),
     one task per benchmark; a failed reference run must still raise *)
  let setups =
    Pool.map pool
      ~f:(fun (b : Suite.benchmark) ->
        let original = b.Suite.testcase () in
        let expected =
          match Driver.reference_outcome original with
          | Outcome.Success s -> s
          | o ->
              invalid_arg
                (Printf.sprintf "benchmark %s reference run failed: %s"
                   b.Suite.name (Outcome.to_string o))
        in
        let orig_prep = Driver.prepare original in
        (* tests: variants x substitutions on/off, each prepared once *)
        let tests =
          List.concat_map
            (fun i ->
              List.map
                (fun subst ->
                  let inj =
                    Inject.inject ~subst ~cfg:gcfg
                      ~seed:(seed0 + (i * 131) + if subst then 1 else 0)
                      original
                  in
                  (subst, Driver.prepare inj.Inject.testcase))
                [ true; false ])
            (List.init variants Fun.id)
        in
        { name = b.Suite.name; expected; orig_prep; tests })
      Suite.emi_eligible
  in
  (* phase 2: one task per (benchmark, configuration) cell; the cell's
     many variant runs accumulate one interpreter-work tally *)
  let cell (s, c) =
    let work = ref Interp.zero_stats in
    let run_counted ~opt prep =
      let o, st = Driver.run_prepared_stats ?fuel c ~opt prep in
      work := Interp.add_stats !work st;
      o
    in
    let finish code = (code, !work) in
    let orig_ok opt =
      match run_counted ~opt s.orig_prep with
      | Outcome.Success out -> String.equal out s.expected
      | _ -> false
    in
    if not (orig_ok false || orig_ok true) then finish No_gen
    else begin
      let wrong_subst = ref false
      and wrong_nosubst = ref false
      and crash_subst = ref false
      and crash_nosubst = ref false
      and timed = ref false in
      List.iter
        (fun (subst, prep) ->
          List.iter
            (fun opt ->
              match run_counted ~opt prep with
              | Outcome.Success out when not (String.equal out s.expected) ->
                  if subst then wrong_subst := true else wrong_nosubst := true
              | Outcome.Success _ -> ()
              | Outcome.Build_failure _ | Outcome.Crash _
              | Outcome.Machine_crash _ | Outcome.Ub _ ->
                  if subst then crash_subst := true else crash_nosubst := true
              | Outcome.Timeout -> timed := true)
            [ false; true ])
        s.tests;
      let code =
        if !wrong_subst || !wrong_nosubst then
          Wrong
            (superscript ~with_subst:!wrong_subst ~without_subst:!wrong_nosubst)
        else if !crash_subst || !crash_nosubst then
          Crash
            (superscript ~with_subst:!crash_subst ~without_subst:!crash_nosubst)
        else if !timed then Timed_out
        else Pass
      in
      finish code
    end
  in
  let tasks =
    List.concat_map (fun s -> List.map (fun c -> (s, c)) configs) setups
  in
  let eng = Par.engine ?sink ?resume ?exec_filter pool in
  let codes =
    Par.cells eng codec
      ~key:(fun (s, c) -> (s.name, 0, c.Config.id, "*"))
      ~f:(fun _ task -> cell task)
      tasks
  in
  (* table 3 cells have no per-run outcome list; their class lives in the
     note code, tallied under cells.note.* *)
  List.iter
    (fun code ->
      Par.tally eng (Metrics.counter ("cells.note." ^ code_to_string code)) 1)
    codes;
  (* regroup the flat cell list by benchmark, in task order *)
  let results =
    List.map2
      (fun s row -> (s.name, List.combine config_ids row))
      setups
      (Par.chunk (List.length configs) codes)
  in
  { variants; results }

let to_table (t : t) =
  let config_ids =
    match t.results with
    | (_, row) :: _ -> List.map fst row
    | [] -> []
  in
  let header = "Benchmark" :: List.map string_of_int config_ids in
  let rows =
    List.map
      (fun (name, row) -> name :: List.map (fun (_, c) -> code_to_string c) row)
      t.results
  in
  Table_fmt.render_titled
    ~title:
      (Printf.sprintf
         "Table 3: EMI testing over the Parboil/Rodinia ports (%d injected \
          variants x subst on/off x opt on/off per cell; spmv and myocyte \
          excluded: data races)"
         t.variants)
    ~header rows
