(* Coverage-guided fuzzing driver. See fuzz_loop.mli for the contract. *)

type provenance = P_gen of int | P_mut of int * string

type gen_stat = {
  gen : int;
  kernels : int;
  mutants : int;
  new_bits : int;
  coverage : int;
  corpus : int;
  findings : int;
  distinct_bugs : int;
}

type result = {
  budget : int;
  kernels_run : int;
  cells_run : int;
  generations : gen_stat list;
  covmap : Covmap.t;
  pool : Seedpool.t;
  buckets : Triage.bucket list;
  exemplar_texts : (string * string) list;
}

let default_budget = 32
let default_gen_size = 8
(* P(mutate a seed) once the pool is non-empty. Kept at a half-and-half
   explore/exploit split: fresh kernels are the only source of entirely
   new trigger signatures, so a higher bias starves distinct-bug yield *)
let mutation_bias = 0.5
let minimize_attempts = 80

let default_config_ids () = Config.above_threshold_ids

let cells_per_kernel ?config_ids () =
  2 * List.length (match config_ids with Some l -> l | None -> default_config_ids ())

let journal_header ?fuel ?(budget = default_budget) ?(seed = 1) ?config_ids
    ?(feedback = true) ?(gen_size = default_gen_size) ?(minimize = false) () =
  let config_ids =
    match config_ids with Some l -> l | None -> default_config_ids ()
  in
  ignore budget;
  Journal.make_header ~campaign:"fuzz"
    ~ident:
      [
        ("seed", string_of_int seed);
        ("fuel", match fuel with Some f -> string_of_int f | None -> "-");
        ("configs", String.concat "," (List.map string_of_int config_ids));
        ("feedback", if feedback then "on" else "off");
        ("gen_size", string_of_int gen_size);
        ("minimize", if minimize then "on" else "off");
      ]
    ~scale:[ ("budget", string_of_int budget) ]

let opt_str opt = if opt then "+" else "-"

let prov_str = function
  | P_gen s -> Printf.sprintf "g%d" s
  | P_mut (parent, op) -> Printf.sprintf "m%d:%s" parent op

(* the journal note carries provenance and the interpreter tally, so a
   replayed cell reconstructs the exact coverage signature of a live one *)
let note_of prov (s : Interp.stats) =
  Printf.sprintf "p=%s;s=%d;b=%d;a=%d;r=%d" (prov_str prov) s.Interp.steps
    s.Interp.barriers s.Interp.atomics s.Interp.race_checks

let stats_of_note note =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun part ->
      match String.index_opt part '=' with
      | Some i ->
          Hashtbl.replace tbl
            (String.sub part 0 i)
            (String.sub part (i + 1) (String.length part - i - 1))
      | None -> ())
    (String.split_on_char ';' note);
  let int k = Option.bind (Hashtbl.find_opt tbl k) int_of_string_opt in
  match (int "s", int "b", int "a", int "r") with
  | Some steps, Some barriers, Some atomics, Some race_checks ->
      Some { Interp.steps; barriers; atomics; race_checks; prof = [] }
  | _ -> None

(* one planned kernel of a generation. Its prepared form (with the
   compiled programs and runs it caches) is held until the kernel's last
   cell has run, so a generation does not keep every kernel's compiled
   forms until its fold. *)
type planned = {
  kidx : int;
  prov : provenance;
  tc : Ast.testcase;
  features : Features.t;
  prep : Driver.prepared Par.held;
}

let planned ~n_cells kidx prov tc =
  let prep = Driver.prepare tc in
  {
    kidx;
    prov;
    tc;
    features = Driver.features_of_prepared prep;
    prep = Par.hold ~cells:n_cells prep;
  }

(* a cell's result is its outcome with the interpreter tally the coverage
   fold reads; the note carries both across a resume *)
let codec =
  {
    Par.outcomes = (fun (o, _) -> [ o ]);
    note = (fun (k, _, _) _ st -> note_of k.prov st);
    decode =
      (function
      | { Journal.outcomes = [ o ]; note; _ } ->
          Option.map (fun st -> ((o, st), st)) (stats_of_note note)
      | _ -> None);
    crash = (fun o -> (o, Interp.zero_stats));
  }

let run ?jobs ?fuel ?(budget = default_budget) ?(seed = 1) ?config_ids
    ?(feedback = true) ?(gen_size = default_gen_size) ?(minimize = false) ?sink
    ?(events = fun (_ : Eventlog.event) -> ()) ?resume ?exec_filter () =
  let jobs = match jobs with Some j -> j | None -> Pool.recommended_jobs () in
  let config_ids =
    match config_ids with Some l -> l | None -> default_config_ids ()
  in
  let configs = List.map Config.find config_ids in
  let keys =
    List.concat_map (fun c -> [ (c.Config.id, false); (c.Config.id, true) ]) configs
  in
  let n_keys = List.length keys in
  let cov = Covmap.create () in
  let spool = Seedpool.create () in
  let m_kernels = Metrics.counter "fuzz.kernels"
  and m_mutants = Metrics.counter "fuzz.mutants"
  and m_new_bits = Metrics.counter "fuzz.new_bits"
  and m_admitted = Metrics.counter "fuzz.corpus.admitted" in
  (* exemplar texts and triage observations, both in merged cell order *)
  let texts = Hashtbl.create 64 in
  let rev_observations = ref [] in
  let bucket_keys = Hashtbl.create 32 in
  let rev_stats = ref [] in
  let fresh_counter = ref 0 in
  let kernels_run = ref 0 in
  (* pool entry id -> kernel index of the admitted kernel, so mutant
     provenance can name its parent by kernel index: the journal is then
     self-contained for lineage reconstruction (a kernel index resolves
     to earlier journal cells; a pool id only to replayed pool state) *)
  let pid2kidx = Hashtbl.create 64 in
  (* fresh kernels cycle the six generator modes and skip counter-sharing
     seeds, exactly like the paper's sweeps; the consumed-seed sequence is
     a deterministic function of how many fresh kernels came before *)
  let rec fresh_kernel () =
    let c = !fresh_counter in
    incr fresh_counter;
    let mode =
      List.nth Gen_config.all_modes (c mod List.length Gen_config.all_modes)
    in
    let gseed = seed + c in
    let tc, info =
      Generate.generate ~cfg:(Gen_config.scaled mode) ~seed:gseed ()
    in
    if info.Generate.counter_sharing then fresh_kernel ()
    else (P_gen gseed, tc)
  in
  Pool.with_pool ~jobs @@ fun pool ->
  (* one engine for the whole run: cells are numbered across generations.
     A distributed worker is sound only because the coordinator syncs
     every cell of prior generations before leasing generation [g] (the
     planner needs real coverage state) and the worker discards this
     run's own fold products, forwarding only sink-accepted cells. *)
  let eng = Par.engine ?sink ?resume ?exec_filter pool in
  let gen = ref 0 in
  while !kernels_run < budget do
    let g = !gen in
    incr gen;
    (* every random decision of generation [g] comes from this stream, a
       pure function of (seed, g) — resumable and -j-invariant *)
    let rng = Rng.make ((seed * 1_000_003) + (7919 * g) + 1) in
    Seedpool.decay spool;
    let slots = min gen_size (budget - !kernels_run) in
    let planned =
      Span.with_ ~cat:"gen" "fuzz-plan" (fun () ->
          List.init slots (fun _ ->
              let kidx = !kernels_run in
              incr kernels_run;
              let prov, tc =
                if feedback && Seedpool.size spool > 0 && Rng.bool_p rng mutation_bias
                then begin
                  match Seedpool.select spool rng with
                  | None -> fresh_kernel ()
                  | Some parent -> (
                      let donor () =
                        Option.map
                          (fun e -> e.Seedpool.tc)
                          (Seedpool.select spool rng)
                      in
                      match
                        Mutator.mutate ~rng ~donor parent.Seedpool.tc
                      with
                      | Some (op, tc') ->
                          let pk =
                            match Hashtbl.find_opt pid2kidx parent.Seedpool.id with
                            | Some k -> k
                            | None -> assert false (* every entry is registered at admission *)
                          in
                          (P_mut (pk, Mutator.op_name op), tc')
                      | None -> fresh_kernel ())
                end
                else fresh_kernel ()
              in
              planned ~n_cells:(2 * List.length configs) kidx prov tc))
    in
    let tasks =
      List.concat_map
        (fun k ->
          List.concat_map
            (fun c -> [ (k, c, false); (k, c, true) ])
            configs)
        planned
    in
    let merged =
      Par.cells eng codec
        ~key:(fun (k, c, opt) -> ("fuzz", k.kidx, c.Config.id, opt_str opt))
        ~f:(fun _ (k, c, opt) ->
          let ((_, st) as r) =
            Par.use k.prep (Driver.run_prepared_stats ?fuel c ~opt)
          in
          (r, st))
        tasks
    in
    (* fold the merged stream, kernel by kernel, in task order: coverage,
       admission, metrics and triage all derive from this ordered pass *)
    let gen_new_bits = ref 0
    and gen_findings = ref 0
    and gen_mutants = ref 0 in
    List.iter2
      (fun (k : planned) kernel_results ->
        (match k.prov with
        | P_mut _ ->
            incr gen_mutants;
            Par.tally eng m_mutants 1
        | P_gen _ -> ());
        Par.tally eng m_kernels 1;
        let buckets = Par.vote eng (List.map fst kernel_results) in
        let features = k.features in
        let text = lazy (Pp.program_to_string k.tc.Ast.prog) in
        let hash = lazy (Corpus.hash_text (Lazy.force text)) in
        let kernel_bits = ref 0 in
        let kernel_findings = ref 0 in
        (* the first cell that lit a new coverage point, for minimization *)
        let novel_cell = ref None in
        List.iter2
          (fun (cfg_id, opt) (((o : Outcome.t), (st : Interp.stats)), b) ->
            let divergent = b = Majority.B_wrong in
            let idx =
              Covmap.indices ~features ~config:cfg_id ~opt ~divergent
                ~outcome:o ~stats:st
            in
            let novel = List.filter (fun i -> not (Covmap.mem cov i)) idx in
            let bits = Covmap.add_all cov idx in
            kernel_bits := !kernel_bits + bits;
            if bits > 0 && !novel_cell = None then
              novel_cell := Some (cfg_id, opt, divergent, novel);
            match Majority.bucket_class b with
            | None -> ()
            | Some cls ->
                incr gen_findings;
                incr kernel_findings;
                Hashtbl.replace texts (Lazy.force hash) (Lazy.force text);
                let obs =
                  {
                    Triage.o_cls = cls;
                    o_config = cfg_id;
                    o_opt = opt_str opt;
                    o_signature = Triage.signature_of_features features;
                    o_seed = k.kidx;
                    o_mode = "fuzz";
                    o_hash = Lazy.force hash;
                  }
                in
                rev_observations := obs :: !rev_observations;
                Hashtbl.replace bucket_keys
                  (cls, cfg_id, opt_str opt, obs.Triage.o_signature)
                  ();
                events
                  (Eventlog.Triage_hit
                     {
                       cls;
                       config = cfg_id;
                       opt = opt_str opt;
                       signature = obs.Triage.o_signature;
                       seed = k.kidx;
                       mode = "fuzz";
                       hash = Lazy.force hash;
                     }))
          keys
          (List.combine kernel_results buckets);
        gen_new_bits := !gen_new_bits + !kernel_bits;
        Par.tally eng m_new_bits !kernel_bits;
        if !kernel_bits > 0 then begin
          Par.tally eng m_admitted 1;
          events
            (Eventlog.Coverage_delta
               {
                 gen = g;
                 kernel = k.kidx;
                 new_bits = !kernel_bits;
                 total = Covmap.count cov;
               });
          let tc_admit =
            match (minimize, !novel_cell) with
            | true, Some (cfg_id, opt, divergent, novel) ->
                (* keep-coverage predicate: the reduced kernel must still
                   produce one of the novel points on the cell that first
                   earned them (divergence taken from the original vote) *)
                let cfg = Config.find cfg_id in
                let keep tc' =
                  let prep' = Driver.prepare tc' in
                  let o', st' = Driver.run_prepared_stats ?fuel cfg ~opt prep' in
                  let idx' =
                    Covmap.indices
                      ~features:(Driver.features_of_prepared prep')
                      ~config:cfg_id ~opt ~divergent ~outcome:o' ~stats:st'
                  in
                  List.exists (fun i -> List.mem i novel) idx'
                in
                if keep k.tc then
                  fst (Reduce.reduce ~max_attempts:minimize_attempts ~interesting:keep k.tc)
                else k.tc
            | _ -> k.tc
          in
          let origin =
            match k.prov with
            | P_gen s -> Seedpool.Generated s
            | P_mut (p, op) -> Seedpool.Mutated (p, op)
          in
          let e =
            Seedpool.add spool ~origin ~gen:g ~new_bits:!kernel_bits
              ~findings:!kernel_findings tc_admit
          in
          Hashtbl.replace pid2kidx e.Seedpool.id k.kidx
        end)
      planned
      (Par.chunk n_keys merged);
    let stat =
      {
        gen = g;
        kernels = slots;
        mutants = !gen_mutants;
        new_bits = !gen_new_bits;
        coverage = Covmap.count cov;
        corpus = Seedpool.size spool;
        findings = !gen_findings;
        distinct_bugs = Hashtbl.length bucket_keys;
      }
    in
    rev_stats := stat :: !rev_stats;
    events
      (Eventlog.Generation
         {
           gen = stat.gen;
           kernels = stat.kernels;
           mutants = stat.mutants;
           new_bits = stat.new_bits;
           coverage = stat.coverage;
           corpus = stat.corpus;
           findings = stat.findings;
           distinct_bugs = stat.distinct_bugs;
         })
  done;
  let buckets = Triage.of_observations (List.rev !rev_observations) in
  {
    budget;
    kernels_run = !kernels_run;
    cells_run = !kernels_run * n_keys;
    generations = List.rev !rev_stats;
    covmap = cov;
    pool = spool;
    buckets;
    exemplar_texts = Hashtbl.fold (fun h t acc -> (h, t) :: acc) texts [] |> List.sort compare;
  }

let finding_entries (r : result) =
  List.filter_map
    (fun (b : Triage.bucket) ->
      match List.assoc_opt b.Triage.exemplar_hash r.exemplar_texts with
      | None -> None
      | Some text ->
          Some
            ( {
                Corpus.hash = b.Triage.exemplar_hash;
                seed = b.Triage.exemplar_seed;
                mode = b.Triage.exemplar_mode;
                cls = b.Triage.cls;
                config = b.Triage.config;
                opt = b.Triage.opt;
              },
              text ))
    r.buckets

let to_table (r : result) =
  let header =
    [ "gen"; "kernels"; "mutants"; "new-bits"; "coverage"; "corpus"; "findings"; "bugs" ]
  in
  let rows =
    List.map
      (fun g ->
        [
          string_of_int g.gen;
          string_of_int g.kernels;
          string_of_int g.mutants;
          string_of_int g.new_bits;
          string_of_int g.coverage;
          string_of_int g.corpus;
          string_of_int g.findings;
          string_of_int g.distinct_bugs;
        ])
      r.generations
  in
  let summary =
    Printf.sprintf
      "%d kernels (%d cells) in %d generations: %d/%d coverage points, %d \
       corpus seeds, %d distinct bugs\n"
      r.kernels_run r.cells_run
      (List.length r.generations)
      (Covmap.count r.covmap) Covmap.size (Seedpool.size r.pool)
      (List.length r.buckets)
  in
  let triage_header = Journal.make_header ~campaign:"fuzz" ~ident:[] ~scale:[] in
  Table_fmt.render_titled ~title:"Coverage-guided fuzzing" ~header rows
  ^ "\n" ^ summary ^ "\n"
  ^ Triage.to_table triage_header r.buckets
