type bucket = {
  cls : string;
  config : int;
  opt : string;
  signature : string;
  cells : int;
  kernels : int;
  exemplar_seed : int;
  exemplar_mode : string;
  exemplar_hash : string;
}

(* the named trigger conditions of the section-6 fault models; counts and
   digests are deliberately excluded so that two kernels tripping the same
   fault land in the same bucket *)
let signature_of_features (f : Features.t) =
  let flags =
    [
      ("char-first-struct", f.Features.char_first_struct);
      ("union-struct-field", f.Features.union_with_struct_field);
      ("vector-in-struct", f.Features.vector_in_struct);
      ("vector-logical", f.Features.uses_vector_logical);
      ("barrier-in-callee", f.Features.barrier_in_callee);
      ("barrier-in-loop", f.Features.barrier_in_loop);
      ("mixes-int-size_t", f.Features.mixes_int_size_t);
      ("while-true", f.Features.while_true);
      ("whole-struct-assign", f.Features.whole_struct_assign);
      ("comma", f.Features.uses_comma);
      ("atomics", f.Features.uses_atomics);
    ]
  in
  match List.filter_map (fun (n, b) -> if b then Some n else None) flags with
  | [] -> "plain"
  | active -> String.concat "," active

type observation = {
  o_cls : string;
  o_config : int;
  o_opt : string;
  o_signature : string;
  o_seed : int;
  o_mode : string;
  o_hash : string;
}

(* the wire/journal encoding of an observation, used by the serve
   daemon's journal and its /observation endpoint *)
let observation_fields (o : observation) =
  [
    ("cls", Jsonl.Str o.o_cls);
    ("config", Jsonl.Int o.o_config);
    ("opt", Jsonl.Str o.o_opt);
    ("sig", Jsonl.Str o.o_signature);
    ("seed", Jsonl.Int o.o_seed);
    ("mode", Jsonl.Str o.o_mode);
    ("hash", Jsonl.Str o.o_hash);
  ]

let observation_of_json j =
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  match
    ( str "cls",
      int "config",
      str "opt",
      str "sig",
      int "seed",
      str "mode",
      str "hash" )
  with
  | ( Some o_cls,
      Some o_config,
      Some o_opt,
      Some o_signature,
      Some o_seed,
      Some o_mode,
      Some o_hash ) ->
      Some { o_cls; o_config; o_opt; o_signature; o_seed; o_mode; o_hash }
  | _ -> None

let bucket_to_json (b : bucket) =
  Jsonl.Obj
    [
      ("cls", Jsonl.Str b.cls);
      ("config", Jsonl.Int b.config);
      ("opt", Jsonl.Str b.opt);
      ("sig", Jsonl.Str b.signature);
      ("cells", Jsonl.Int b.cells);
      ("kernels", Jsonl.Int b.kernels);
      ("exemplar_seed", Jsonl.Int b.exemplar_seed);
      ("exemplar_mode", Jsonl.Str b.exemplar_mode);
      ("exemplar_hash", Jsonl.Str b.exemplar_hash);
    ]

(* the dedup core shared by the journal path and the fuzzing campaign:
   accumulate buckets in observation order so exemplars are the first
   witnesses encountered, then sort by key *)
let of_observations (obs : observation list) =
  let buckets = Hashtbl.create 32 in
  let seen_kernels = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun o ->
      let key = (o.o_cls, o.o_config, o.o_opt, o.o_signature) in
      let fresh_kernel =
        not (Hashtbl.mem seen_kernels (key, o.o_mode, o.o_seed))
      in
      if fresh_kernel then Hashtbl.add seen_kernels (key, o.o_mode, o.o_seed) ();
      match Hashtbl.find_opt buckets key with
      | None ->
          order := key :: !order;
          Hashtbl.add buckets key
            {
              cls = o.o_cls;
              config = o.o_config;
              opt = o.o_opt;
              signature = o.o_signature;
              cells = 1;
              kernels = 1;
              exemplar_seed = o.o_seed;
              exemplar_mode = o.o_mode;
              exemplar_hash = o.o_hash;
            }
      | Some b ->
          Hashtbl.replace buckets key
            {
              b with
              cells = b.cells + 1;
              kernels = (b.kernels + if fresh_kernel then 1 else 0);
            })
    obs;
  let bs = List.rev_map (Hashtbl.find buckets) !order in
  List.sort
    (fun a b ->
      compare
        (a.cls, a.config, a.opt, a.signature)
        (b.cls, b.config, b.opt, b.signature))
    bs

exception Triage_error of string

(* one (config, opt, outcome) observation of a kernel; table1 records carry
   both opt levels in a single journal cell and are split here *)
let logical_cells (c : Journal.cell) =
  match (c.Journal.opt, c.Journal.outcomes) with
  | ("-" | "+"), [ o ] -> [ (c.Journal.config, c.Journal.opt, o) ]
  | "*", [ off; on ] -> [ (c.Journal.config, "-", off); (c.Journal.config, "+", on) ]
  | _ ->
      raise
        (Triage_error
           (Printf.sprintf "malformed record for seed %d (opt %s, %d outcomes)"
              c.Journal.seed c.Journal.opt
              (List.length c.Journal.outcomes)))

let regenerate ~mode ~seed =
  match Gen_config.mode_of_string mode with
  | None -> raise (Triage_error (Printf.sprintf "unknown generation mode %S" mode))
  | Some m ->
      let tc, _ = Generate.generate ~cfg:(Gen_config.scaled m) ~seed () in
      tc

let of_journal (h : Journal.header) (cells : Journal.cell list) =
  match h.Journal.campaign with
  | "table4" | "table1" -> (
      try
        (* majority vote per kernel over all its journalled outcomes, the
           same vote the campaign tables take *)
        let votes = Hashtbl.create 64 in
        List.iter
          (fun (c : Journal.cell) ->
            let k = (c.Journal.mode, c.Journal.seed) in
            let prev = Option.value ~default:[] (Hashtbl.find_opt votes k) in
            Hashtbl.replace votes k (prev @ List.map (fun (_, _, o) -> o) (logical_cells c)))
          cells;
        let kernel_info = Hashtbl.create 64 in
        let info_of mode seed =
          match Hashtbl.find_opt kernel_info (mode, seed) with
          | Some v -> v
          | None ->
              let tc = regenerate ~mode ~seed in
              let v =
                ( signature_of_features (Features.of_testcase tc),
                  Corpus.hash_text (Pp.program_to_string tc.Ast.prog) )
              in
              Hashtbl.add kernel_info (mode, seed) v;
              v
        in
        (* flatten the journal into classified observations, in journal
           order, and hand them to the shared dedup core *)
        let obs =
          List.concat_map
            (fun (c : Journal.cell) ->
              let mode = c.Journal.mode and seed = c.Journal.seed in
              let majority =
                Majority.majority_output (Hashtbl.find votes (mode, seed))
              in
              List.filter_map
                (fun (config, opt, o) ->
                  match Majority.bucket_class (Majority.bucket_of ~majority o) with
                  | None -> None
                  | Some cls ->
                      let signature, hash = info_of mode seed in
                      Some
                        {
                          o_cls = cls;
                          o_config = config;
                          o_opt = opt;
                          o_signature = signature;
                          o_seed = seed;
                          o_mode = mode;
                          o_hash = hash;
                        })
                (logical_cells c))
            cells
        in
        Ok (of_observations obs)
      with Triage_error m -> Error m)
  | c ->
      Error
        (Printf.sprintf
           "campaign %S is not triageable: its kernels are not regenerable \
            from a seed (triage supports table4 and table1 journals)"
           c)

let to_table (h : Journal.header) (buckets : bucket list) =
  let total = List.fold_left (fun a b -> a + b.cells) 0 buckets in
  let header =
    [ "class"; "conf"; "opt"; "trigger signature"; "cells"; "kernels"; "exemplar" ]
  in
  let rows =
    List.map
      (fun b ->
        [
          b.cls;
          string_of_int b.config;
          b.opt;
          b.signature;
          string_of_int b.cells;
          string_of_int b.kernels;
          Printf.sprintf "seed %d %s %s" b.exemplar_seed b.exemplar_mode
            (String.sub b.exemplar_hash 0 12);
        ])
      buckets
  in
  Table_fmt.render_titled
    ~title:
      (Printf.sprintf
         "Distinct-bug triage (%s journal: %d interesting cells in %d buckets)"
         h.Journal.campaign total (List.length buckets))
    ~header rows

let corpus_entries (buckets : bucket list) =
  List.filter_map
    (fun b ->
      match Gen_config.mode_of_string b.exemplar_mode with
      | None -> None
      | Some m ->
          let tc, _ =
            Generate.generate ~cfg:(Gen_config.scaled m) ~seed:b.exemplar_seed ()
          in
          let text = Pp.program_to_string tc.Ast.prog in
          Some
            ( {
                Corpus.hash = Corpus.hash_text text;
                seed = b.exemplar_seed;
                mode = b.exemplar_mode;
                cls = b.cls;
                config = b.config;
                opt = b.opt;
              },
              text ))
    buckets
