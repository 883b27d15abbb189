let default_path = "BENCH_history.jsonl"
let schema = 3

(* a rate may fall to this share of its previous value, in percent *)
let keep_pct = 85

let make ~bench ~ident ~rates ~floors fields =
  let ints kvs = Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Int v)) kvs) in
  Jsonl.Obj
    (("bench", Jsonl.Str bench) :: ("schema", Jsonl.Int schema)
    :: ("ident", ints ident) :: ("rates", ints rates)
    :: ("floors", ints floors) :: fields)

let write ~target record =
  let line = Jsonl.to_string record ^ "\n" in
  print_string ("BENCH-JSON " ^ line);
  (* best effort: a file that cannot be written never fails the run *)
  List.iter
    (fun (flag, path) ->
      try
        Out_channel.with_open_gen [ Open_wronly; Open_creat; flag ] 0o644 path
          (fun oc -> output_string oc line)
      with Sys_error m -> Printf.eprintf "bench record: %s (not written)\n" m)
    [ (Open_trunc, "BENCH_" ^ target ^ ".json"); (Open_append, default_path) ]

let int_fields name j =
  match Jsonl.member name j with
  | Some (Jsonl.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun i -> (k, i)) (Jsonl.get_int v))
        kvs
  | _ -> []

let say name fmt = Printf.sprintf ("bench compare: %s: " ^^ fmt) name

let compare_rows name prev latest =
  if Jsonl.member "ident" prev <> Jsonl.member "ident" latest then
    ( [
        say name "latest run not comparable to previous (%s differ), skipped"
          (String.concat "/" (List.map fst (int_fields "ident" latest)));
      ],
      false )
  else
    (* each key of [kind] in both rows, judged by [rule old new] *)
    let paired kind rule =
      List.filter_map
        (fun (k, b) ->
          match List.assoc_opt k (int_fields kind prev) with
          | None -> None
          | Some a ->
              Option.map
                (fun (note, flag) ->
                  ( say name "%s %d -> %d (%s)%s" k a b note
                      (if flag then " REGRESSION" else ""),
                    flag ))
                (rule a b))
        (int_fields kind latest)
    in
    let checks =
      paired "rates" (fun a b ->
          if a <= 0 then None
          else
            Some
              ( Printf.sprintf "%+.1f%%" (100. *. float (b - a) /. float a),
                100 * b < keep_pct * a ))
      @ paired "floors" (fun a b -> Some ("floor", b < a))
    in
    (List.map fst checks, List.exists snd checks)

let check lines =
  let rec parse n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> parse (n + 1) acc rest
    | line :: rest -> (
        match Jsonl.of_string line with
        | Error e -> Error (n, e)
        | Ok j -> (
            match Option.bind (Jsonl.member "bench" j) Jsonl.get_str with
            | Some name -> parse (n + 1) ((name, j) :: acc) rest
            | None -> Error (n, "no bench name")))
  in
  match parse 1 [] lines with
  | Error (n, e) ->
      (1, [ Printf.sprintf "bench compare: history line %d: %s" n e ])
  | Ok rows ->
      (* per bench, in order of first appearance, its last two rows *)
      let names =
        List.rev
          (List.fold_left
             (fun acc (n, _) -> if List.mem n acc then acc else n :: acc)
             [] rows)
      in
      let verdicts =
        List.map
          (fun name ->
            match List.rev (List.filter (fun (n, _) -> n = name) rows) with
            | (_, latest) :: (_, prev) :: _ -> compare_rows name prev latest
            | _ -> ([ say name "no baseline (single run)" ], false))
          names
      in
      ( (if List.exists snd verdicts then 1 else 0),
        List.concat_map fst verdicts )

let compare_latest ?(path = default_path) () =
  let lines =
    if Sys.file_exists path then
      String.split_on_char '\n' (In_channel.with_open_text path In_channel.input_all)
    else []
  in
  let rc, out =
    if List.for_all (fun l -> String.trim l = "") lines then
      (0, [ Printf.sprintf "bench compare: no history at %s" path ])
    else check lines
  in
  List.iter print_endline out;
  rc
