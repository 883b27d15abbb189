(* Crash consistency of the five record files, each driven through its
   own public writer and loader: the campaign journal, the corpus index,
   the eventlog, the cost profile and the serve store. One property,
   two damages:

   - cut the file at any offset past its header: the load yields exactly
     the records whose '\n' survived, torn iff the cut is mid-line, and
     each append path continues the cut file with one more record;
   - flip any single byte: the load never raises and yields an error or
     a prefix of the records, and an error whenever a committed line
     follows the damaged one (unless that line still decodes the same).

   The expected prefix is what the format's own loader yields for a
   clean file holding only those records. *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* a fresh name for a log file or a corpus directory, not yet created *)
let fresh () =
  let path = Filename.temp_file "recordlog" "" in
  Sys.remove path;
  path

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* a string that exercises the codec's escapes *)
let payload ~seed i =
  Printf.sprintf "v%d \"q\" \\ \t\n\xe9\xff %s" i (String.make (seed mod 7) '\x01')

type 'r fmt = {
  name : string;
  header : bool;  (** the first line is a header, outside the cut range *)
  records : seed:int -> int -> 'r list;  (** [n] records, then the one to append *)
  file : string -> string;  (** the record log of a root *)
  write : string -> 'r list -> unit;  (** the public writer, on a fresh root *)
  load : string -> (string * bool option, string) result;
      (** the public loader: what it yields, rendered, and the torn flag
          where the loader reports one *)
  append : (string -> 'r -> unit) option;  (** the public append path *)
}

(* --- the five formats --- *)

let journal_header =
  Journal.make_header ~campaign:"table4" ~ident:[ ("seed0", "1") ] ~scale:[]

let render_cells cells =
  String.concat "\n" (List.map (fun c -> Jsonl.to_string (Journal.cell_to_json c)) cells)

let journal =
  {
    name = "journal";
    header = true;
    records =
      (fun ~seed n ->
        List.init (n + 1) (fun i ->
            {
              Journal.index = i;
              seed = seed + i;
              mode = "BASIC";
              config = i mod 3;
              opt = (if i mod 2 = 0 then "-" else "+");
              outcomes = [ Outcome.Success (payload ~seed i); Outcome.Timeout ];
              note = payload ~seed (i + 1);
            }));
    file = Fun.id;
    write =
      (fun path cells ->
        let w = Journal.create ~path journal_header in
        List.iter (Journal.write_cell w) cells;
        Journal.commit w);
    load =
      (fun path ->
        match Journal.load ~path with
        | Ok (_, cells, torn) -> Ok (render_cells cells, Some torn)
        | Error e -> Error (Journal.error_to_string e));
    append =
      Some
        (fun path c ->
          match Journal.append ~path journal_header with
          | Ok (w, _) ->
              Journal.write_cell w c;
              Journal.commit w
          | Error e -> failwith (Journal.error_to_string e));
  }

let corpus =
  let text ~seed i = Printf.sprintf "__kernel void k%d_%d() { }\n" seed i in
  {
    name = "corpus index";
    header = false;
    records =
      (fun ~seed n ->
        List.init (n + 1) (fun i ->
            let text = text ~seed i in
            ( {
                Corpus.hash = Corpus.hash_text text;
                seed;
                mode = payload ~seed i;
                cls = "crash";
                config = i;
                opt = "-";
              },
              text )));
    file = (fun dir -> Filename.concat dir "index.jsonl");
    write =
      (fun dir pairs ->
        match Corpus.add_all ~dir pairs with
        | Ok _ -> ()
        | Error m -> failwith m);
    load =
      (fun dir ->
        match Corpus.index ~dir with
        | Ok es ->
            Ok
              ( String.concat "\n"
                  (List.map (fun e -> Jsonl.to_string (Jsonl.Obj (Corpus.entry_fields e))) es),
                None )
        | Error m -> Error m);
    append =
      Some
        (fun dir pair ->
          match Corpus.add_all ~dir [ pair ] with
          | Ok 1 -> ()
          | Ok n -> failwith (Printf.sprintf "appended %d entries" n)
          | Error m -> failwith m);
  }

let eventlog =
  {
    name = "eventlog";
    header = false;
    records =
      (fun ~seed n ->
        List.init (n + 1) (fun i ->
            if i mod 2 = 0 then
              Eventlog.Cell
                { index = i; seed; mode = "BASIC"; config = i; opt = "+"; cls = "w" }
            else
              Eventlog.Triage_hit
                {
                  cls = "crash";
                  config = i;
                  opt = "-";
                  signature = payload ~seed i;
                  seed;
                  mode = "ALL";
                  hash = "h";
                }));
    file = Fun.id;
    write =
      (fun path events ->
        let w = Eventlog.create ~path in
        List.iter (Eventlog.emit w) events;
        Eventlog.close w);
    load =
      (fun path ->
        match Eventlog.load ~path with
        | Ok (events, torn) ->
            Ok (String.concat "\n" (List.map Eventlog.encode events), Some torn)
        | Error m -> Error m);
    append = None;
  }

let costprof =
  let render (c : Costprof.cell) =
    Printf.sprintf "%s %d %s %d [%s]" c.khash c.config c.opt c.ticks
      (String.concat ";"
         (List.map
            (fun (k : Costprof.construct) -> Printf.sprintf "%s %d %S %d" k.kind k.loc k.path k.n)
            c.constructs))
  in
  {
    name = "cost profile";
    header = true;
    records =
      (fun ~seed n ->
        List.init (n + 1) (fun i ->
            {
              Costprof.khash = Printf.sprintf "k%02d" i;
              config = seed mod 21;
              opt = "+";
              ticks = i + 1;
              constructs =
                [ { Costprof.kind = "for"; loc = i; path = payload ~seed i; n = i + 1 } ];
            }));
    file = Fun.id;
    write = (fun path cells -> Costprof.write ~path cells);
    load =
      (fun path ->
        match Costprof.load ~path with
        | Ok (cells, torn) -> Ok (String.concat "\n" (List.map render cells), Some torn)
        | Error m -> Error m);
    append = None;
  }

(* serve store mutations; a record is a (seed, op) pair, the seed
   choosing the texts *)
type op = Kernel of int | Obs of int | Claim

let kernel ~seed i =
  (* now and then a kernel record longer than the 64 KiB channel buffer *)
  let pad = if seed mod 5 = 0 && i = 0 then String.make 70_000 'x' else "" in
  let text = Printf.sprintf "__kernel void s%d_%d() { } /* %s */\n" seed i pad in
  ( { Corpus.hash = Corpus.hash_text text; seed = i; mode = "basic"; cls = "candidate";
      config = 0; opt = "-" },
    text )

let serve_apply store (seed, op) =
  match op with
  | Kernel i ->
      let e, text = kernel ~seed i in
      ignore (Svstore.submit_kernel store e text)
  | Obs i ->
      let e, _ = kernel ~seed i in
      let cell =
        { Journal.index = i; seed = i; mode = "basic"; config = i; opt = "-";
          outcomes = [ Outcome.Crash (payload ~seed i) ]; note = "" }
      in
      let obs =
        { Triage.o_cls = "crash"; o_config = i; o_opt = "-"; o_signature = "sig";
          o_seed = i; o_mode = "basic"; o_hash = e.Corpus.hash }
      in
      ignore (Svstore.report_observation store ~cell ~obs:(Some obs) ~cov:[ i; 7 * i ])
  | Claim -> ignore (Svstore.claim store)

let svstore =
  let with_store path f =
    match Svstore.open_ ~path with
    | Ok store -> Fun.protect ~finally:(fun () -> Svstore.close store) (fun () -> f store)
    | Error m -> failwith m
  in
  {
    name = "serve store";
    header = true;
    records =
      (fun ~seed n ->
        List.init n (fun i -> (seed, [| Kernel i; Obs i; Claim; Obs (i - 1) |].(i mod 4)))
        @ [ (seed, Kernel 99) ]);
    file = Fun.id;
    write = (fun path ops -> with_store path (fun st -> List.iter (serve_apply st) ops));
    load =
      (fun path ->
        let before = (Unix.stat path).Unix.st_size in
        match Svstore.open_ ~path with
        | Error m -> Error m
        | Ok store ->
            let state =
              String.concat "\n"
                (List.map (fun e -> e.Corpus.hash) (Svstore.corpus store)
                @ [ render_cells (Svstore.cells store);
                    string_of_int (Svstore.cursor store);
                    Svstore.coverage_hex store;
                    string_of_int (List.length (Svstore.buckets store)) ])
            in
            Svstore.close store;
            (* opening repairs: the file shrinks exactly when torn *)
            Ok (state, Some ((Unix.stat path).Unix.st_size < before)));
    append = Some (fun path op -> with_store path (fun st -> serve_apply st op));
  }

(* --- the property --- *)

let take n l = List.filteri (fun i _ -> i < n) l

(* what the loader yields for a clean file of [records] *)
let expected fmt records =
  let root = fresh () in
  Fun.protect ~finally:(fun () -> remove root) @@ fun () ->
  fmt.write root records;
  match fmt.load root with
  | Ok (r, _) -> r
  | Error m -> failwith (fmt.name ^ ": clean file does not load: " ^ m)

let newlines s lo hi =
  let n = ref 0 in
  for i = lo to hi - 1 do
    if s.[i] = '\n' then incr n
  done;
  !n

(* write [n] records to a fresh root, hand its bytes to [k], clean up *)
let with_written fmt ~seed n k =
  let all = fmt.records ~seed n in
  let records = take n all in
  let root = fresh () in
  Fun.protect ~finally:(fun () -> remove root) @@ fun () ->
  fmt.write root records;
  k root records (List.nth all n) (read_file (fmt.file root))

let load_checked fmt root =
  match fmt.load root with
  | r -> r
  | exception e ->
      QCheck.Test.fail_reportf "%s: the loader raised %s" fmt.name (Printexc.to_string e)

(* [where]: 0 = anywhere, 1 = just before a '\n', 2 = just after one *)
let cut_test fmt =
  QCheck.Test.make ~count:150
    ~name:"cut at any offset"
    QCheck.(quad (int_range 0 4) (int_bound 10_000) (int_bound 2) (int_bound 1_000_000))
    (fun (n, seed, where, pick) ->
      with_written fmt ~seed n @@ fun root records extra data ->
      let len = String.length data in
      let start = if fmt.header then String.index data '\n' + 1 else 0 in
      let ends = List.filter (fun i -> data.[i] = '\n' && i >= start) (List.init len Fun.id) in
      let at = match ends with [] -> start | _ -> List.nth ends (pick mod List.length ends) in
      let cut =
        match where with
        | 1 when ends <> [] -> at
        | 2 when ends <> [] -> at + 1
        | _ -> start + (pick mod (len - start + 1))
      in
      write_file (fmt.file root) (String.sub data 0 cut);
      let m = newlines data start cut in
      let torn = cut <> start && data.[cut - 1] <> '\n' in
      let survivors = take m records in
      (match load_checked fmt root with
      | Error e -> QCheck.Test.fail_reportf "cut at %d/%d: %s" cut len e
      | Ok (got, flag) ->
          if got <> expected fmt survivors then
            QCheck.Test.fail_reportf "cut at %d/%d: not the %d committed records" cut len m;
          if Option.fold ~none:false ~some:(( <> ) torn) flag then
            QCheck.Test.fail_reportf "cut at %d/%d: torn should be %b" cut len torn);
      (match fmt.append with
      | None -> ()
      | Some append -> (
          append root extra;
          match load_checked fmt root with
          | Error e -> QCheck.Test.fail_reportf "append after a cut at %d: %s" cut e
          | Ok (got, flag) ->
              if got <> expected fmt (survivors @ [ extra ]) then
                QCheck.Test.fail_reportf "append after a cut at %d/%d: not the prefix plus one"
                  cut len;
              if flag = Some true then
                QCheck.Test.fail_reportf "append after a cut at %d: left a torn tail" cut));
      true)

let flip_test fmt =
  QCheck.Test.make ~count:150
    ~name:"flip any byte"
    QCheck.(quad (int_range 0 4) (int_bound 10_000) (int_range 1 255) (int_bound 1_000_000))
    (fun (n, seed, mask, pick) ->
      with_written fmt ~seed n @@ fun root records _ data ->
      let len = String.length data in
      len = 0
      ||
      let at = pick mod len in
      let damaged =
        String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor mask) else c) data
      in
      write_file (fmt.file root) damaged;
      (* the damaged line ends at the first '\n' from [at] on *)
      let follows =
        match String.index_from_opt damaged at '\n' with
        | Some e -> String.contains_from damaged (e + 1) '\n'
        | None -> false
      in
      (match load_checked fmt root with
      | Error _ -> ()
      | Ok (got, _) ->
          let prefixes = List.init (n + 1) (fun m -> expected fmt (take m records)) in
          if not (List.mem got prefixes) then
            QCheck.Test.fail_reportf "flip at %d/%d: not a prefix of the records" at len;
          if follows && got <> List.nth prefixes n then
            QCheck.Test.fail_reportf
              "flip at %d/%d: damage before a committed line was skipped" at len);
      true)

let props fmt = List.map QCheck_alcotest.to_alcotest [ cut_test fmt; flip_test fmt ]

let () =
  Alcotest.run "recordlog"
    [
      ("journal", props journal);
      ("corpus", props corpus);
      ("eventlog", props eventlog);
      ("costprof", props costprof);
      ("svstore", props svstore);
    ]
