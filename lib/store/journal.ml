type header = {
  version : int;
  campaign : string;
  ident : (string * string) list;
  scale : (string * string) list;
}

let current_version = 1

let sort_params = List.sort (fun (a, _) (b, _) -> String.compare a b)

let make_header ~campaign ~ident ~scale =
  { version = current_version; campaign; ident = sort_params ident;
    scale = sort_params scale }

type cell = {
  index : int;
  seed : int;
  mode : string;
  config : int;
  opt : string;
  outcomes : Outcome.t list;
  note : string;
}

let key c = (c.mode, c.seed, c.config, c.opt)

let index_cells cells =
  let tbl = Hashtbl.create (max 16 (List.length cells)) in
  List.iter (fun c -> Hashtbl.replace tbl (key c) c) cells;
  tbl

type error = Io of string | Corrupt of string | Mismatch of string

let error_to_string = function
  | Io m -> "journal: " ^ m
  | Corrupt m -> "journal: corrupt: " ^ m
  | Mismatch m -> "journal: parameter mismatch: " ^ m

(* ------------------------------------------------------------------ *)
(* Record encoding                                                     *)
(* ------------------------------------------------------------------ *)

let outcome_to_json (o : Outcome.t) =
  let tagged v = Jsonl.Obj [ ("t", Jsonl.Str (Outcome.short_tag o)); ("v", Jsonl.Str v) ] in
  match o with
  | Outcome.Success v | Outcome.Build_failure v | Outcome.Crash v
  | Outcome.Machine_crash v | Outcome.Ub v ->
      tagged v
  | Outcome.Timeout -> Jsonl.Obj [ ("t", Jsonl.Str "to") ]

let outcome_of_json j =
  let v () = Option.bind (Jsonl.member "v" j) Jsonl.get_str in
  match Option.bind (Jsonl.member "t" j) Jsonl.get_str with
  | Some "to" -> Some Outcome.Timeout
  | Some tag -> (
      match (tag, v ()) with
      | "ok", Some v -> Some (Outcome.Success v)
      | "bf", Some v -> Some (Outcome.Build_failure v)
      | "c", Some v -> Some (Outcome.Crash v)
      | "mc", Some v -> Some (Outcome.Machine_crash v)
      | "ub", Some v -> Some (Outcome.Ub v)
      | _ -> None)
  | None -> None

let cell_fields c =
  [
    ("k", Jsonl.Str "cell");
    ("i", Jsonl.Int c.index);
    ("seed", Jsonl.Int c.seed);
    ("mode", Jsonl.Str c.mode);
    ("config", Jsonl.Int c.config);
    ("opt", Jsonl.Str c.opt);
    ("out", Jsonl.List (List.map outcome_to_json c.outcomes));
    ("note", Jsonl.Str c.note);
  ]

let cell_of_fields fields =
  let j = Jsonl.Obj fields in
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  match (int "i", int "seed", str "mode", int "config", str "opt", str "note") with
  | Some index, Some seed, Some mode, Some config, Some opt, Some note -> (
      match Jsonl.member "out" j with
      | Some (Jsonl.List outs) ->
          let outcomes = List.filter_map outcome_of_json outs in
          if List.length outcomes <> List.length outs then None
          else Some { index; seed; mode; config; opt; outcomes; note }
      | _ -> None)
  | _ -> None

let cell_to_json c = Jsonl.Obj (cell_fields c)

let cell_of_json = function
  | Jsonl.Obj fields -> cell_of_fields fields
  | _ -> None

let params_to_json ps = Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Str v)) ps)

let params_of_json = function
  | Some (Jsonl.Obj fields) ->
      let strs =
        List.filter_map
          (fun (k, v) -> Option.map (fun s -> (k, s)) (Jsonl.get_str v))
          fields
      in
      if List.length strs = List.length fields then Some strs else None
  | _ -> None

let header_fields h =
  [
    ("k", Jsonl.Str "header");
    ("version", Jsonl.Int h.version);
    ("campaign", Jsonl.Str h.campaign);
    ("ident", params_to_json h.ident);
    ("scale", params_to_json h.scale);
  ]

let header_of_fields fields =
  let j = Jsonl.Obj fields in
  match
    ( Option.bind (Jsonl.member "version" j) Jsonl.get_int,
      Option.bind (Jsonl.member "campaign" j) Jsonl.get_str,
      params_of_json (Jsonl.member "ident" j),
      params_of_json (Jsonl.member "scale" j) )
  with
  | Some version, Some campaign, Some ident, Some scale ->
      Some { version; campaign; ident = sort_params ident; scale = sort_params scale }
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Reading and writing (framing and crash policy: Recordlog)           *)
(* ------------------------------------------------------------------ *)

(* the header, then the cells newest first *)
let step acc fields =
  match (acc, Jsonl.member "k" (Jsonl.Obj fields)) with
  | None, Some (Jsonl.Str "header") -> (
      match header_of_fields fields with
      | Some h -> Ok (Some (h, []))
      | None -> Error "malformed header")
  | None, _ -> Error "first record is not a header"
  | Some (h, cells), _ -> (
      match cell_of_fields fields with
      | Some c -> Ok (Some (h, c :: cells))
      | None -> Error "malformed cell record")

let log_error = function
  | Recordlog.Io m -> Io m
  | Recordlog.Bad (1, m) -> Corrupt ("header: " ^ m)
  | Recordlog.Bad (n, m) -> Corrupt (Printf.sprintf "record %d: %s" (n - 1) m)

let load ~path =
  match Recordlog.fold ~path ~init:None ~f:step with
  | Error e -> Error (log_error e)
  | Ok (None, _) -> Error (Corrupt "no header record")
  | Ok (Some (header, cells), torn) -> Ok (header, List.rev cells, torn)

type writer = Recordlog.writer

let start w header =
  Recordlog.write w (header_fields header);
  w

let create ~path header = start (Recordlog.create ~path) header

let header_mismatch requested found =
  let show ps =
    String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) ps)
  in
  if found.version <> requested.version then
    Some
      (Printf.sprintf "journal version %d, this build writes %d" found.version
         requested.version)
  else if not (String.equal found.campaign requested.campaign) then
    Some
      (Printf.sprintf "journal is for %s, requested %s" found.campaign
         requested.campaign)
  else if found.ident <> requested.ident then
    Some
      (Printf.sprintf "journal identity {%s} differs from requested {%s}"
         (show found.ident) (show requested.ident))
  else None

let resume ~path header =
  if not (Sys.file_exists path) then Ok (create ~path header, [])
  else
    match load ~path with
    | Error e -> Error e
    | Ok (found, cells, _truncated) -> (
        match header_mismatch header found with
        | Some msg -> Error (Mismatch msg)
        | None -> Ok (start (Recordlog.replace ~path) header, cells))

let append ~path header =
  match Recordlog.append ~path ~init:None ~f:step with
  | Error e -> Error (log_error e)
  | Ok (None, w) -> (
      (* a missing, empty or torn-header file starts afresh *)
      match start w header with
      | w -> Ok (w, [])
      | exception Sys_error m -> Error (Io m))
  | Ok (Some (found, cells), w) -> (
      match header_mismatch header found with
      | Some msg ->
          Recordlog.close w;
          Error (Mismatch msg)
      | None -> Ok (w, List.rev cells))

let write_cell w c =
  Span.with_ ~cat:"persist" "journal.append" @@ fun () ->
  Recordlog.write w (cell_fields c)

let commit = Recordlog.close
