(* the in-memory projection of the journal, rebuilt by replay *)
type state = {
  kernels : (string, Corpus.entry * string) Hashtbl.t;
  mutable order : string array;  (** submission order of kernel hashes *)
  mutable count : int;
  cell_keys : (string * int * int * string, unit) Hashtbl.t;
  mutable cells_rev : Journal.cell list;
  mutable obs_rev : Triage.observation list;
  cov : Covmap.t;
  mutable cursor : int;  (** next kernel index to hand out as work *)
}

type t = { log : Recordlog.writer; s : state }

let journal_version = 1
let header_fields = [ ("k", Jsonl.Str "serve"); ("v", Jsonl.Int journal_version) ]

(* ------------------------------------------------------------------ *)
(* Record codecs (same checksummed-JSONL family as lib/store)          *)
(* ------------------------------------------------------------------ *)

let kernel_fields e text = Corpus.entry_fields e @ [ ("text", Jsonl.Str text) ]

let kernel_of_json = function
  | Jsonl.Obj fields as j -> (
      match
        ( Corpus.entry_of_fields fields,
          Option.bind (Jsonl.member "text" j) Jsonl.get_str )
      with
      | Some e, Some text -> Some (e, text)
      | _ -> None)
  | _ -> None

let report_fields ~cell ~obs ~cov =
  (("cell", Journal.cell_to_json cell)
  :: (match obs with
     | None -> []
     | Some o -> [ ("obs", Jsonl.Obj (Triage.observation_fields o)) ]))
  @ [ ("cov", Jsonl.List (List.map (fun i -> Jsonl.Int i) cov)) ]

let report_of_json j =
  let cell = Option.bind (Jsonl.member "cell" j) Journal.cell_of_json in
  let obs =
    match Jsonl.member "obs" j with
    | None -> Some None
    | Some o -> Option.map Option.some (Triage.observation_of_json o)
  in
  let cov =
    match Option.bind (Jsonl.member "cov" j) Jsonl.get_list with
    | None -> Some None
    | Some l ->
        let is = List.filter_map Jsonl.get_int l in
        if List.length is = List.length l then Some (Some is) else None
  in
  match (cell, obs, cov) with
  | Some cell, Some obs, Some cov -> Some (cell, obs, cov)
  | _ -> None

let obs_fields ~cell ~obs ~cov =
  ("k", Jsonl.Str "obs") :: report_fields ~cell ~obs ~cov

let claim_fields n = [ ("k", Jsonl.Str "claim"); ("n", Jsonl.Int n) ]

(* ------------------------------------------------------------------ *)
(* In-memory application (shared by replay and live mutation)          *)
(* ------------------------------------------------------------------ *)

let push_kernel t e text =
  Hashtbl.replace t.kernels e.Corpus.hash (e, text);
  if t.count = Array.length t.order then
    t.order <-
      Array.append t.order (Array.make (max 16 (Array.length t.order)) "");
  t.order.(t.count) <- e.Corpus.hash;
  t.count <- t.count + 1

let apply_obs t cell obs cov =
  Hashtbl.replace t.cell_keys (Journal.key cell) ();
  t.cells_rev <- cell :: t.cells_rev;
  (match obs with None -> () | Some o -> t.obs_rev <- o :: t.obs_rev);
  Covmap.add_all t.cov cov

let apply fields t =
  let j = Jsonl.Obj fields in
  match Option.bind (Jsonl.member "k" j) Jsonl.get_str with
  | Some "kernel" -> (
      match kernel_of_json j with
      | Some (e, text) ->
          if Hashtbl.mem t.kernels e.Corpus.hash then Error "duplicate kernel"
          else begin
            push_kernel t e text;
            Ok ()
          end
      | None -> Error "malformed kernel record")
  | Some "obs" -> (
      match report_of_json j with
      | Some (cell, obs, Some cov) ->
          if Hashtbl.mem t.cell_keys (Journal.key cell) then
            Error "duplicate observation"
          else begin
            ignore (apply_obs t cell obs cov);
            Ok ()
          end
      | _ -> Error "malformed obs record")
  | Some "claim" -> (
      match Option.bind (Jsonl.member "n" j) Jsonl.get_int with
      | Some n when n >= 0 ->
          (* last-wins cursor: claims interleave freely with the other
             record kinds, so replay just keeps the latest position *)
          t.cursor <- n;
          Ok ()
      | _ -> Error "malformed claim record")
  | Some other -> Error (Printf.sprintf "unknown record kind %S" other)
  | None -> Error "record without kind"

(* ------------------------------------------------------------------ *)
(* Open / replay (framing and crash policy: Recordlog)                 *)
(* ------------------------------------------------------------------ *)

let open_ ~path =
  let s =
    {
      kernels = Hashtbl.create 64;
      order = Array.make 16 "";
      count = 0;
      cell_keys = Hashtbl.create 64;
      cells_rev = [];
      obs_rev = [];
      cov = Covmap.create ();
      cursor = 0;
    }
  in
  (* the flag: the header has been read *)
  let replay headed fields =
    if headed then Result.map (fun () -> true) (apply fields s)
    else if fields = header_fields then Ok true
    else Error "wrong kind or version"
  in
  match Recordlog.append ~path ~init:false ~f:replay with
  | Error (Recordlog.Io m) -> Error m
  | Error (Recordlog.Bad (1, m)) -> Error ("serve journal header: " ^ m)
  | Error (Recordlog.Bad (n, m)) ->
      Error (Printf.sprintf "serve journal record %d: %s" (n - 1) m)
  | Ok (headed, log) -> (
      (* a missing, empty or torn-header journal starts afresh *)
      match if not headed then Recordlog.write log header_fields with
      | () -> Ok { log; s }
      | exception Sys_error m -> Error m)

let close t = Recordlog.close t.log

(* ------------------------------------------------------------------ *)
(* Mutations: journal first, then apply — a record on disk is the      *)
(* commit point, so a kill at any instant replays to this state        *)
(* ------------------------------------------------------------------ *)

let submit_kernel t e text =
  if not (String.equal (Corpus.hash_text text) e.Corpus.hash) then
    Error "kernel text does not hash to its declared address"
  else if Hashtbl.mem t.s.kernels e.Corpus.hash then Ok false
  else begin
    Recordlog.write t.log (kernel_fields e text);
    push_kernel t.s e text;
    Ok true
  end

let report_observation t ~cell ~obs ~cov =
  if List.exists (fun i -> i < 0 || i >= Covmap.size) cov then
    Error "coverage index out of range"
  else if Hashtbl.mem t.s.cell_keys (Journal.key cell) then Ok (false, 0)
  else begin
    Recordlog.write t.log (obs_fields ~cell ~obs ~cov);
    Ok (true, apply_obs t.s cell obs cov)
  end

let claim { log; s } =
  if s.cursor >= s.count then None
  else begin
    let hash = s.order.(s.cursor) in
    Recordlog.write log (claim_fields (s.cursor + 1));
    s.cursor <- s.cursor + 1;
    Hashtbl.find_opt s.kernels hash
  end

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let buckets t = Triage.of_observations (List.rev t.s.obs_rev)
let coverage_count t = Covmap.count t.s.cov
let coverage_hex t = Covmap.to_hex t.s.cov

let corpus { s; _ } =
  List.init s.count (fun i -> fst (Hashtbl.find s.kernels s.order.(i)))

let kernel t hash = Option.map snd (Hashtbl.find_opt t.s.kernels hash)
let cells t = List.rev t.s.cells_rev
let kernel_count t = t.s.count
let cell_count t = List.length t.s.cells_rev
let cursor t = t.s.cursor

let header t =
  Journal.make_header ~campaign:"serve" ~ident:[]
    ~scale:
      [
        ("kernels", string_of_int t.s.count);
        ("cells", string_of_int (cell_count t));
      ]
