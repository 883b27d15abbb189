type entry = {
  hash : string;
  seed : int;
  mode : string;
  cls : string;
  config : int;
  opt : string;
}

let hash_text text = Digest.to_hex (Digest.string text)
let kernel_path ~dir ~hash = Filename.concat dir (hash ^ ".cl")
let index_path dir = Filename.concat dir "index.jsonl"

let entry_fields e =
  [
    ("k", Jsonl.Str "kernel");
    ("hash", Jsonl.Str e.hash);
    ("seed", Jsonl.Int e.seed);
    ("mode", Jsonl.Str e.mode);
    ("cls", Jsonl.Str e.cls);
    ("config", Jsonl.Int e.config);
    ("opt", Jsonl.Str e.opt);
  ]

let entry_of_fields fields =
  let j = Jsonl.Obj fields in
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  match (str "hash", int "seed", str "mode", str "cls", int "config", str "opt") with
  | Some hash, Some seed, Some mode, Some cls, Some config, Some opt ->
      Some { hash; seed; mode; cls; config; opt }
  | _ -> None

let dedup_key e = (e.hash, e.cls, e.config, e.opt)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file_atomic path contents =
  let w = Recordlog.replace ~path in
  Recordlog.output w contents;
  Recordlog.close w

let decode_entry fields =
  Option.to_result ~none:"malformed entry" (entry_of_fields fields)

let index_error = function
  | Recordlog.Io m -> m
  | Recordlog.Bad (n, m) -> Printf.sprintf "corpus index entry %d: %s" n m

let index ~dir =
  let path = index_path dir in
  if not (Sys.file_exists path) then Ok []
  else
    let f acc fields = Result.map (fun e -> e :: acc) (decode_entry fields) in
    match Recordlog.fold ~path ~init:[] ~f with
    | Ok (entries, _torn) -> Ok (List.rev entries)
    | Error e -> Error (index_error e)

let add_all ~dir pairs =
  let seen = Hashtbl.create 64 in
  let note () fields =
    Result.map (fun e -> Hashtbl.replace seen (dedup_key e) ()) (decode_entry fields)
  in
  match
    if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
    Recordlog.append ~path:(index_path dir) ~init:() ~f:note
  with
  | exception Sys_error m -> Error m
  | Error e -> Error (index_error e)
  | Ok ((), w) -> (
      let add added (e, text) =
        let path = kernel_path ~dir ~hash:e.hash in
        if not (Sys.file_exists path) then write_file_atomic path text;
        if Hashtbl.mem seen (dedup_key e) then added
        else begin
          Hashtbl.replace seen (dedup_key e) ();
          Recordlog.write w (entry_fields e);
          added + 1
        end
      in
      match
        let added = List.fold_left add 0 pairs in
        Recordlog.close w;
        added
      with
      | exception Sys_error m -> Error m
      | added -> Ok added)

let read_kernel ~dir ~hash =
  match read_file (kernel_path ~dir ~hash) with
  | exception Sys_error m -> Error m
  | contents -> Ok contents

let fold ~dir ~init ~f =
  match index ~dir with
  | Error m -> Error m
  | Ok entries -> (
      let cache = Hashtbl.create 64 in
      let text_of hash =
        match Hashtbl.find_opt cache hash with
        | Some t -> t
        | None ->
            let t = read_file (kernel_path ~dir ~hash) in
            Hashtbl.add cache hash t;
            t
      in
      match
        List.fold_left (fun acc e -> f acc e (text_of e.hash)) init entries
      with
      | exception Sys_error m -> Error m
      | acc -> Ok acc)

let load_all ~dir =
  Result.map List.rev
    (fold ~dir ~init:[] ~f:(fun acc e text -> (e, text) :: acc))

let verify ~dir e =
  match read_kernel ~dir ~hash:e.hash with
  | Error m -> Error m
  | Ok text ->
      let h = hash_text text in
      if String.equal h e.hash then Ok ()
      else
        Error
          (Printf.sprintf "content hash %s does not match address %s" h e.hash)

(* ------------------------------------------------------------------ *)
(* Fsck                                                                *)
(* ------------------------------------------------------------------ *)

type damage =
  | Hash_mismatch of { hash : string; actual : string }
  | Missing_kernel of string
  | Orphan_kernel of string
  | Duplicate_entry of { hash : string; cls : string; config : int; opt : string }
  | Index_unreadable of string

let damage_to_string = function
  | Hash_mismatch { hash; actual } ->
      Printf.sprintf "%s.cl: content hashes to %s, not its address" hash actual
  | Missing_kernel hash ->
      Printf.sprintf "%s.cl: indexed but missing on disk" hash
  | Orphan_kernel file ->
      Printf.sprintf "%s: kernel file not referenced by the index" file
  | Duplicate_entry { hash; cls; config; opt } ->
      Printf.sprintf "index: duplicate entry (%s, %s, %d, %s)"
        (String.sub hash 0 (min 12 (String.length hash)))
        cls config opt
  | Index_unreadable msg -> Printf.sprintf "index unreadable: %s" msg

let fsck ~dir =
  if not (Sys.file_exists dir) then [ Index_unreadable "corpus directory missing" ]
  else
    match index ~dir with
    | Error m -> [ Index_unreadable m ]
    | Ok entries ->
        let damage = ref [] in
        let push d = damage := d :: !damage in
        (* index drift: the same dedup key journalled twice means
           add_all's invariant was violated (hand edits, merge damage) *)
        let seen = Hashtbl.create 64 in
        List.iter
          (fun e ->
            if Hashtbl.mem seen (dedup_key e) then
              push
                (Duplicate_entry
                   { hash = e.hash; cls = e.cls; config = e.config; opt = e.opt })
            else Hashtbl.replace seen (dedup_key e) ())
          entries;
        (* content addresses: every indexed kernel present and honest,
           each distinct hash checked once *)
        let checked = Hashtbl.create 64 in
        List.iter
          (fun e ->
            if not (Hashtbl.mem checked e.hash) then begin
              Hashtbl.replace checked e.hash ();
              match read_file (kernel_path ~dir ~hash:e.hash) with
              | exception Sys_error _ -> push (Missing_kernel e.hash)
              | text ->
                  let actual = hash_text text in
                  if not (String.equal actual e.hash) then
                    push (Hash_mismatch { hash = e.hash; actual })
            end)
          entries;
        (* orphans: kernel files the index does not know about *)
        (match Sys.readdir dir with
        | exception Sys_error m -> push (Index_unreadable m)
        | files ->
            let files = Array.to_list files in
            List.iter
              (fun f ->
                if Filename.check_suffix f ".cl" then
                  let hash = Filename.chop_suffix f ".cl" in
                  if not (Hashtbl.mem checked hash) then push (Orphan_kernel f))
              (List.sort compare files));
        List.rev !damage
