type error = Io of string | Bad of int * string

(* The decoded committed prefix, the byte offset where it ends and the
   file length: the tail is torn exactly when the two differ. Lines are
   read one at a time, so nothing but the caller's own records outlives
   its line. Only a line that fails its checksum can be a torn write; a
   record the format rejects is damage wherever it sits. *)
let scan ~path ~init ~f =
  match open_in_bin path with
  | exception Sys_error m -> Error (Io m)
  | ic ->
      let rec go len n acc good =
        if good = len then Ok (acc, good, len)
        else
          let line = input_line ic in
          let stop = pos_in ic in
          (* no '\n' consumed: the final record was never committed *)
          if stop = good + String.length line then Ok (acc, good, len)
          else
            match Jsonl.decode_line line with
            | Error _ when stop = len -> Ok (acc, good, len)
            | Error m -> Error (Bad (n, m))
            | Ok fields -> (
                match f acc fields with
                | Ok acc -> go len (n + 1) acc stop
                | Error m -> Error (Bad (n, m)))
      in
      let r =
        match go (in_channel_length ic) 1 init 0 with
        | r -> r
        | exception Sys_error m -> Error (Io m)
        | exception End_of_file -> Error (Io (path ^ ": shrank while reading"))
      in
      close_in_noerr ic;
      r

let fold ~path ~init ~f =
  Result.map (fun (acc, good, len) -> (acc, good < len)) (scan ~path ~init ~f)

type writer = { oc : out_channel; rename : (string * string) option }

let create ~path = { oc = open_out_bin path; rename = None }

let append ~path ~init ~f =
  match if Sys.file_exists path then scan ~path ~init ~f else Ok (init, 0, 0) with
  | Error e -> Error e
  | Ok (acc, good, len) -> (
      match
        (* one truncate: a second kill mid-repair finds the same prefix *)
        if good < len then Unix.truncate path good;
        open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path
      with
      | oc -> Ok (acc, { oc; rename = None })
      | exception Sys_error m -> Error (Io m)
      | exception Unix.Unix_error (e, _, _) ->
          Error (Io (path ^ ": " ^ Unix.error_message e)))

let replace ~path =
  let tmp = path ^ ".tmp" in
  { oc = open_out_bin tmp; rename = Some (tmp, path) }

let write w fields =
  output_string w.oc (Jsonl.encode_line fields);
  output_char w.oc '\n';
  flush w.oc

let output w s = output_string w.oc s

let close w =
  close_out w.oc;
  Option.iter (fun (tmp, path) -> Sys.rename tmp path) w.rename
