type resp = { status : int; headers : (string * string) list; body : string }

let read_all fd =
  let buf = Bytes.create 65536 in
  let b = Buffer.create 4096 in
  let rec go () =
    match Unix.read fd buf 0 (Bytes.length buf) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b buf 0 n;
        go ()
    | exception Unix.Unix_error (EINTR, _, _) -> go ()
  in
  go ()

let parse raw =
  match Http.head_end raw 0 with
  | None -> Error "truncated response"
  | Some (he, body_start) -> (
      let head = String.sub raw 0 he in
      match String.split_on_char '\n' head with
      | status_line :: header_lines -> (
          let status_line = Http.strip_cr status_line in
          match String.split_on_char ' ' status_line with
          | version :: code :: _
            when String.length version >= 7
                 && String.sub version 0 7 = "HTTP/1." -> (
              match int_of_string_opt code with
              | None -> Error ("bad status " ^ code)
              | Some status ->
                  let headers =
                    List.filter_map
                      (fun line ->
                        let line = Http.strip_cr line in
                        match String.index_opt line ':' with
                        | None -> None
                        | Some i ->
                            Some
                              ( String.lowercase_ascii (String.sub line 0 i),
                                String.trim
                                  (String.sub line (i + 1)
                                     (String.length line - i - 1)) ))
                      header_lines
                  in
                  let body =
                    String.sub raw body_start (String.length raw - body_start)
                  in
                  (* Connection: close means EOF delimits the body; a
                     content-length merely lets us truncate trailing
                     bytes if the peer sent any *)
                  let body =
                    match
                      Option.bind
                        (List.assoc_opt "content-length" headers)
                        int_of_string_opt
                    with
                    | Some n when n <= String.length body -> String.sub body 0 n
                    | _ -> body
                  in
                  Ok { status; headers; body })
          | _ -> Error "malformed status line")
      | [] -> Error "empty response")

let request ~addr ?(retries = 0) ~meth ~path ?(body = "")
    ?(content_type = "application/json") () =
  match Netaddr.connect ~retries addr with
  | Error e -> Error e
  | Ok fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let head =
            Printf.sprintf
              "%s %s HTTP/1.1\r\nhost: campaign-serve\r\nconnection: close\r\n"
              meth path
          in
          let head =
            if body = "" then head
            else
              head
              ^ Printf.sprintf "content-type: %s\r\ncontent-length: %d\r\n"
                  content_type (String.length body)
          in
          match Netaddr.write_all fd (head ^ "\r\n" ^ body) with
          | () -> parse (read_all fd)
          | exception Unix.Unix_error (err, _, _) ->
              Error (Printf.sprintf "send: %s" (Unix.error_message err)))

let get ~addr ?retries path = request ~addr ?retries ~meth:"GET" ~path ()

let expect_json (r : resp) =
  match Jsonl.of_string r.body with
  | Ok j -> Ok j
  | Error e -> Error (Printf.sprintf "status %d, bad json: %s" r.status e)

let submit_kernel ~addr ?retries (e : Corpus.entry) text =
  match
    request ~addr ?retries ~meth:"POST" ~path:"/kernel"
      ~body:(Jsonl.to_string (Jsonl.Obj (Svstore.kernel_fields e text)))
      ()
  with
  | Error e -> Error e
  | Ok r when r.status <> 200 ->
      Error (Printf.sprintf "submit: status %d: %s" r.status r.body)
  | Ok r -> (
      match expect_json r with
      | Error e -> Error e
      | Ok j -> (
          match Option.bind (Jsonl.member "added" j) Jsonl.get_bool with
          | Some added -> Ok added
          | None -> Error "submit: malformed reply"))

let claim ~addr ?retries () =
  match request ~addr ?retries ~meth:"POST" ~path:"/claim" () with
  | Error e -> Error e
  | Ok r when r.status = 204 -> Ok None
  | Ok r when r.status <> 200 ->
      Error (Printf.sprintf "claim: status %d: %s" r.status r.body)
  | Ok r -> (
      match expect_json r with
      | Error e -> Error e
      | Ok j -> (
          match Svstore.kernel_of_json j with
          | Some claimed -> Ok (Some claimed)
          | None -> Error "claim: malformed reply"))

let report_observation ~addr ?retries ~cell ~obs ~cov () =
  let body = Jsonl.to_string (Jsonl.Obj (Svstore.report_fields ~cell ~obs ~cov)) in
  match request ~addr ?retries ~meth:"POST" ~path:"/observation" ~body () with
  | Error e -> Error e
  | Ok r when r.status <> 200 ->
      Error (Printf.sprintf "observation: status %d: %s" r.status r.body)
  | Ok r -> (
      match expect_json r with
      | Error e -> Error e
      | Ok j -> (
          match
            ( Option.bind (Jsonl.member "fresh" j) Jsonl.get_bool,
              Option.bind (Jsonl.member "new_bits" j) Jsonl.get_int )
          with
          | Some fresh, Some new_bits -> Ok (fresh, new_bits)
          | _ -> Error "observation: malformed reply"))
