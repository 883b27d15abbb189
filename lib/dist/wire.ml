let max_frame = Netaddr.max_payload

(* longest legal length header: decimal digits of max_frame *)
let max_header = String.length (string_of_int max_frame)

let frame payload =
  String.concat ""
    [ string_of_int (String.length payload); "\n"; payload; "\n" ]

type counters = { mutable frames : int; mutable bytes : int }

let counters () = { frames = 0; bytes = 0 }

(* transport totals register in the global registry on first use, so a
   process that never touches a socket never grows its metrics output.
   [Metrics.counter] finds or registers under its own lock: two workers
   in one process may send their first frames at once, and a racing
   force of a shared [Lazy.t] raises [CamlinternalLazy.Undefined] *)
let count_out c payload_len =
  (* header digits + '\n' + payload + '\n', matching what [frame] sends *)
  let n = String.length (string_of_int payload_len) + 1 + payload_len + 1 in
  c.frames <- c.frames + 1;
  c.bytes <- c.bytes + n;
  Metrics.incr (Metrics.counter "wire.out.frames");
  Metrics.add (Metrics.counter "wire.out.bytes") n

type decoder = {
  buf : Buffer.t;
  mutable off : int;  (** consumed prefix of [buf] *)
  mutable corrupt : string option;
  ingress : counters;
}

let decoder () =
  { buf = Buffer.create 4096; off = 0; corrupt = None; ingress = counters () }

let ingress d = d.ingress

let compact d =
  (* drop the consumed prefix once it dominates the buffer, keeping
     feed/next amortised linear *)
  if d.off > 0 && d.off >= Buffer.length d.buf - d.off then begin
    let rest = Buffer.sub d.buf d.off (Buffer.length d.buf - d.off) in
    Buffer.clear d.buf;
    Buffer.add_string d.buf rest;
    d.off <- 0
  end

let count_in d n =
  d.ingress.bytes <- d.ingress.bytes + n;
  Metrics.add (Metrics.counter "wire.in.bytes") n

let feed d b n =
  count_in d n;
  Buffer.add_subbytes d.buf b 0 n

let feed_string d s =
  count_in d (String.length s);
  Buffer.add_string d.buf s

let fail d msg =
  d.corrupt <- Some msg;
  `Corrupt msg

let next d =
  match d.corrupt with
  | Some msg -> `Corrupt msg
  | None -> (
      compact d;
      let len = Buffer.length d.buf in
      let contents = Buffer.contents d.buf in
      match String.index_from_opt contents d.off '\n' with
      | None ->
          if len - d.off > max_header then
            fail d "length header too long"
          else `Awaiting
      | Some nl -> (
          let header = String.sub contents d.off (nl - d.off) in
          match int_of_string_opt header with
          | None -> fail d (Printf.sprintf "bad length header %S" header)
          | Some plen when plen < 0 || plen > max_frame ->
              fail d (Printf.sprintf "frame length %d out of bounds" plen)
          | Some plen ->
              (* header, payload, terminating newline *)
              if len - nl - 1 < plen + 1 then `Awaiting
              else begin
                let payload = String.sub contents (nl + 1) plen in
                let term = contents.[nl + 1 + plen] in
                if term <> '\n' then
                  fail d
                    (Printf.sprintf "frame terminator %C after %d bytes" term
                       plen)
                else begin
                  d.off <- nl + 1 + plen + 1;
                  d.ingress.frames <- d.ingress.frames + 1;
                  Metrics.incr (Metrics.counter "wire.in.frames");
                  `Frame payload
                end
              end))
