let sorted spans =
  List.sort
    (fun (a : Span.t) (b : Span.t) ->
      match Int64.compare a.t0_ns b.t0_ns with
      | 0 -> compare (a.domain, a.name) (b.domain, b.name)
      | c -> c)
    spans

(* ------------------------------------------------------------------ *)
(* Flow events                                                         *)
(* ------------------------------------------------------------------ *)

(* Chrome/Perfetto flow events (ph "s"/"t"/"f" sharing an id) link
   slices across processes: the coordinator's lease span originates one
   flow per cell in its range (flow_n > 0), worker exec spans and serve
   submissions participate in the single flow of their cell. A flow
   event binds to the slice with the same pid/tid whose interval covers
   its ts, so every event reuses its slice's start timestamp. *)
type flow_reg = {
  tbl : (int, (int * bool * int * int * int) list) Hashtbl.t;
      (* flow id -> (seq, is_source, pid, tid, ts_us), newest first *)
  mutable seq : int;
}

let flow_reg () = { tbl = Hashtbl.create 64; seq = 0 }

let flow_note reg ~pid ~tid ~ts (s : Span.t) =
  if s.Span.flow >= 0 then begin
    let seq = reg.seq in
    reg.seq <- seq + 1;
    let src = s.Span.flow_n > 0 in
    let n = max 1 s.Span.flow_n in
    for k = 0 to n - 1 do
      let id = s.Span.flow + k in
      let cur = Option.value ~default:[] (Hashtbl.find_opt reg.tbl id) in
      Hashtbl.replace reg.tbl id ((seq, src, pid, tid, ts) :: cur)
    done
  end

let flow_events reg =
  let ids = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) reg.tbl []) in
  List.concat_map
    (fun id ->
      let ps = List.rev (Hashtbl.find reg.tbl id) in
      (* the originating span leads regardless of arrival order; ties and
         participants keep registration order (group order, then time) *)
      let ps =
        List.stable_sort
          (fun (_, s1, _, _, _) (_, s2, _, _, _) -> compare s2 s1)
          ps
      in
      match ps with
      | [] | [ _ ] -> [] (* a flow needs two ends *)
      | first :: rest ->
          let ev ph extra (_, _, pid, tid, ts) =
            Jsonl.Obj
              ([
                 ("name", Jsonl.Str "cell");
                 ("cat", Jsonl.Str "flow");
                 ("ph", Jsonl.Str ph);
                 ("id", Jsonl.Int id);
                 ("ts", Jsonl.Int ts);
                 ("pid", Jsonl.Int pid);
                 ("tid", Jsonl.Int tid);
               ]
              @ extra)
          in
          let rec steps = function
            | [] -> []
            | [ last ] -> [ ev "f" [ ("bp", Jsonl.Str "e") ] last ]
            | p :: tl -> ev "t" [] p :: steps tl
          in
          ev "s" [] first :: steps rest)
    ids

(* ------------------------------------------------------------------ *)
(* Span -> event encoder                                               *)
(* ------------------------------------------------------------------ *)

let meta kind ~pid ~tid name =
  Jsonl.Obj
    [
      ("name", Jsonl.Str kind);
      ("ph", Jsonl.Str "M");
      ("pid", Jsonl.Int pid);
      ("tid", Jsonl.Int tid);
      ("args", Jsonl.Obj [ ("name", Jsonl.Str name) ]);
    ]

let domain_name d = Printf.sprintf "domain %d" d

let domains spans =
  List.sort_uniq compare (List.map (fun (s : Span.t) -> s.domain) spans)

(* the earliest start of [sorted] spans: timestamps are microseconds
   after it *)
let epoch = function [] -> 0L | (s : Span.t) :: _ -> s.t0_ns

(* one trace-event object: the metadata events, one complete ("X")
   event per [(pid, tid, epoch, span)] slice in the order given, then
   the flow events linking those slices *)
let encode ~meta ~slices =
  let reg = flow_reg () in
  let events =
    List.map
      (fun (pid, tid, epoch, (s : Span.t)) ->
        let ts = Mclock.ns_to_us (Int64.sub s.t0_ns epoch) in
        flow_note reg ~pid ~tid ~ts s;
        Jsonl.Obj
          [
            ("name", Jsonl.Str s.name);
            ("cat", Jsonl.Str s.cat);
            ("ph", Jsonl.Str "X");
            ("ts", Jsonl.Int ts);
            ("dur", Jsonl.Int (max 1 (Mclock.ns_to_us s.dur_ns)));
            ("pid", Jsonl.Int pid);
            ("tid", Jsonl.Int tid);
            ( "args",
              Jsonl.Obj
                (if s.task >= 0 then [ ("task", Jsonl.Int s.task) ] else []) );
          ])
      slices
  in
  Jsonl.Obj
    [
      ("traceEvents", Jsonl.List (meta @ events @ flow_events reg));
      ("displayTimeUnit", Jsonl.Str "ms");
    ]

(* one process: a pid per recording domain, all on tid 1 *)
let to_json spans =
  let spans = sorted spans in
  let epoch = epoch spans in
  encode
    ~meta:
      (List.map
         (fun d -> meta "process_name" ~pid:d ~tid:1 (domain_name d))
         (domains spans))
    ~slices:(List.map (fun (s : Span.t) -> (s.domain, 1, epoch, s)) spans)

(* Fleet traces: one pid per process group (coordinator, each worker),
   one tid per recording domain inside it. Each group's timestamps are
   rebased to its own earliest span — worker clocks are unrelated
   monotonic epochs, so only within-group time is meaningful. *)
let to_json_groups groups =
  let groups =
    List.mapi (fun pid (label, spans) -> (pid, label, sorted spans)) groups
  in
  encode
    ~meta:
      (List.concat_map
         (fun (pid, label, spans) ->
           meta "process_name" ~pid ~tid:0 label
           :: List.map
                (fun d -> meta "thread_name" ~pid ~tid:d (domain_name d))
                (domains spans))
         groups)
    ~slices:
      (List.concat_map
         (fun (pid, _, spans) ->
           let epoch = epoch spans in
           List.map (fun (s : Span.t) -> (pid, s.domain, epoch, s)) spans)
         groups)

let output ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Jsonl.to_string json);
      output_char oc '\n')

let write ~path spans = output ~path (to_json spans)
let write_groups ~path groups = output ~path (to_json_groups groups)
