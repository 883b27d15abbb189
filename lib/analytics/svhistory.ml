type sample = {
  t_ms : int;
  requests : int;
  shed : int;
  timeouts : int;
  p50_us : int;
  p99_us : int;
}

type t = sample Series.t

let create ?(capacity = 512) () =
  Series.create ~capacity ~interval_ns:1_000_000_000L

let samples t = List.map snd (Series.samples t)

let to_json t =
  let ss = samples t in
  Jsonl.Obj
    [
      ("count", Jsonl.Int (List.length ss));
      ("capacity", Jsonl.Int (Series.capacity t));
      ( "samples",
        Jsonl.List
          (List.map
             (fun s ->
               Jsonl.Obj
                 [
                   ("t_ms", Jsonl.Int s.t_ms);
                   ("requests", Jsonl.Int s.requests);
                   ("shed", Jsonl.Int s.shed);
                   ("timeouts", Jsonl.Int s.timeouts);
                   ("p50_us", Jsonl.Int s.p50_us);
                   ("p99_us", Jsonl.Int s.p99_us);
                 ])
             ss) );
    ]
