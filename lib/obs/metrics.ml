type counter = int Atomic.t

(* 63 buckets cover every positive OCaml int; bucket i counts values v
   with 2^i <= v < 2^(i+1), and v <= 1 lands in bucket 0. *)
type histogram = int Atomic.t array

let bucket_count = 63

let reg_m = Mutex.create ()
let counters_tbl : (string, counter) Hashtbl.t = Hashtbl.create 64
let histograms_tbl : (string, histogram) Hashtbl.t = Hashtbl.create 16

let counter name =
  Mutex.lock reg_m;
  let c =
    match Hashtbl.find_opt counters_tbl name with
    | Some c -> c
    | None ->
        let c = Atomic.make 0 in
        Hashtbl.add counters_tbl name c;
        c
  in
  Mutex.unlock reg_m;
  c

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let histogram name =
  Mutex.lock reg_m;
  let h =
    match Hashtbl.find_opt histograms_tbl name with
    | Some h -> h
    | None ->
        let h = Array.init bucket_count (fun _ -> Atomic.make 0) in
        Hashtbl.add histograms_tbl name h;
        h
  in
  Mutex.unlock reg_m;
  h

let bucket_of v =
  if v <= 1 then 0
  else
    let rec log2 acc v = if v <= 1 then acc else log2 (acc + 1) (v lsr 1) in
    min (bucket_count - 1) (log2 0 v)

let observe h v = Atomic.incr h.(bucket_of v)

let sorted_bindings tbl =
  Mutex.lock reg_m;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  Mutex.unlock reg_m;
  List.sort (fun (a, _) (b, _) -> String.compare a b) l

let counters () =
  List.map (fun (name, c) -> (name, Atomic.get c)) (sorted_bindings counters_tbl)

let histogram_buckets h =
  let acc = ref [] in
  for i = bucket_count - 1 downto 0 do
    let n = Atomic.get h.(i) in
    if n > 0 then acc := ((if i = 0 then 1 else 1 lsl i), n) :: !acc
  done;
  !acc

let histograms () =
  List.map
    (fun (name, h) -> (name, histogram_buckets h))
    (sorted_bindings histograms_tbl)

let rank p n = max 1 (((p * n) + 99) / 100)

(* The p-th percentile over bucketed contents: the smallest bucket floor
   whose cumulative count reaches the rank. Exact for the bucket
   representatives — every observation in a bucket is reported as the
   bucket floor, the same compression the buckets themselves apply. *)
let percentile_of_buckets buckets p =
  let total = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
  if total = 0 then None
  else
    let rank = rank p total in
    let rec go seen = function
      | [] -> None
      | (floor, n) :: rest ->
          if seen + n >= rank then Some floor else go (seen + n) rest
    in
    go 0 buckets

let percentile h p = percentile_of_buckets (histogram_buckets h) p

let reset () =
  Mutex.lock reg_m;
  Hashtbl.iter (fun _ c -> Atomic.set c 0) counters_tbl;
  Hashtbl.iter (fun _ h -> Array.iter (fun b -> Atomic.set b 0) h) histograms_tbl;
  Mutex.unlock reg_m

(* Prometheus metric names admit [a-zA-Z0-9_:]; the registry's dotted
   paths map dots (and anything else) to underscores *)
let prom_name name =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    name

let to_prometheus () =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (counters ());
  List.iter
    (fun (name, buckets) ->
      let n = prom_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      List.iter
        (fun (floor, count) ->
          cum := !cum + count;
          (* bucket floor f holds values in [f, 2f) (f = 1 holds v <= 1),
             so the inclusive upper bound is 2f - 1 *)
          let le = if floor <= 1 then 1 else (2 * floor) - 1 in
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n le !cum))
        buckets;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n%s_count %d\n" n !cum n !cum))
    (histograms ());
  Buffer.contents b

let to_json () =
  let counters =
    Jsonl.Obj (List.map (fun (name, v) -> (name, Jsonl.Int v)) (counters ()))
  in
  let histograms =
    Jsonl.Obj
      (List.map
         (fun (name, buckets) ->
           let count = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
           let pct p =
             match percentile_of_buckets buckets p with
             | Some v -> Jsonl.Int v
             | None -> Jsonl.Null
           in
           ( name,
             Jsonl.Obj
               [
                 ( "buckets",
                   Jsonl.Obj
                     (List.map
                        (fun (floor, n) -> (string_of_int floor, Jsonl.Int n))
                        buckets) );
                 ("count", Jsonl.Int count);
                 ("p50", pct 50);
                 ("p90", pct 90);
                 ("p99", pct 99);
               ] ))
         (histograms ()))
  in
  Jsonl.Obj
    [ ("version", Jsonl.Int 2); ("counters", counters); ("histograms", histograms) ]
