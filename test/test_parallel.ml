(* The execution pool and its determinism guarantee: order-preserving
   merges, exception isolation, domain-safe memoisation, and — the
   property the whole engine is built around — campaign tables that are
   byte-identical across -j values and across runs at the same seed. *)

(* --- pool unit semantics --- *)

let test_map_order_preserved () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      Alcotest.(check (list int))
        "results in submission order"
        (List.map (fun x -> x * x) xs)
        (Pool.map pool ~f:(fun x -> x * x) xs));
  (* jobs <= 1 degrades to the sequential path *)
  Pool.with_pool ~jobs:0 (fun pool ->
      Alcotest.(check int) "clamped to one runner" 1 (Pool.jobs pool);
      Alcotest.(check (list int)) "sequential map" [ 2; 4; 6 ]
        (Pool.map pool ~f:(fun x -> 2 * x) [ 1; 2; 3 ]))

let test_pool_reuse_and_empty () =
  Pool.with_pool ~jobs:3 (fun pool ->
      Alcotest.(check (list int)) "empty input" [] (Pool.map pool ~f:Fun.id []);
      (* several batches through one pool *)
      for i = 1 to 5 do
        Alcotest.(check (list int))
          (Printf.sprintf "batch %d" i)
          (List.init 10 (fun x -> x + i))
          (Pool.map pool ~f:(fun x -> x + i) (List.init 10 Fun.id))
      done)

let test_exception_isolation () =
  Pool.with_pool ~jobs:3 (fun pool ->
      let f x = if x mod 3 = 0 then failwith (string_of_int x) else x in
      (* try_map captures per task *)
      let rs = Pool.try_map pool ~f [ 1; 2; 3; 4; 5; 6 ] in
      let tags =
        List.map (function Ok x -> string_of_int x | Error _ -> "!") rs
      in
      Alcotest.(check (list string))
        "failures stay in their cells"
        [ "1"; "2"; "!"; "4"; "5"; "!" ] tags;
      (* map_isolated substitutes non-fatal failures *)
      Alcotest.(check (list int))
        "isolated" [ 1; 2; -1; 4; 5; -1 ]
        (Pool.map_isolated pool ~f ~on_error:(fun _ -> -1) [ 1; 2; 3; 4; 5; 6 ]);
      (* a crashing task does not poison the pool for later batches *)
      Alcotest.(check (list int)) "pool still alive" [ 7 ]
        (Pool.map pool ~f:Fun.id [ 7 ]))

let test_map_raises_in_task_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      Alcotest.check_raises "first failure by index, not completion order"
        (Failure "2")
        (fun () ->
          ignore
            (Pool.map pool
               ~f:(fun x -> if x >= 2 then failwith (string_of_int x) else x)
               [ 0; 1; 2; 3; 4 ])))

let test_pool_stats_counts () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let s0 = Pool.stats pool in
      Alcotest.(check int) "fresh pool: nothing submitted" 0 s0.Pool.submitted;
      Alcotest.(check int) "fresh pool: nothing completed" 0 s0.Pool.completed;
      ignore (Pool.map pool ~f:Fun.id (List.init 25 Fun.id));
      ignore
        (Pool.try_map pool
           ~f:(fun x -> if x = 3 then failwith "x" else x)
           (List.init 5 Fun.id));
      let s = Pool.stats pool in
      Alcotest.(check int) "submitted accumulates across batches" 30
        s.Pool.submitted;
      Alcotest.(check int) "raising tasks still count as completed" 30
        s.Pool.completed;
      Alcotest.(check int) "quiescent pool has nothing in flight" 0
        s.Pool.in_flight;
      Alcotest.(check bool) "captured failures do not poison" true
        (s.Pool.poisoned = None))

let test_poisoned_index_reported () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let delivered = ref [] in
      let raised =
        try
          ignore
            (Pool.map_isolated pool
               ~on_result:(fun i _ -> delivered := i :: !delivered)
               ~f:(fun x -> if x = 7 then raise Out_of_memory else x)
               ~on_error:(fun _ -> -1)
               (List.init 20 Fun.id));
          false
        with Out_of_memory -> true
      in
      Alcotest.(check bool) "fatal exhaustion re-raised" true raised;
      Alcotest.(check (list int))
        "sink saw exactly the clean prefix before the fatal index"
        (List.init 7 Fun.id) (List.rev !delivered);
      let s = Pool.stats pool in
      Alcotest.(check (option int)) "poisoned records the fatal task index"
        (Some 7) s.Pool.poisoned)

let test_fatal_exceptions_surface () =
  Pool.with_pool ~jobs:2 (fun pool ->
      Alcotest.check_raises "Out_of_memory is never bucketed" Out_of_memory
        (fun () ->
          ignore
            (Pool.map_isolated pool
               ~f:(fun x -> if x = 1 then raise Out_of_memory else x)
               ~on_error:(fun _ -> -1)
               [ 0; 1; 2 ])));
  Alcotest.(check bool) "fatality predicate" true
    (Pool.is_fatal Stack_overflow && Pool.is_fatal Out_of_memory
    && not (Pool.is_fatal (Failure "x")))

(* --- domain-safe memoisation --- *)

let test_memo_computes_once () =
  let count = Atomic.make 0 in
  let m =
    Memo.make (fun () ->
        Atomic.incr count;
        42)
  in
  (* concurrent forcing from racing domains: Lazy.force would raise
     CamlinternalLazy.Undefined here *)
  let ds = List.init 4 (fun _ -> Domain.spawn (fun () -> Memo.force m)) in
  let vs = List.map Domain.join ds in
  Alcotest.(check (list int)) "all forcers agree" [ 42; 42; 42; 42 ] vs;
  Alcotest.(check int) "thunk ran once" 1 (Atomic.get count)

let test_memo_poisoning () =
  let count = ref 0 in
  let m =
    Memo.make (fun () ->
        incr count;
        failwith "poison")
  in
  Alcotest.check_raises "first force raises" (Failure "poison") (fun () ->
      ignore (Memo.force m));
  Alcotest.check_raises "second force re-raises cached" (Failure "poison")
    (fun () -> ignore (Memo.force m));
  Alcotest.(check int) "thunk ran once" 1 !count

(* --- per-task seed derivation --- *)

let test_task_seeds () =
  let a = Task_seed.derive ~base:7 ~index:0 in
  Alcotest.(check int) "pure" a (Task_seed.derive ~base:7 ~index:0);
  Alcotest.(check bool) "non-negative" true (a >= 0);
  let seeds = List.init 1000 (fun i -> Task_seed.derive ~base:7 ~index:i) in
  Alcotest.(check int) "indices do not collide" 1000
    (List.length (List.sort_uniq compare seeds));
  Alcotest.(check bool) "base matters" true
    (Task_seed.derive ~base:8 ~index:0 <> a)

(* --- bounded classification --- *)

(* The sequential generate-and-filter loop [Par.collect] stands for:
   classify seeds from [seed0] on until the n-th acceptance. Returns the
   accepted values, the rejection tags and the seeds classified. *)
let sequential_collect ~n ~seed0 verdict =
  let rec go seed acc rejects need =
    if need = 0 then (List.rev acc, List.rev rejects, List.init (seed - seed0) (( + ) seed0))
    else
      match verdict seed with
      | Par.Accept a -> go (seed + 1) (a :: acc) rejects (need - 1)
      | Par.Reject r -> go (seed + 1) acc (r :: rejects) need
  in
  go seed0 [] [] n

(* a random accept/reject pattern over the first seeds (every seed past
   it accepts); [collect] must classify exactly the seeds the sequential
   loop does, at every pool size, and return the same results *)
let prop_collect_bounded pools =
  QCheck.Test.make ~count:200 ~name:"collect classifies exactly the sequential seeds"
    QCheck.(triple (int_range 0 12) (int_bound 1000) (list_of_size Gen.(0 -- 40) bool))
    (fun (n, seed0, pattern) ->
      let pattern = Array.of_list pattern in
      let verdict seed =
        let i = seed - seed0 in
        if i < Array.length pattern && not pattern.(i) then Par.Reject (seed mod 3)
        else Par.Accept (seed * 7)
      in
      let expected_acc, expected_rejects, expected_seeds =
        sequential_collect ~n ~seed0 verdict
      in
      List.for_all
        (fun pool ->
          let m = Mutex.create () and seen = ref [] in
          let classify ~seed =
            Mutex.protect m (fun () -> seen := seed :: !seen);
            verdict seed
          in
          let acc, rejects = Par.collect pool ~n ~seed0 ~classify in
          let seen = List.sort compare !seen in
          if seen <> expected_seeds then
            QCheck.Test.fail_reportf "-j %d classified seeds [%s], expected [%s]"
              (Pool.jobs pool)
              (String.concat ";" (List.map string_of_int seen))
              (String.concat ";" (List.map string_of_int expected_seeds));
          acc = expected_acc && rejects = expected_rejects)
        pools)

let test_collect_bounded () =
  Pool.with_pool ~jobs:1 @@ fun p1 ->
  Pool.with_pool ~jobs:4 @@ fun p4 ->
  QCheck.Test.check_exn (prop_collect_bounded [ p1; p4 ])

(* --- the determinism property on real campaigns --- *)

let campaign_table jobs =
  Campaign.to_table
    (Campaign.run ~jobs ~per_mode:3 ~modes:[ Gen_config.Basic ]
       ~config_ids:[ 1; 12; 19 ] ())

let test_campaign_j_independent () =
  let reference = campaign_table 1 in
  List.iter
    (fun j ->
      Alcotest.(check string)
        (Printf.sprintf "-j %d table = -j 1 table" j)
        reference (campaign_table j))
    [ 2; 4 ]

let test_campaign_rerun_identical () =
  Alcotest.(check string) "same seed, same table" (campaign_table 2)
    (campaign_table 2)

let test_emi_campaign_j_independent () =
  let table jobs =
    Emi_campaign.to_table
      (Emi_campaign.run ~jobs ~bases:2 ~variants:3 ~config_ids:[ 1; 19 ] ())
  in
  let reference = table 1 in
  List.iter
    (fun j ->
      Alcotest.(check string) (Printf.sprintf "-j %d" j) reference (table j))
    [ 2; 4 ]

let test_classify_j_independent () =
  let table jobs = Classify.to_table (Classify.run ~jobs ~per_mode:1 ()) in
  Alcotest.(check string) "-j 2 = -j 1" (table 1) (table 2)

let test_bench_emi_j_independent () =
  let table jobs =
    Bench_emi.to_table (Bench_emi.run ~jobs ~variants:1 ~config_ids:[ 1; 19 ] ())
  in
  Alcotest.(check string) "-j 3 = -j 1" (table 1) (table 3)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map order" `Quick test_map_order_preserved;
          Alcotest.test_case "reuse + empty" `Quick test_pool_reuse_and_empty;
          Alcotest.test_case "exception isolation" `Quick test_exception_isolation;
          Alcotest.test_case "raise in task order" `Quick test_map_raises_in_task_order;
          Alcotest.test_case "stats counts" `Quick test_pool_stats_counts;
          Alcotest.test_case "poisoned index" `Quick test_poisoned_index_reported;
          Alcotest.test_case "fatal surfaces" `Quick test_fatal_exceptions_surface;
        ] );
      ( "memo",
        [
          Alcotest.test_case "computes once" `Quick test_memo_computes_once;
          Alcotest.test_case "poisoning" `Quick test_memo_poisoning;
        ] );
      ("seeds", [ Alcotest.test_case "derivation" `Quick test_task_seeds ]);
      ( "collect",
        [ Alcotest.test_case "exactly the sequential seeds" `Quick test_collect_bounded ] );
      ( "determinism",
        [
          Alcotest.test_case "table4 -j independent" `Slow test_campaign_j_independent;
          Alcotest.test_case "table4 rerun identical" `Slow test_campaign_rerun_identical;
          Alcotest.test_case "table5 -j independent" `Slow test_emi_campaign_j_independent;
          Alcotest.test_case "table1 -j independent" `Slow test_classify_j_independent;
          Alcotest.test_case "table3 -j independent" `Slow test_bench_emi_j_independent;
        ] );
    ]
