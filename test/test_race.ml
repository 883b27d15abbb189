(* The epoch-based race detector: unit semantics plus end-to-end detection
   on hand-built kernels and the benchmark suite. *)

open Build

let detecting = { Interp.default_config with Interp.detect_races = true }

let races tc = (Interp.run ~config:detecting tc).Interp.races

let k body = kernel1 "k" body
let store e = assign (idx (v "out") tid_linear) (cast Ty.ulong e)

(* --- unit-level detector semantics --- *)

let rec_ t ~loc ~thread ~group ~kind ~atomic ~epoch =
  Race.record t ~loc ~thread ~group ~kind ~atomic ~epoch ~space:Ty.Local

let test_same_epoch_write_write () =
  let t = Race.create () in
  rec_ t ~loc:1 ~thread:0 ~group:0 ~kind:Race.Write ~atomic:false ~epoch:0;
  rec_ t ~loc:1 ~thread:1 ~group:0 ~kind:Race.Write ~atomic:false ~epoch:0;
  Alcotest.(check bool) "write/write same epoch races" true (Race.has_race t)

let test_barrier_separates () =
  let t = Race.create () in
  rec_ t ~loc:1 ~thread:0 ~group:0 ~kind:Race.Write ~atomic:false ~epoch:0;
  rec_ t ~loc:1 ~thread:1 ~group:0 ~kind:Race.Read ~atomic:false ~epoch:1;
  Alcotest.(check bool) "different epochs do not race" false (Race.has_race t)

let test_reads_never_race () =
  let t = Race.create () in
  rec_ t ~loc:1 ~thread:0 ~group:0 ~kind:Race.Read ~atomic:false ~epoch:0;
  rec_ t ~loc:1 ~thread:1 ~group:0 ~kind:Race.Read ~atomic:false ~epoch:0;
  Alcotest.(check bool) "read/read fine" false (Race.has_race t)

let test_atomic_writes_safe () =
  let t = Race.create () in
  rec_ t ~loc:1 ~thread:0 ~group:0 ~kind:Race.Write ~atomic:true ~epoch:0;
  rec_ t ~loc:1 ~thread:1 ~group:0 ~kind:Race.Read ~atomic:false ~epoch:0;
  Alcotest.(check bool) "atomic write vs plain read is not flagged" false
    (Race.has_race t);
  rec_ t ~loc:1 ~thread:2 ~group:0 ~kind:Race.Write ~atomic:false ~epoch:0;
  Alcotest.(check bool) "plain write vs anything races" true (Race.has_race t)

let test_cross_group () =
  let t = Race.create () in
  rec_ t ~loc:1 ~thread:0 ~group:0 ~kind:Race.Write ~atomic:false ~epoch:0;
  rec_ t ~loc:1 ~thread:9 ~group:1 ~kind:Race.Read ~atomic:false ~epoch:7;
  Alcotest.(check bool) "cross-group epochs are irrelevant" true (Race.has_race t)

let test_same_thread_never () =
  let t = Race.create () in
  rec_ t ~loc:1 ~thread:0 ~group:0 ~kind:Race.Write ~atomic:false ~epoch:0;
  rec_ t ~loc:1 ~thread:0 ~group:0 ~kind:Race.Write ~atomic:false ~epoch:0;
  Alcotest.(check bool) "a thread cannot race itself" false (Race.has_race t)

(* --- end-to-end --- *)

let test_racy_kernel_detected () =
  (* two threads write the same local slot with no barrier *)
  let prog =
    k
      [
        decl ~space:Ty.Local "sh" Ty.uint;
        assign (v "sh") (cast Ty.uint lid_linear);
        barrier;
        store (v "sh");
      ]
  in
  let tc = testcase ~gsize:(2, 1, 1) ~lsize:(2, 1, 1) prog in
  Alcotest.(check bool) "detected" true (races tc <> [])

let test_disjoint_slots_clean () =
  let prog =
    k
      [
        decl ~space:Ty.Local "a" (Ty.Arr (Ty.uint, 2));
        assign (idx (v "a") lid_linear) (cu 1);
        barrier;
        store (idx (v "a") (ci 0));
      ]
  in
  let tc = testcase ~gsize:(2, 1, 1) ~lsize:(2, 1, 1) prog in
  Alcotest.(check (list string)) "clean" []
    (List.map Race.race_to_string (races tc))

let test_generated_kernels_race_free () =
  (* the determinism discipline implies race-freedom; spot-check it
     dynamically over all modes *)
  List.iter
    (fun mode ->
      let cfg = Gen_config.scaled mode in
      for seed = 900 to 906 do
        let tc, info = Generate.generate ~cfg ~seed () in
        if not info.Generate.counter_sharing then
          match races tc with
          | [] -> ()
          | r :: _ ->
              Alcotest.failf "[%s seed %d] %s" (Gen_config.mode_name mode) seed
                (Race.race_to_string r)
      done)
    Gen_config.all_modes

let test_detection_pool_j_independent () =
  (* the racy-schedule path (detect_races on, racy and clean kernels mixed)
     run as pool tasks: reports must not depend on -j *)
  let tcs =
    List.concat_map
      (fun (b : Suite.benchmark) -> [ b.Suite.testcase () ])
      Suite.all
    @ List.filter_map
        (fun seed ->
          let tc, info =
            Generate.generate ~cfg:(Gen_config.scaled Gen_config.Barrier) ~seed ()
          in
          if info.Generate.counter_sharing then None else Some tc)
        [ 910; 911; 912 ]
  in
  let reports jobs =
    Pool.with_pool ~jobs (fun pool ->
        Pool.map pool tcs ~f:(fun tc ->
            List.map Race.race_to_string (races tc)))
  in
  let reference = reports 1 in
  List.iter
    (fun j ->
      List.iteri
        (fun i rs ->
          Alcotest.(check (list string))
            (Printf.sprintf "-j %d kernel %d" j i)
            (List.nth reference i) rs)
        (reports j))
    [ 2; 4 ]

let test_benchmark_races () =
  List.iter
    (fun (b : Suite.benchmark) ->
      let found = races (b.Suite.testcase ()) <> [] in
      Alcotest.(check bool)
        (Printf.sprintf "%s racy=%b" b.Suite.name b.Suite.racy)
        b.Suite.racy found)
    Suite.all

(* --- the schedule witness --- *)

(* a kernel's run under [schedule]: plain, then witnessed *)
let witnessed ?(fuel = Interp.default_config.Interp.fuel) label tc schedule =
  let config = { Interp.default_config with Interp.schedule; fuel } in
  let code = Interp.compile tc.Ast.prog in
  let plain = Interp.exec ~config ~profile:true code tc in
  let r, certified = Interp.exec_witnessed ~config ~profile:true code tc in
  Alcotest.(check bool)
    (Printf.sprintf "%s under %s: witnessed run = plain run" label
       (Sched.to_string schedule))
    true (r = plain);
  (Outcome.to_string plain.Interp.outcome, certified)

(* each kernel's plain result differs between two configurations'
   schedules, so a certificate would be wrong: the witness gives none *)
let test_witness_refuses () =
  List.iter
    (fun (label, tc) ->
      let runs =
        List.map
          (witnessed ~fuel:Sched_kernels.fuel label tc)
          Sched_kernels.schedules
      in
      Alcotest.(check bool) (label ^ ": result depends on the schedule") true
        Stdlib.(List.length (List.sort_uniq compare (List.map fst runs)) >= 2);
      Alcotest.(check bool) (label ^ ": certifies under no schedule") false
        (List.exists snd runs))
    Sched_kernels.all

(* race-free generated kernels certify under every schedule, with one
   result *)
let test_witness_certifies () =
  List.iter
    (fun mode ->
      for seed = 900 to 902 do
        let tc, _ = Generate.generate ~cfg:(Gen_config.scaled mode) ~seed () in
        let label = Printf.sprintf "%s seed %d" (Gen_config.mode_name mode) seed in
        let runs = List.map (witnessed label tc) Sched_kernels.schedules in
        Alcotest.(check bool) (label ^ ": certifies under every schedule") true
          (List.for_all snd runs);
        Alcotest.(check int) (label ^ ": one result") 1
          (List.length (List.sort_uniq compare (List.map fst runs)))
      done)
    [ Gen_config.Basic; Gen_config.Vector; Gen_config.Barrier ]

let () =
  Alcotest.run "race"
    [
      ( "detector",
        [
          Alcotest.test_case "same-epoch ww" `Quick test_same_epoch_write_write;
          Alcotest.test_case "barrier separates" `Quick test_barrier_separates;
          Alcotest.test_case "read/read" `Quick test_reads_never_race;
          Alcotest.test_case "atomics" `Quick test_atomic_writes_safe;
          Alcotest.test_case "cross-group" `Quick test_cross_group;
          Alcotest.test_case "same thread" `Quick test_same_thread_never;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "racy kernel" `Quick test_racy_kernel_detected;
          Alcotest.test_case "disjoint slots" `Quick test_disjoint_slots_clean;
          Alcotest.test_case "generated kernels race-free" `Slow
            test_generated_kernels_race_free;
          Alcotest.test_case "spmv/myocyte rediscovered" `Quick test_benchmark_races;
          Alcotest.test_case "detection -j independent under pool" `Slow
            test_detection_pool_j_independent;
        ] );
      ( "witness",
        [
          Alcotest.test_case "schedule-dependent never certify" `Quick
            test_witness_refuses;
          Alcotest.test_case "race-free generated certify" `Quick
            test_witness_certifies;
        ] );
    ]
