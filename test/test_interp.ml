(* The reference device: NDRange execution, memory spaces, barriers,
   divergence and crash detection, unions, atomics, quirk profiles. *)

open Build

let run ?config tc = Interp.run_outcome ?config tc

let success = function
  | Outcome.Success s -> s
  | o -> Alcotest.failf "expected success, got %s" (Outcome.to_string o)

let k body = kernel1 "k" body
let grid2 prog = testcase ~gsize:(2, 1, 1) ~lsize:(2, 1, 1) prog
let store e = assign (idx (v "out") tid_linear) (cast Ty.ulong e)

let test_thread_identities () =
  (* out[t] = t for a 2x3 grid in two groups *)
  let prog = k [ store tid_linear ] in
  let tc = testcase ~gsize:(6, 1, 1) ~lsize:(3, 1, 1) prog in
  Alcotest.(check string) "identities" "out: 0,1,2,3,4,5" (success (run tc));
  let prog = k [ store lid_linear ] in
  let tc = testcase ~gsize:(6, 1, 1) ~lsize:(3, 1, 1) prog in
  Alcotest.(check string) "local ids" "out: 0,1,2,0,1,2" (success (run tc));
  let prog = k [ store (Ast.Thread_id Op.Group_linear_id) ] in
  let tc = testcase ~gsize:(6, 1, 1) ~lsize:(3, 1, 1) prog in
  Alcotest.(check string) "group ids" "out: 0,0,0,1,1,1" (success (run tc))

let test_3d_linearisation () =
  (* t_linear = (tz*Ny + ty)*Nx + tx, cf. section 3.1 *)
  let prog =
    k
      [
        store
          (Ast.Binop
             ( Op.Add,
               Ast.Binop
                 ( Op.Mul,
                   Ast.Binop
                     ( Op.Add,
                       Ast.Binop
                         (Op.Mul, Ast.Thread_id (Op.Global_id Op.Z), cul 2L),
                       Ast.Thread_id (Op.Global_id Op.Y) ),
                   cul 2L ),
               Ast.Thread_id (Op.Global_id Op.X) ));
      ]
  in
  let tc = testcase ~gsize:(2, 2, 2) ~lsize:(1, 1, 1) prog in
  Alcotest.(check string) "recomputed linear ids" "out: 0,1,2,3,4,5,6,7"
    (success (run tc))

let test_local_memory_isolated_per_group () =
  (* each group's master writes its group id into local memory; all threads
     of the group read it after a barrier *)
  let prog =
    k
      [
        decl ~space:Ty.Local "sh" Ty.uint;
        if_ (lid_linear == ci 0)
          [ assign (v "sh") (Ast.Thread_id Op.Group_linear_id) ];
        barrier;
        store (v "sh");
      ]
  in
  let tc = testcase ~gsize:(4, 1, 1) ~lsize:(2, 1, 1) prog in
  Alcotest.(check string) "per-group local memory" "out: 0,0,1,1" (success (run tc))

let test_barrier_divergence_detected () =
  let prog =
    k
      [
        if_ (lid_linear == ci 0) [ barrier ];
        store (ci 0);
      ]
  in
  let tc = testcase ~gsize:(2, 1, 1) ~lsize:(2, 1, 1) prog in
  match run tc with
  | Outcome.Ub m ->
      Alcotest.(check bool) "mentions divergence" true
        Stdlib.(String.length m > 0)
  | o -> Alcotest.failf "expected divergence, got %s" (Outcome.to_string o)

let test_barrier_sites_are_occurrences () =
  (* threads at two different barrier statements diverge even when both
     statements are the same shared value ([barrier] is one constant);
     identical printed kernels must give identical outcomes *)
  List.iter
    (fun (label, b1, b2) ->
      let prog = k [ if_else (lid_linear == ci 0) [ b1 ] [ b2 ]; store (ci 0) ] in
      match run (grid2 prog) with
      | Outcome.Ub m ->
          Alcotest.(check string) label
            "barrier divergence: threads arrived at different barriers or \
             iterations"
            m
      | o -> Alcotest.failf "%s: expected divergence, got %s" label (Outcome.to_string o))
    [
      ("shared barrier value", barrier, barrier);
      ("distinct barrier values", barrier_f Op.F_local, barrier_f Op.F_local);
    ]

let test_divergent_iteration_counts () =
  (* both threads reach *a* barrier but with different loop trip counts *)
  let prog =
    k
      [
        decle "n" Ty.int (cast Ty.int lid_linear + ci 1);
        for_
          ~init:(decle "i" Ty.int (ci 0))
          ~cond:(v "i" < v "n")
          ~update:(assign_op Op.Add (v "i") (ci 1))
          [ barrier ];
        store (ci 0);
      ]
  in
  let tc = testcase ~gsize:(2, 1, 1) ~lsize:(2, 1, 1) prog in
  match run tc with
  | Outcome.Ub _ -> ()
  | o -> Alcotest.failf "expected divergence, got %s" (Outcome.to_string o)

let test_out_of_bounds_crash () =
  let prog =
    k
      [
        decl ~init:(il [ ie (ci 1); ie (ci 2); ie (ci 3) ]) "a" (Ty.Arr (Ty.int, 3));
        assign (idx (v "a") (ci 5)) (ci 1);
        store (ci 0);
      ]
  in
  match run (testcase prog) with
  | Outcome.Crash m ->
      Alcotest.(check bool) "mentions bounds" true
        Stdlib.(String.length m > 0)
  | o -> Alcotest.failf "expected crash, got %s" (Outcome.to_string o)

let test_null_deref_crash () =
  let prog =
    k
      [
        decle "p" (Ty.Ptr (Ty.Private, Ty.int)) (ci 0);
        store (deref (v "p"));
      ]
  in
  match run (testcase prog) with
  | Outcome.Crash _ -> ()
  | o -> Alcotest.failf "expected crash, got %s" (Outcome.to_string o)

let test_fuel_timeout () =
  let prog = k [ while_ (ci 1) []; store (ci 0) ] in
  match run (testcase prog) with
  | Outcome.Timeout -> ()
  | o -> Alcotest.failf "expected timeout, got %s" (Outcome.to_string o)

let test_atomics_sum () =
  (* every thread atomically adds its local id + 1 to a shared counter;
     master publishes after a barrier *)
  let prog =
    k
      [
        decl ~space:Ty.Local ~volatile:true "c" Ty.uint;
        if_ (lid_linear == ci 0) [ assign (v "c") (cu 0) ];
        barrier;
        expr
          (Ast.Atomic (Op.A_add, addr (v "c"), [ cast Ty.uint lid_linear + cu 1 ]));
        barrier;
        store (v "c");
      ]
  in
  let tc = testcase ~gsize:(4, 1, 1) ~lsize:(4, 1, 1) prog in
  Alcotest.(check string) "1+2+3+4" "out: 10,10,10,10" (success (run tc))

let test_atomic_cmpxchg () =
  let prog =
    k
      [
        decl ~space:Ty.Local ~volatile:true "c" Ty.uint;
        if_ (lid_linear == ci 0) [ assign (v "c") (cu 7) ];
        barrier;
        decle "old" Ty.uint (Ast.Atomic (Op.A_cmpxchg, addr (v "c"), [ cu 7; cu 9 ]));
        barrier;
        store (v "c");
      ]
  in
  let tc = testcase prog in
  Alcotest.(check string) "exchange applied" "out: 9" (success (run tc))

let test_union_type_punning () =
  (* writing through .b (short,long) then reading .a (uint) reinterprets *)
  let s = struct_ "S" [ sfield "c" Ty.short; sfield "d" Ty.long ] in
  let u = union_ "U" [ sfield "a" Ty.uint; sfield "b" (Ty.Named "S") ] in
  let prog =
    kernel1 ~aggregates:[ s; u ] "k"
      [
        decl "u" (Ty.Named "U");
        assign (field (field (v "u") "b") "c") (ci 0x0102);
        store (field (v "u") "a");
      ]
  in
  Alcotest.(check string) "low bytes visible through a" "out: 258"
    (success (run (testcase prog)))

let test_function_calls_and_pointers () =
  let f =
    func "bump" Ty.int
      [ ("p", Ty.Ptr (Ty.Private, Ty.int)) ]
      [ assign (deref (v "p")) (deref (v "p") + ci 1); ret (deref (v "p")) ]
  in
  let prog =
    kernel1 ~funcs:[ f ] "k"
      [
        decle "x" Ty.int (ci 40);
        expr (call "bump" [ addr (v "x") ]);
        expr (call "bump" [ addr (v "x") ]);
        store (v "x");
      ]
  in
  Alcotest.(check string) "pointer side effects" "out: 42"
    (success (run (testcase prog)))

let test_schedule_independence_of_barrier_comm () =
  (* neighbour exchange through local memory: the textbook deterministic
     communication pattern *)
  let prog =
    k
      [
        decl ~space:Ty.Local "a" (Ty.Arr (Ty.uint, 4));
        assign (idx (v "a") lid_linear) (cast Ty.uint lid_linear * cu 10);
        barrier;
        store (idx (v "a") (Ast.Binop (Op.Mod, cast Ty.uint lid_linear + cu 1, cu 4)));
      ]
  in
  let tc = testcase ~gsize:(4, 1, 1) ~lsize:(4, 1, 1) prog in
  let outs = List.map (fun s -> run ~config:{ Interp.default_config with Interp.schedule = s } tc) Sched.all_for_testing in
  match outs with
  | first :: rest ->
      Alcotest.(check string) "value" "out: 10,20,30,0" (success first);
      List.iter
        (fun o -> Alcotest.(check bool) "schedule independent" true (Outcome.equal first o))
        rest
  | [] -> ()

let test_quirk_profiles () =
  (* comma-first: Fig. 2(f) semantics *)
  let prog = k [ store (comma (ci 5) (ci 9)) ] in
  let tc = testcase prog in
  Alcotest.(check string) "comma standard" "out: 9" (success (run tc));
  let cfg =
    { Interp.default_config with
      Interp.profile = { Profile.reference with Profile.comma = Profile.Comma_first } }
  in
  Alcotest.(check string) "comma-first quirk" "out: 5" (success (run ~config:cfg tc))

let () =
  Alcotest.run "interp"
    [
      ( "execution",
        [
          Alcotest.test_case "thread identities" `Quick test_thread_identities;
          Alcotest.test_case "3d linearisation" `Quick test_3d_linearisation;
          Alcotest.test_case "local memory per group" `Quick
            test_local_memory_isolated_per_group;
          Alcotest.test_case "atomics sum" `Quick test_atomics_sum;
          Alcotest.test_case "cmpxchg" `Quick test_atomic_cmpxchg;
          Alcotest.test_case "union punning" `Quick test_union_type_punning;
          Alcotest.test_case "calls and pointers" `Quick test_function_calls_and_pointers;
          Alcotest.test_case "schedule independence" `Quick
            test_schedule_independence_of_barrier_comm;
          Alcotest.test_case "quirk profiles" `Quick test_quirk_profiles;
        ] );
      ( "failure modes",
        [
          Alcotest.test_case "divergence detection" `Quick test_barrier_divergence_detected;
          Alcotest.test_case "divergent iterations" `Quick test_divergent_iteration_counts;
          Alcotest.test_case "barrier sites are occurrences" `Quick
            test_barrier_sites_are_occurrences;
          Alcotest.test_case "out of bounds" `Quick test_out_of_bounds_crash;
          Alcotest.test_case "null deref" `Quick test_null_deref_crash;
          Alcotest.test_case "fuel timeout" `Quick test_fuel_timeout;
        ] );
    ]
