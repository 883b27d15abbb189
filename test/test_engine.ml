(* Differential oracle for the compiled interpreter: the tree-walker it
   replaced (walker.ml) and the engine run the same inputs under the same
   configs, and must agree on outcome, races, work stats (steps, barriers,
   atomics, race checks — including where fuel runs out) and the cost
   profile, construct for construct.

   None of these inputs places one physical barrier value at two sites
   that threads reach divergently, the one case where the walker's
   identity-based rendezvous rule differs from the engine's numbering
   (test_interp checks the engine's rule on that case). *)

open Build

let detecting = { Interp.default_config with Interp.detect_races = true }

let outcome_str = Outcome.to_string
let races_str rs = List.map Race.race_to_string rs

let construct_str (c : Costprof.construct) =
  Printf.sprintf "%d %s %s %d" c.loc c.kind c.path c.n

(* compare one input; returns the engine's outcome *)
let agree ?(config = Interp.default_config) label (tc : Ast.testcase) =
  let code = Interp.compile tc.Ast.prog in
  let e = Interp.exec ~config ~profile:true code tc in
  let w = Walker.run ~config tc in
  (* profiling only counts: the run is the same without it *)
  let plain = Interp.exec ~config code tc in
  Alcotest.(check bool) (label ^ ": unprofiled run") true
    (plain.outcome = e.outcome && plain.races = e.races && plain.stats = e.stats);
  let check_int what a b = Alcotest.(check int) (label ^ ": " ^ what) a b in
  Alcotest.(check string) (label ^ ": outcome") (outcome_str w.outcome)
    (outcome_str e.outcome);
  Alcotest.(check (list string)) (label ^ ": races") (races_str w.races)
    (races_str e.races);
  check_int "steps" w.stats.steps e.stats.steps;
  check_int "barriers" w.stats.barriers e.stats.barriers;
  check_int "atomics" w.stats.atomics e.stats.atomics;
  check_int "race checks" w.stats.race_checks e.stats.race_checks;
  let table = Costwalk.build tc.Ast.prog in
  Alcotest.(check (list string)) (label ^ ": profile")
    (List.map construct_str (Costwalk.constructs table w.ticks))
    (List.map construct_str (Interp.constructs code e.ticks));
  e.outcome

(* ------------------------------------------------------------------ *)
(* Hand-built inputs: the kernels of test_interp and test_race         *)
(* ------------------------------------------------------------------ *)

let k body = kernel1 "k" body
let store e = assign (idx (v "out") tid_linear) (cast Ty.ulong e)
let grid2 prog = testcase ~gsize:(2, 1, 1) ~lsize:(2, 1, 1) prog
let grid4 prog = testcase ~gsize:(4, 1, 1) ~lsize:(4, 1, 1) prog

let comma_first =
  {
    Interp.default_config with
    Interp.profile = { Profile.reference with Profile.comma = Profile.Comma_first };
  }

let hand_built () =
  let s = struct_ "S" [ sfield "c" Ty.short; sfield "d" Ty.long ] in
  let u = union_ "U" [ sfield "a" Ty.uint; sfield "b" (Ty.Named "S") ] in
  let bump =
    func "bump" Ty.int
      [ ("p", Ty.Ptr (Ty.Private, Ty.int)) ]
      [ assign (deref (v "p")) (deref (v "p") + ci 1); ret (deref (v "p")) ]
  in
  let six prog = testcase ~gsize:(6, 1, 1) ~lsize:(3, 1, 1) prog in
  let exchange =
    grid4
      (k
         [
           decl ~space:Ty.Local "a" (Ty.Arr (Ty.uint, 4));
           assign (idx (v "a") lid_linear) (cast Ty.uint lid_linear * cu 10);
           barrier;
           store
             (idx (v "a") (Ast.Binop (Op.Mod, cast Ty.uint lid_linear + cu 1, cu 4)));
         ])
  in
  let comma_tc = testcase (k [ store (comma (ci 5) (ci 9)) ]) in
  [
    ("thread ids", six (k [ store tid_linear ]), None);
    ("local ids", six (k [ store lid_linear ]), None);
    ("group ids", six (k [ store (Ast.Thread_id Op.Group_linear_id) ]), None);
    ( "3d linearisation",
      testcase ~gsize:(2, 2, 2) ~lsize:(1, 1, 1)
        (k
           [
             store
               (((Ast.Thread_id (Op.Global_id Op.Z) * cul 2L)
                + Ast.Thread_id (Op.Global_id Op.Y))
                * cul 2L
               + Ast.Thread_id (Op.Global_id Op.X));
           ]),
      None );
    ( "local memory per group",
      testcase ~gsize:(4, 1, 1) ~lsize:(2, 1, 1)
        (k
           [
             decl ~space:Ty.Local "sh" Ty.uint;
             if_ (lid_linear == ci 0)
               [ assign (v "sh") (Ast.Thread_id Op.Group_linear_id) ];
             barrier;
             store (v "sh");
           ]),
      None );
    ( "divergence",
      grid2 (k [ if_ (lid_linear == ci 0) [ barrier ]; store (ci 0) ]),
      None );
    ( "divergent iterations",
      grid2
        (k
           [
             decle "n" Ty.int (cast Ty.int lid_linear + ci 1);
             for_
               ~init:(decle "i" Ty.int (ci 0))
               ~cond:(v "i" < v "n")
               ~update:(assign_op Op.Add (v "i") (ci 1))
               [ barrier ];
             store (ci 0);
           ]),
      None );
    ( "out of bounds",
      testcase
        (k
           [
             decl ~init:(il [ ie (ci 1); ie (ci 2); ie (ci 3) ]) "a"
               (Ty.Arr (Ty.int, 3));
             assign (idx (v "a") (ci 5)) (ci 1);
             store (ci 0);
           ]),
      None );
    ( "null deref",
      testcase
        (k [ decle "p" (Ty.Ptr (Ty.Private, Ty.int)) (ci 0); store (deref (v "p")) ]),
      None );
    ("fuel timeout", testcase (k [ while_ (ci 1) []; store (ci 0) ]), None);
    ( "atomics sum",
      grid4
        (k
           [
             decl ~space:Ty.Local ~volatile:true "c" Ty.uint;
             if_ (lid_linear == ci 0) [ assign (v "c") (cu 0) ];
             barrier;
             expr
               (Ast.Atomic
                  (Op.A_add, addr (v "c"), [ cast Ty.uint lid_linear + cu 1 ]));
             barrier;
             store (v "c");
           ]),
      None );
    ( "cmpxchg",
      testcase
        (k
           [
             decl ~space:Ty.Local ~volatile:true "c" Ty.uint;
             if_ (lid_linear == ci 0) [ assign (v "c") (cu 7) ];
             barrier;
             decle "old" Ty.uint
               (Ast.Atomic (Op.A_cmpxchg, addr (v "c"), [ cu 7; cu 9 ]));
             barrier;
             store (v "c");
           ]),
      None );
    ( "union punning",
      testcase
        (kernel1 ~aggregates:[ s; u ] "k"
           [
             decl "u" (Ty.Named "U");
             assign (field (field (v "u") "b") "c") (ci 0x0102);
             store (field (v "u") "a");
           ]),
      None );
    ( "calls and pointers",
      testcase
        (kernel1 ~funcs:[ bump ] "k"
           [
             decle "x" Ty.int (ci 40);
             expr (call "bump" [ addr (v "x") ]);
             expr (call "bump" [ addr (v "x") ]);
             store (v "x");
           ]),
      None );
    ("comma", comma_tc, None);
    ("comma-first quirk", comma_tc, Some comma_first);
    ( "racy kernel",
      grid2
        (k
           [
             decl ~space:Ty.Local "sh" Ty.uint;
             assign (v "sh") (cast Ty.uint lid_linear);
             barrier;
             store (v "sh");
           ]),
      Some detecting );
    ( "disjoint slots",
      grid2
        (k
           [
             decl ~space:Ty.Local "a" (Ty.Arr (Ty.uint, 2));
             assign (idx (v "a") lid_linear) (cu 1);
             barrier;
             store (idx (v "a") (ci 0));
           ]),
      Some detecting );
  ]
  @ List.map
      (fun s ->
        ( "exchange " ^ Sched.to_string s,
          exchange,
          Some { Interp.default_config with Interp.schedule = s } ))
      Sched.all_for_testing

let test_hand_built () =
  List.iter (fun (label, tc, config) -> ignore (agree ?config label tc)) (hand_built ())

(* ------------------------------------------------------------------ *)
(* Fused access chains: every shape a fused closure hands over to the  *)
(* generic closures, and the fused paths in shared memory              *)
(* ------------------------------------------------------------------ *)

let crashes = function Outcome.Crash _ -> true | _ -> false
let succeeds = function Outcome.Success _ -> true | _ -> false

let handoffs () =
  let s = struct_ "S" [ sfield "c" Ty.short; sfield "d" Ty.long ] in
  let u = union_ "U" [ sfield "a" Ty.uint; sfield "b" (Ty.Named "S") ] in
  let t = struct_ "T" [ sfield "n" Ty.int; sfield "a" (Ty.Arr (Ty.int, 3)) ] in
  let spin = func "spin" Ty.int [] [ while_ (ci 1) []; ret (ci 0) ] in
  let kt body = kernel1 ~aggregates:[ s; u; t ] ~funcs:[ spin ] "k" body in
  let ptr sp name = Ty.Ptr (sp, Ty.Named name) in
  let pt = decl "t" (Ty.Named "T") :: [ decle "p" (ptr Ty.Private "T") (addr (v "t")) ] in
  let member_elem i = idx (field (deref (v "p")) "a") i in
  let ints = decl ~init:(il [ ie (ci 5); ie (ci 6); ie (ci 7) ]) "a" (Ty.Arr (Ty.int, 3)) in
  [
    ( "(*p).f into a union",
      testcase
        (kt
           [
             decl "u" (Ty.Named "U");
             decle "p" (ptr Ty.Private "U") (addr (v "u"));
             assign (field (deref (v "p")) "a") (cu 0x01020304);
             assign (field (field (deref (v "p")) "b") "c") (ci 7);
             store (field (deref (v "p")) "a" + field (field (deref (v "p")) "b") "c");
           ]),
      succeeds );
    ( "(*p).f and *p on arrays",
      testcase
        (kt
           [
             decl
               ~init:(il [ il [ ie (ci 1); ie (ci 2) ]; il [ ie (ci 3); ie (ci 4) ] ])
               "arr" (Ty.Arr (Ty.Named "S", 2));
             decle "p" (ptr Ty.Private "S") (addr (v "arr"));
             assign (field (deref (v "p")) "c") (ci 9);
             ints;
             decle "q" (Ty.Ptr (Ty.Private, Ty.int)) (addr (v "a"));
             store
               (field (deref (v "p")) "c"
               + field (idx (v "arr") (ci 1)) "d"
               + deref (v "q"));
           ]),
      succeeds );
    ( "p[i] on pointer variables",
      testcase
        (kt
           [
             ints;
             decle "p" (Ty.Ptr (Ty.Private, Ty.Arr (Ty.int, 3))) (addr (v "a"));
             assign (idx (v "p") (ci 2)) (ci 70);
             store (idx (v "p") (ci 1) + idx (v "p") (ci 2) + idx (v "a") (ci 0));
             store (idx (v "out") tid_linear + ci 1);
           ]),
      succeeds );
    ( "(*p).a[i] in range",
      testcase
        (kt
           (pt
           @ [
               assign (member_elem (ci 2)) (ci 4);
               store (member_elem (ci 2) + field (deref (v "p")) "n");
             ])),
      succeeds );
    ( "(*p).a[i] read out of range",
      testcase (kt (pt @ [ store (member_elem (ci 3)) ])),
      crashes );
    ( "(*p).a[i] written out of range",
      testcase (kt (pt @ [ assign (member_elem (ci (-1))) (ci 4); store (ci 0) ])),
      crashes );
    ("x[i] read out of range", testcase (kt [ ints; store (idx (v "a") (ci 3)) ]), crashes);
    ( "fuel runs out in a fused read's index",
      testcase (kt (pt @ [ store (member_elem (call "spin" [])) ])),
      fun o -> o = Outcome.Timeout );
    ( "fuel runs out in x[i]'s index",
      testcase (kt [ ints; store (idx (v "a") (call "spin" [])) ]),
      fun o -> o = Outcome.Timeout );
    ( "(*p).f in local and global memory",
      grid2
        (kt
           [
             decl ~space:Ty.Local "ls" (Ty.Named "S");
             decle "lp" (ptr Ty.Local "S") (addr (v "ls"));
             if_ (lid_linear == ci 0) [ assign (field (deref (v "lp")) "d") (ci 11) ];
             barrier;
             decl ~space:Ty.Global "gs" (Ty.Named "S");
             decle "gp" (ptr Ty.Global "S") (addr (v "gs"));
             assign (field (deref (v "gp")) "c") (cast Ty.short lid_linear);
             store (field (deref (v "lp")) "d" + field (deref (v "gp")) "c");
           ]),
      succeeds );
    ( "(*p).f racing in local memory",
      grid2
        (kt
           [
             decl ~space:Ty.Local "ls" (Ty.Named "S");
             decle "lp" (ptr Ty.Local "S") (addr (v "ls"));
             assign (field (deref (v "lp")) "c") (cast Ty.short lid_linear);
             store (field (deref (v "lp")) "c");
           ]),
      succeeds );
  ]

(* the one kernel above whose race detector must fire *)
let racy = "(*p).f racing in local memory"

(* each against the walker with races off and on; [agree] runs both
   profiled and unprofiled. The expected outcome proves the kernel
   reaches the shape it is named for. *)
let test_handoffs () =
  List.iter
    (fun (label, tc, expect) ->
      let plain = agree label tc in
      Alcotest.(check bool) (label ^ ": outcome") true (expect plain);
      let raced = agree ~config:detecting (label ^ ", races on") tc in
      Alcotest.(check bool) (label ^ ": races on") true
        (if String.equal label racy then
           match raced with Outcome.Ub _ -> true | _ -> false
         else raced = plain))
    (handoffs ())

let test_benchmarks () =
  List.iter
    (fun (b : Suite.benchmark) ->
      ignore (agree ~config:detecting b.Suite.name (b.Suite.testcase ())))
    Suite.all

(* every exhibit under every configuration it documents, as the driver
   runs the cell, with and without transient faults *)
let test_exhibits () =
  List.iter
    (fun (ex : Exhibit.t) ->
      let p = Driver.prepare ex.testcase in
      List.iter
        (fun (id, opt) ->
          List.iter
            (fun noise ->
              match Driver.cell_program ~noise (Config.find id) ~opt p with
              | None -> ()
              | Some (prog, config) ->
                  ignore
                    (agree ~config
                       (Printf.sprintf "%s on %d%c" ex.label id (if opt then '+' else '-'))
                       { ex.testcase with Ast.prog }))
            [ true; false ])
        (fst ex.shows))
    Exhibit.all

(* test_race's generated kernels, races on *)
let test_race_kernels () =
  List.iter
    (fun mode ->
      List.iter
        (fun seed ->
          let tc, info = Generate.generate ~cfg:(Gen_config.scaled mode) ~seed () in
          if not info.Generate.counter_sharing then
            ignore
              (agree ~config:detecting
                 (Printf.sprintf "%s seed %d" (Gen_config.mode_name mode) seed)
                 tc))
        ([ 900; 901; 902; 903; 904; 905; 906 ]
        @ if mode = Gen_config.Barrier then [ 910; 911; 912 ] else []))
    Gen_config.all_modes

let test_emi_inverted () =
  let base, info =
    Generate.generate ~emi:true ~cfg:(Gen_config.scaled Gen_config.All) ~seed:6 ()
  in
  Alcotest.(check bool) "has EMI blocks" true (info.Generate.emi_block_ids <> []);
  ignore (agree "emi base" base);
  ignore (agree "emi inverted" (Variant.invert_dead base))

(* ------------------------------------------------------------------ *)
(* Generated inputs: every configuration and opt level, as its cell    *)
(* ------------------------------------------------------------------ *)

(* low enough that the longer kernels time out part-way *)
let fuel = 4_000

let kernel mode seed =
  let rec pick s =
    let tc, info = Generate.generate ~cfg:(Gen_config.scaled mode) ~seed:s () in
    if info.Generate.counter_sharing then pick (Stdlib.( + ) s 1) else tc
  in
  pick seed

let cells mode seed =
  let tc = kernel mode seed in
  let p = Driver.prepare tc in
  List.concat_map
    (fun (c : Config.t) ->
      List.filter_map
        (fun opt ->
          Option.map
            (fun (prog, config) ->
              ( Printf.sprintf "%s seed %d on %d%c" (Gen_config.mode_name mode) seed
                  c.Config.id (if opt then '+' else '-'),
                { tc with Ast.prog },
                config ))
            (Driver.cell_program ~fuel c ~opt p))
        [ false; true ])
    Config.all

let test_generated () =
  let outcomes =
    List.concat_map
      (fun mode ->
        List.map
          (fun (label, tc, config) -> agree ~config label tc)
          (cells mode 2024))
      Gen_config.all_modes
  in
  let count f = List.length (List.filter f outcomes) in
  (* both the fuel-exhaustion point and completed runs are compared *)
  Alcotest.(check bool) "some cells time out" true
    Stdlib.(count (fun o -> o = Outcome.Timeout) > 0);
  Alcotest.(check bool) "some cells complete" true
    Stdlib.(count (function Outcome.Success _ -> true | _ -> false) > 0)

(* The run memo of a prepared kernel is invisible: every cell of the grid
   run on one shared prepared kernel — first unprofiled, then profiled,
   then at more fuel, then with the transient faults (and so their
   quirks) off, in grid order and reversed — gives the outcome, stats and
   cost-profile cell a fresh prepare gives that cell. A memo key that
   missed the fuel, the profiling flag or the quirk profile would hand
   some cell another cell's run. *)
let result_str (o, (st : Interp.stats)) =
  String.concat "\n"
    (Printf.sprintf "%s steps=%d barriers=%d atomics=%d race_checks=%d"
       (outcome_str o) st.steps st.barriers st.atomics st.race_checks
    :: List.concat_map
         (fun (c : Costprof.cell) ->
           Printf.sprintf "cost cell %s %d%s ticks=%d" c.khash c.config c.opt c.ticks
           :: List.map construct_str c.constructs)
         st.prof)

let test_run_memo () =
  let grid =
    List.concat_map (fun c -> [ (c, false); (c, true) ]) Config.all
  in
  (* (transient faults?, profiled?, fuel, cell order) *)
  let passes =
    [
      (true, false, fuel, grid);
      (true, true, fuel, grid);
      (true, true, 20_000, List.rev grid);
      (false, true, 20_000, grid);
      (true, true, fuel, List.rev grid);
    ]
  in
  Fun.protect ~finally:Costprof.disable @@ fun () ->
  List.iter
    (fun mode ->
      let tc = kernel mode 2024 in
      let shared = Driver.prepare tc in
      List.iter
        (fun (noise, profiling, fuel, order) ->
          if profiling then Costprof.enable () else Costprof.disable ();
          List.iter
            (fun ((c : Config.t), opt) ->
              let label =
                Printf.sprintf "%s on %d%c, fuel %d%s%s" (Gen_config.mode_name mode)
                  c.Config.id (if opt then '+' else '-') fuel
                  (if profiling then ", profiled" else "")
                  (if noise then "" else ", no transient faults")
              in
              let run p = result_str (Driver.run_prepared_stats ~noise ~fuel c ~opt p) in
              Alcotest.(check string) label (run (Driver.prepare tc)) (run shared))
            order)
        passes)
    Gen_config.all_modes

(* The same on kernels whose result depends on the schedule: a cell whose
   group's run does not certify runs its own config. Each kernel has two
   cells that the memo groups (one program, one config up to its
   schedule) with different results under a fresh prepare, so a group
   served by a run it should not have been would show. *)
let test_run_memo_schedules () =
  let grid = List.concat_map (fun c -> [ (c, false); (c, true) ]) Config.all in
  Fun.protect ~finally:Costprof.disable @@ fun () ->
  List.iter
    (fun (label, tc) ->
      let fuel = Sched_kernels.fuel in
      let cell (c, opt) p = result_str (Driver.run_prepared_stats ~fuel c ~opt p) in
      let planned = Driver.prepare tc in
      let group (c, opt) =
        Option.map
          (fun (prog, config) ->
            (prog, { config with Interp.schedule = Sched.default }))
          (Driver.cell_program ~fuel c ~opt planned)
      in
      let fresh = List.map (fun co -> (group co, cell co (Driver.prepare tc))) grid in
      let split =
        List.exists
          (fun (ga, ra) ->
            List.exists
              (fun (gb, rb) ->
                match (ga, gb) with
                | Some (pa, ca), Some (pb, cb) ->
                    Stdlib.(pa == pb && ca = cb && ra <> rb)
                | _ -> false)
              fresh)
          fresh
      in
      Alcotest.(check bool) (label ^ ": a group's cells differ") true split;
      List.iter
        (fun (profiling, order) ->
          if profiling then Costprof.enable () else Costprof.disable ();
          let shared = Driver.prepare tc in
          List.iter
            (fun ((c : Config.t), opt) ->
              Alcotest.(check string)
                (Printf.sprintf "%s on %d%c%s" label c.Config.id
                   (if opt then '+' else '-')
                   (if profiling then ", profiled" else ""))
                (cell (c, opt) (Driver.prepare tc))
                (cell (c, opt) shared))
            order)
        [ (false, grid); (true, List.rev grid) ])
    Sched_kernels.all

let prop_generated =
  QCheck.Test.make ~count:30 ~name:"engine = walker on a random cell"
    QCheck.(quad (int_bound 10_000) (int_bound 5) (int_bound 20) bool)
    (fun (seed, m, c, opt) ->
      let mode = List.nth Gen_config.all_modes m in
      let tc = kernel mode seed in
      (match
         Driver.cell_program ~fuel:20_000 (List.nth Config.all c) ~opt
           (Driver.prepare tc)
       with
      | None -> ()
      | Some (prog, config) -> ignore (agree ~config "random cell" { tc with Ast.prog }));
      true)

let () =
  Alcotest.run "engine"
    [
      ( "hand-built",
        [
          Alcotest.test_case "interp and race kernels" `Quick test_hand_built;
          Alcotest.test_case "fused chains' hand-offs" `Quick test_handoffs;
          Alcotest.test_case "benchmark ports, races on" `Quick test_benchmarks;
          Alcotest.test_case "figure 1/2 exhibits" `Quick test_exhibits;
          Alcotest.test_case "test_race's generated kernels" `Quick test_race_kernels;
          Alcotest.test_case "EMI variant, dead inverted" `Quick test_emi_inverted;
        ] );
      ( "generated",
        [
          Alcotest.test_case "6 modes x 21 configs x 2 opt levels" `Quick
            test_generated;
          Alcotest.test_case "run memo = fresh prepare per cell" `Quick test_run_memo;
          Alcotest.test_case "run memo on schedule-dependent kernels" `Quick
            test_run_memo_schedules;
          QCheck_alcotest.to_alcotest prop_generated;
        ] );
    ]
