(* Hand-built kernels whose result depends on the thread schedule, for
   the schedule witness (test_race) and the run memo (test_engine). Each
   runs one group of four threads in which thread 0 writes a local
   location that the other threads use within the same barrier epoch, so
   what they compute depends on where the schedule puts thread 0. *)

open Build

let s = struct_ "S" [ sfield "f" Ty.uint; sfield "g" Ty.uint ]
let t = struct_ "T" [ sfield "n" Ty.uint; sfield "a" (Ty.Arr (Ty.uint, 3)) ]
let k body = kernel1 ~aggregates:[ s; t ] "k" body
let store e = assign (idx (v "out") tid_linear) (cast Ty.ulong e)
let first = lid_linear == ci 0
let local ?volatile name ty = decl ?volatile ~space:Ty.Local name ty
let ptr_to ty name = decle "p" (Ty.Ptr (Ty.Local, ty)) (addr (v name))
let uint4 = Ty.Vector ({ Ty.width = Ty.W32; sign = Ty.Unsigned }, Ty.V4)

(* thread 0 writes [lv]; every thread then reads it *)
let publish decls lv = k (decls @ [ if_ first [ assign lv (cu 7) ]; store lv ])

let all =
  List.map
    (fun (label, prog) -> (label, testcase ~gsize:(4, 1, 1) ~lsize:(4, 1, 1) prog))
    [
      ( "atomic ticket",
        k
          [
            local ~volatile:true "c" Ty.uint;
            store (Ast.Atomic (Op.A_inc, addr (v "c"), []));
          ] );
      ("x[i]", publish [ local "a" (Ty.Arr (Ty.uint, 4)) ] (idx (v "a") (ci 1)));
      ("*p", publish [ local "x" Ty.uint; ptr_to Ty.uint "x" ] (deref (v "p")));
      ( "(*p).f",
        publish
          [ local "x" (Ty.Named "S"); ptr_to (Ty.Named "S") "x" ]
          (field (deref (v "p")) "f") );
      ( "(*p).f[i]",
        publish
          [ local "x" (Ty.Named "T"); ptr_to (Ty.Named "T") "x" ]
          (idx (field (deref (v "p")) "a") (ci 1)) );
      ("vector component", publish [ local "x" uint4 ] (x_of (v "x")));
      ( "whole-struct copy against a field write",
        k
          [
            local "x" (Ty.Named "S");
            if_ first [ assign (field (v "x") "f") (cu 7) ];
            decle "c" (Ty.Named "S") (v "x");
            store (field (v "c") "f");
          ] );
      ( "spin on a flag",
        k
          [
            local ~volatile:true "flag" Ty.uint;
            if_else first [ assign (v "flag") (cu 1) ] [ while_ (v "flag" == cu 0) [] ];
            store (ci 1);
          ] );
      ( "racy index",
        k
          [
            local "i" Ty.uint;
            local "a" (Ty.Arr (Ty.uint, 4));
            if_else first [ assign (v "i") (cu 9) ] [ store (idx (v "a") (v "i")) ];
          ] );
      (* every thread writes thread 0's private [x] through the address
         thread 0 published; the last one in the order wins *)
      ( "private address published in local memory",
        k
          [
            local "q" (Ty.Ptr (Ty.Private, Ty.uint));
            decle "x" Ty.uint (cu 0);
            if_ first [ assign (v "q") (addr (v "x")) ];
            barrier;
            assign (deref (v "q")) (cast Ty.uint lid_linear);
            barrier;
            store (v "x");
          ] );
    ]

(* the schedules the driver gives the above-threshold configurations *)
let schedules = List.map (fun id -> Sched.Seeded id) Config.above_threshold_ids

(* low enough that a spinning thread times out quickly *)
let fuel = 4_000
