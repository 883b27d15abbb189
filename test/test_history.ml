(* The bench compare rule: one rule for every record, read from history
   lines with the Jsonl codec. *)

let row ?(ident = [ ("cells", 240); ("jobs", 2) ]) ?(rate = 100_000)
    ?(coverage = 118) () =
  Jsonl.to_string
    (History.make ~bench:"b" ~ident
       ~rates:[ ("cells_per_s_milli", rate) ]
       ~floors:[ ("coverage", coverage) ]
       [ ("t_us", Jsonl.Int 1_000_000) ])

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let verdict name lines ~rc ~says =
  let code, out = History.check lines in
  let out = String.concat "\n" out in
  Alcotest.(check int) (name ^ ": exit code") rc code;
  List.iter
    (fun s ->
      if not (contains out s) then
        Alcotest.failf "%s: %S not in the verdict:\n%s" name s out)
    says;
  out

let test_rates () =
  let base = row () in
  ignore
    (verdict "14% lower" [ base; row ~rate:86_000 () ] ~rc:0
       ~says:[ "cells_per_s_milli 100000 -> 86000 (-14.0%)" ]);
  let out =
    verdict "16% lower" [ base; row ~rate:84_000 () ] ~rc:1
      ~says:[ "cells_per_s_milli 100000 -> 84000 (-16.0%) REGRESSION" ]
  in
  Alcotest.(check bool) "only the rate flagged" false
    (contains out "floor) REGRESSION");
  ignore
    (verdict "exactly 15% lower" [ base; row ~rate:85_000 () ] ~rc:0
       ~says:[ "-> 85000 (-15.0%)" ])

let test_floors () =
  ignore
    (verdict "floor one lower" [ row (); row ~coverage:117 () ] ~rc:1
       ~says:[ "coverage 118 -> 117 (floor) REGRESSION" ]);
  ignore
    (verdict "floor equal" [ row (); row () ] ~rc:0
       ~says:[ "coverage 118 -> 118 (floor)" ])

let test_skips () =
  ignore
    (verdict "different ident"
       [ row (); row ~ident:[ ("cells", 240); ("jobs", 4) ] ~rate:1 () ]
       ~rc:0 ~says:[ "not comparable to previous (cells/jobs differ), skipped" ]);
  ignore
    (verdict "single row" [ ""; row () ] ~rc:0
       ~says:[ "b: no baseline (single run)" ]);
  (* only the last two rows of a bench are compared *)
  ignore
    (verdict "older rows ignored" [ row ~rate:1 (); row (); row () ] ~rc:0
       ~says:[ "100000 -> 100000" ])

let test_unparsable () =
  ignore
    (verdict "float payload"
       [ row (); ""; {|{"bench":"b","rates":{"x":1.5}}|}; row () ]
       ~rc:1 ~says:[ "history line 3:" ]);
  ignore
    (verdict "no bench name" [ {|{"schema":3}|} ] ~rc:1
       ~says:[ "history line 1: no bench name" ])

(* the file reader: a missing history passes, a damaged one fails *)
let test_file () =
  let path = Filename.temp_file "history" ".jsonl" in
  Sys.remove path;
  Alcotest.(check int) "no history" 0 (History.compare_latest ~path ());
  Out_channel.with_open_text path (fun oc ->
      output_string oc (row () ^ "\n" ^ row ~rate:50_000 () ^ "\n"));
  Alcotest.(check int) "regression" 1 (History.compare_latest ~path ());
  Out_channel.with_open_text path (fun oc ->
      output_string oc (row () ^ "\n{\"bench\":"));
  Alcotest.(check int) "torn line" 1 (History.compare_latest ~path ());
  Sys.remove path

let () =
  Alcotest.run "history"
    [
      ( "compare",
        [
          Alcotest.test_case "rate bound 15%" `Quick test_rates;
          Alcotest.test_case "floor at any drop" `Quick test_floors;
          Alcotest.test_case "not comparable, no baseline" `Quick test_skips;
          Alcotest.test_case "unparsable line fails" `Quick test_unparsable;
          Alcotest.test_case "history file" `Quick test_file;
        ] );
    ]
