(* The persistence layer: the JSONL codec, the crash-safe journal (torn
   tails recovered, deeper damage rejected, resume validated against the
   header identity), the content-addressed corpus, and the subsystem's
   headline property — every campaign resumed from any journal prefix,
   at any -j, finishes byte-identical (summary and journal file) to an
   uninterrupted run. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let append_file path s =
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc s;
  close_out oc

let temp suffix = Filename.temp_file "store_test" suffix

(* --- jsonl codec --- *)

let test_jsonl_roundtrip () =
  let values =
    [
      Jsonl.Null;
      Jsonl.Bool true;
      Jsonl.Int (-42);
      Jsonl.Int max_int;
      Jsonl.Str "";
      Jsonl.Str "plain";
      Jsonl.Str "quotes \" and \\ and \t\n control \x01 and bytes \xff\x80";
      Jsonl.List [ Jsonl.Int 1; Jsonl.Str "two"; Jsonl.Null ];
      Jsonl.Obj
        [ ("a", Jsonl.Int 1); ("b", Jsonl.List []); ("c", Jsonl.Obj []) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Jsonl.to_string v in
      match Jsonl.of_string s with
      | Ok v' ->
          Alcotest.(check string) ("round-trip of " ^ s) s (Jsonl.to_string v')
      | Error e -> Alcotest.failf "could not re-parse %s: %s" s e)
    values

let test_jsonl_rejects () =
  List.iter
    (fun s ->
      match Jsonl.of_string s with
      | Ok _ -> Alcotest.failf "accepted malformed input %S" s
      | Error _ -> ())
    [ ""; "{"; "{} trailing"; "1.5"; "nul"; "\"unterminated"; "{\"a\":}" ]

let test_jsonl_checksum () =
  let fields = [ ("k", Jsonl.Str "cell"); ("i", Jsonl.Int 7) ] in
  let line = Jsonl.encode_line fields in
  (match Jsonl.decode_line line with
  | Ok fs -> Alcotest.(check string) "checksum strips" (Jsonl.to_string (Jsonl.Obj fields)) (Jsonl.to_string (Jsonl.Obj fs))
  | Error e -> Alcotest.fail e);
  (* flipping any payload byte must invalidate the line *)
  let corrupt = String.mapi (fun i c -> if i = 10 then 'X' else c) line in
  match Jsonl.decode_line corrupt with
  | Ok _ -> Alcotest.fail "accepted a corrupted line"
  | Error _ -> ()

(* --- journal --- *)

let header () =
  Journal.make_header ~campaign:"table4"
    ~ident:[ ("seed0", "10000"); ("fuel", "-") ]
    ~scale:[ ("per_mode", "2") ]

let cells () =
  let open Outcome in
  [
    {
      Journal.index = 0; seed = 10000; mode = "BASIC"; config = 1; opt = "-";
      outcomes = [ Success "out: 1,2,3" ]; note = "";
    };
    {
      Journal.index = 1; seed = 10000; mode = "BASIC"; config = 1; opt = "+";
      outcomes = [ Build_failure "diag \"quoted\"\nline2" ]; note = "";
    };
    {
      Journal.index = 2; seed = 10001; mode = "ALL"; config = 12; opt = "*";
      outcomes = [ Crash "sig"; Timeout ]; note = "";
    };
    {
      Journal.index = 3; seed = 0; mode = "lud"; config = 19; opt = "*";
      outcomes = [ Machine_crash "hang"; Ub "race" ]; note = "w?";
    };
  ]

let write_journal path h cs =
  let w = Journal.create ~path h in
  List.iter (Journal.write_cell w) cs;
  Journal.commit w

let check_load ~msg path expect_cells expect_trunc =
  match Journal.load ~path with
  | Error e -> Alcotest.failf "%s: %s" msg (Journal.error_to_string e)
  | Ok (h, cs, trunc) ->
      Alcotest.(check bool) (msg ^ ": campaign") true (h.Journal.campaign = "table4");
      Alcotest.(check bool) (msg ^ ": truncated flag") expect_trunc trunc;
      Alcotest.(check int) (msg ^ ": cell count") (List.length expect_cells)
        (List.length cs);
      List.iter2
        (fun (a : Journal.cell) (b : Journal.cell) ->
          Alcotest.(check bool) (msg ^ ": cell") true
            (a.Journal.index = b.Journal.index
            && Journal.key a = Journal.key b
            && a.Journal.note = b.Journal.note
            && List.for_all2 Outcome.equal a.Journal.outcomes b.Journal.outcomes))
        expect_cells cs

let test_journal_roundtrip () =
  let path = temp ".jsonl" in
  write_journal path (header ()) (cells ());
  check_load ~msg:"round-trip" path (cells ()) false;
  Sys.remove path

let test_journal_torn_tail () =
  let path = temp ".jsonl" in
  write_journal path (header ()) (cells ());
  (* a kill -9 mid-append leaves a partial final line *)
  append_file path "{\"k\":\"cell\",\"i\":4,\"se";
  check_load ~msg:"torn tail" path (cells ()) true;
  (* resume recovers the clean prefix too *)
  (match Journal.resume ~path (header ()) with
  | Error e -> Alcotest.fail (Journal.error_to_string e)
  | Ok (w, cs) ->
      Alcotest.(check int) "resume sees clean prefix" 4 (List.length cs);
      Journal.commit w);
  Sys.remove path

let test_journal_corrupt_middle () =
  let path = temp ".jsonl" in
  write_journal path (header ()) (cells ());
  let lines = String.split_on_char '\n' (read_file path) in
  (* damage the second record: now the bad line is not the final one *)
  let mangled =
    List.mapi (fun i l -> if i = 2 then "{\"k\":\"cell\",broken" else l) lines
  in
  let oc = open_out_bin path in
  output_string oc (String.concat "\n" mangled);
  close_out oc;
  (match Journal.load ~path with
  | Error (Journal.Corrupt _) -> ()
  | Error e -> Alcotest.failf "expected Corrupt, got %s" (Journal.error_to_string e)
  | Ok _ -> Alcotest.fail "loaded a journal with mid-file damage");
  Sys.remove path

let test_journal_header_mismatch () =
  let path = temp ".jsonl" in
  write_journal path (header ()) (cells ());
  let other =
    Journal.make_header ~campaign:"table4"
      ~ident:[ ("seed0", "99"); ("fuel", "-") ]
      ~scale:[ ("per_mode", "2") ]
  in
  (match Journal.resume ~path other with
  | Error (Journal.Mismatch _) -> ()
  | Error e -> Alcotest.failf "expected Mismatch, got %s" (Journal.error_to_string e)
  | Ok _ -> Alcotest.fail "resumed under a different identity");
  (* a different campaign is also an identity change *)
  (match
     Journal.resume ~path
       (Journal.make_header ~campaign:"table1"
          ~ident:[ ("seed0", "10000"); ("fuel", "-") ]
          ~scale:[])
   with
  | Error (Journal.Mismatch _) -> ()
  | _ -> Alcotest.fail "resumed under a different campaign");
  (* scale may differ: that is the grow-the-campaign workflow *)
  (match
     Journal.resume ~path
       (Journal.make_header ~campaign:"table4"
          ~ident:[ ("seed0", "10000"); ("fuel", "-") ]
          ~scale:[ ("per_mode", "50") ])
   with
  | Ok (w, cs) ->
      Alcotest.(check int) "cells replayed across scales" 4 (List.length cs);
      Journal.commit w
  | Error e -> Alcotest.fail (Journal.error_to_string e));
  Sys.remove path

let test_journal_missing_file () =
  let path = temp ".jsonl" in
  Sys.remove path;
  match Journal.resume ~path (header ()) with
  | Ok (w, cs) ->
      Alcotest.(check int) "missing journal = fresh start" 0 (List.length cs);
      List.iter (Journal.write_cell w) (cells ());
      Journal.commit w;
      check_load ~msg:"created by resume" path (cells ()) false;
      Sys.remove path
  | Error e -> Alcotest.fail (Journal.error_to_string e)

(* --- corpus --- *)

let test_corpus () =
  let dir = Filename.temp_file "store_corpus" "" in
  Sys.remove dir;
  let text = "__kernel void entry() { }\n" in
  let h = Corpus.hash_text text in
  let entry cls config =
    { Corpus.hash = h; seed = 3; mode = "BASIC"; cls; config; opt = "-" }
  in
  (match Corpus.add_all ~dir [ (entry "crash" 1, text); (entry "crash" 2, text) ] with
  | Ok n -> Alcotest.(check int) "two fresh entries" 2 n
  | Error e -> Alcotest.fail e);
  (* same kernel, same provenance: deduplicated end to end *)
  (match Corpus.add_all ~dir [ (entry "crash" 1, text) ] with
  | Ok n -> Alcotest.(check int) "duplicate adds nothing" 0 n
  | Error e -> Alcotest.fail e);
  (* same kernel, new classification: one more index line, same file *)
  (match Corpus.add_all ~dir [ (entry "wrong-code" 1, text) ] with
  | Ok n -> Alcotest.(check int) "new class indexes again" 1 n
  | Error e -> Alcotest.fail e);
  (match Corpus.index ~dir with
  | Ok es ->
      Alcotest.(check int) "index lines" 3 (List.length es);
      List.iter
        (fun e ->
          match Corpus.verify ~dir e with
          | Ok () -> ()
          | Error m -> Alcotest.fail m)
        es
  | Error e -> Alcotest.fail e);
  (match Corpus.read_kernel ~dir ~hash:h with
  | Ok t -> Alcotest.(check string) "kernel text intact" text t
  | Error e -> Alcotest.fail e);
  (* a kill mid-append cuts the last entry short: adding it again
     repairs the tail instead of splicing onto the fragment *)
  let index = Filename.concat dir "index.jsonl" in
  let intact = read_file index in
  let last = String.rindex_from intact (String.length intact - 2) '\n' + 1 in
  let oc = open_out_bin index in
  output_string oc (String.sub intact 0 (last + 20));
  close_out oc;
  (match Corpus.add_all ~dir [ (entry "wrong-code" 1, text) ] with
  | Ok n -> Alcotest.(check int) "cut entry added again" 1 n
  | Error e -> Alcotest.fail e);
  Alcotest.(check string) "index repaired byte for byte" intact
    (read_file index);
  Alcotest.(check int) "one kernel file + index" 2
    (Array.length (Sys.readdir dir))

let test_corpus_fold () =
  let dir = Filename.temp_file "store_corpus_fold" "" in
  Sys.remove dir;
  (* load_all on a corpus that does not exist yet reads as empty *)
  (match Corpus.load_all ~dir with
  | Ok [] -> ()
  | Ok _ -> Alcotest.fail "missing corpus should be empty"
  | Error e -> Alcotest.fail e);
  let text_a = "__kernel void entry() { }\n"
  and text_b = "__kernel void entry() { int x = 0; }\n" in
  let entry text cls config =
    { Corpus.hash = Corpus.hash_text text; seed = 1; mode = "ALL"; cls; config; opt = "+" }
  in
  let pairs =
    [
      (entry text_a "crash" 1, text_a);
      (entry text_a "crash" 2, text_a);
      (entry text_b "seed" 0, text_b);
    ]
  in
  (match Corpus.add_all ~dir pairs with
  | Ok n -> Alcotest.(check int) "three entries" 3 n
  | Error e -> Alcotest.fail e);
  (* fold sees every entry with its text, in index order *)
  (match
     Corpus.fold ~dir ~init:[] ~f:(fun acc e text -> (e.Corpus.cls, text) :: acc)
   with
  | Ok acc ->
      Alcotest.(check (list (pair string string)))
        "fold visits index order with texts"
        [ ("crash", text_a); ("crash", text_a); ("seed", text_b) ]
        (List.rev acc)
  | Error e -> Alcotest.fail e);
  (* load_all is the collecting specialisation of fold *)
  (match Corpus.load_all ~dir with
  | Ok loaded ->
      Alcotest.(check int) "load_all count" 3 (List.length loaded);
      List.iter2
        (fun (e, text) (e', text') ->
          Alcotest.(check bool) "entry matches" true (e = e');
          Alcotest.(check string) "text matches" text text')
        pairs loaded
  | Error e -> Alcotest.fail e);
  (* a missing kernel file surfaces as an error, not an exception *)
  Sys.remove (Corpus.kernel_path ~dir ~hash:(Corpus.hash_text text_b));
  match Corpus.load_all ~dir with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load_all ignored a missing kernel file"

(* --- resume determinism: the subsystem's headline property --- *)

(* one small spec per campaign over configs 1, 12 and 19; table4 runs
   two kernels per mode, fuzz spans two generations *)
let resume_spec campaign =
  match
    Spec.make ~campaign
      ~n:(match campaign with "fuzz" -> 4 | "table4" | "table5" -> 2 | _ -> 1)
      ~config_ids:[ 1; 12; 19 ] ~variants:2 ~gen_size:2 ()
  with
  | Ok s -> s
  | Error m -> Alcotest.failf "spec: %s" m

let summary_text = function
  | Spec.Table text -> text
  | Spec.Fuzz r -> Fuzz_loop.to_table r

let test_corpus_fsck () =
  let dir = Filename.temp_file "store_fsck" "" in
  Sys.remove dir;
  let mk i =
    let text = Printf.sprintf "__kernel void entry() { /* %d */ }\n" i in
    ( {
        Corpus.hash = Corpus.hash_text text;
        seed = i;
        mode = "basic";
        cls = "crash";
        config = i;
        opt = "-";
      },
      text )
  in
  let pairs = List.map mk [ 1; 2; 3 ] in
  (match Corpus.add_all ~dir pairs with
  | Error m -> Alcotest.fail m
  | Ok _ -> ());
  Alcotest.(check int) "healthy archive is clean" 0
    (List.length (Corpus.fsck ~dir));
  (* every damage class at once: tampered text, deleted kernel, stray
     file, re-indexed dedup key *)
  let e1, _ = List.nth pairs 0 and e2, _ = List.nth pairs 1 in
  let oc = open_out (Filename.concat dir (e1.Corpus.hash ^ ".cl")) in
  output_string oc "tampered\n";
  close_out oc;
  Sys.remove (Filename.concat dir (e2.Corpus.hash ^ ".cl"));
  let oc = open_out (Filename.concat dir (String.make 32 '0' ^ ".cl")) in
  output_string oc "orphan\n";
  close_out oc;
  let index_path = Filename.concat dir "index.jsonl" in
  let ic = open_in index_path in
  let first_line = input_line ic in
  close_in ic;
  let oc = open_out_gen [ Open_append ] 0o644 index_path in
  output_string oc (first_line ^ "\n");
  close_out oc;
  let damage = Corpus.fsck ~dir in
  let count p = List.length (List.filter p damage) in
  Alcotest.(check int) "hash mismatch found" 1
    (count (function Corpus.Hash_mismatch _ -> true | _ -> false));
  Alcotest.(check int) "missing kernel found" 1
    (count (function Corpus.Missing_kernel _ -> true | _ -> false));
  Alcotest.(check int) "orphan found" 1
    (count (function Corpus.Orphan_kernel _ -> true | _ -> false));
  Alcotest.(check int) "duplicate index entry found" 1
    (count (function Corpus.Duplicate_entry _ -> true | _ -> false));
  Alcotest.(check int) "nothing else reported" 4 (List.length damage);
  List.iter
    (fun d ->
      Alcotest.(check bool) "damage renders" true
        (String.length (Corpus.damage_to_string d) > 0))
    damage;
  Alcotest.(check int) "unreadable dir is one finding" 1
    (List.length (Corpus.fsck ~dir:(Filename.concat dir "no-such-subdir")))

let test_resume_determinism () =
  List.iter
    (fun campaign ->
      let spec = resume_spec campaign in
      let header = Spec.header spec in
      (* reference: one uninterrupted journalled run *)
      let ref_path = temp ".jsonl" in
      let w = Journal.create ~path:ref_path header in
      let collected = ref [] in
      let t_ref =
        summary_text
          (Spec.run_local ~jobs:2
             ~sink:(fun c ->
               collected := c :: !collected;
               Journal.write_cell w c)
             spec)
      in
      Journal.commit w;
      let ref_bytes = read_file ref_path in
      let all_cells = List.rev !collected in
      let n = List.length all_cells in
      Alcotest.(check bool) (campaign ^ " produced cells") true (n >= 6);
      (* resume from assorted interruption points, at several -j: the
         final summary and the rewritten journal must match the
         reference bytes *)
      let prefixes = [ 0; 1; n / 2; n - 1; n ] in
      List.iter
        (fun k ->
          List.iter
            (fun jobs ->
              let path = temp ".jsonl" in
              let prefix = List.filteri (fun i _ -> i < k) all_cells in
              write_journal path header prefix;
              match Journal.resume ~path header with
              | Error e -> Alcotest.fail (Journal.error_to_string e)
              | Ok (w, replay) ->
                  Alcotest.(check int) "replayed cell count" k (List.length replay);
                  let t =
                    summary_text
                      (Spec.run_local ~jobs ~sink:(Journal.write_cell w)
                         ~resume:replay spec)
                  in
                  Journal.commit w;
                  let at = Printf.sprintf "%s after resume from %d/%d at -j %d" in
                  Alcotest.(check string) (at campaign k n jobs ^ ": summary") t_ref t;
                  Alcotest.(check string)
                    (at campaign k n jobs ^ ": journal bytes")
                    ref_bytes (read_file path);
                  Sys.remove path)
            [ 1; 4 ])
        prefixes;
      Sys.remove ref_path)
    Spec.campaigns

(* A resume takes each table4 kernel's prefilter verdict from its
   journalled 1+ cell. In a traced run a prefilter run is an exec span
   with no flow, and a cell's run one with the cell's index as flow (the
   1+ cell reads the prefilter's run back from the prepared kernel's
   memo); a seed the prefilter rejects has no cell, so only its prefilter
   runs again. *)
let test_resume_prefilter () =
  let spec = resume_spec "table4" in
  let header = Spec.header spec in
  let traced_run ?resume ~jobs sink =
    Span.reset ();
    Span.enable ();
    let text =
      Fun.protect ~finally:Span.disable (fun () ->
          summary_text (Spec.run_local ~jobs ~sink ?resume spec))
    in
    (text, List.filter (fun s -> s.Span.cat = "exec") (Span.drain ()))
  in
  let prefilter_runs spans =
    List.length (List.filter (fun s -> s.Span.flow < 0) spans)
  in
  let cell_runs spans =
    List.sort compare
      (List.filter_map
         (fun s -> if s.Span.flow >= 0 then Some s.Span.flow else None)
         spans)
  in
  let ref_path = temp ".jsonl" in
  let w = Journal.create ~path:ref_path header in
  let collected = ref [] in
  let t_ref, fresh =
    traced_run ~jobs:1 (fun c ->
        collected := c :: !collected;
        Journal.write_cell w c)
  in
  Journal.commit w;
  let ref_bytes = read_file ref_path in
  let all_cells = List.rev !collected in
  let n = List.length all_cells in
  let executed = cell_runs fresh in
  List.iter
    (fun k ->
      List.iter
        (fun jobs ->
          let path = temp ".jsonl" in
          let prefix = List.filteri (fun i _ -> i < k) all_cells in
          write_journal path header prefix;
          match Journal.resume ~path header with
          | Error e -> Alcotest.fail (Journal.error_to_string e)
          | Ok (w, replay) ->
              let t, spans = traced_run ~resume:replay ~jobs (Journal.write_cell w) in
              Journal.commit w;
              let at what =
                Printf.sprintf "resume from %d/%d at -j %d: %s" k n jobs what
              in
              Alcotest.(check string) (at "summary") t_ref t;
              Alcotest.(check string) (at "journal bytes") ref_bytes (read_file path);
              Alcotest.(check (list int)) (at "cells executed")
                (List.filter (fun i -> i >= k) executed)
                (cell_runs spans);
              (* every journalled 1+ cell that executed spares its kernel's
                 prefilter run *)
              let read =
                List.length
                  (List.filter
                     (fun (c : Journal.cell) ->
                       c.config = 1 && c.opt = "+" && List.mem c.index executed)
                     prefix)
              in
              Alcotest.(check int) (at "prefilter runs")
                (prefilter_runs fresh - read) (prefilter_runs spans);
              (* no seed of this spec fails the prefilter, so a complete
                 journal leaves nothing to execute *)
              if k = n then Alcotest.(check int) (at "exec spans") 0 (List.length spans);
              Sys.remove path)
        [ 1; 2 ])
    [ n / 2; n ];
  Sys.remove ref_path

let () =
  Alcotest.run "store"
    [
      ( "jsonl",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonl_roundtrip;
          Alcotest.test_case "rejects malformed" `Quick test_jsonl_rejects;
          Alcotest.test_case "checksummed lines" `Quick test_jsonl_checksum;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "torn tail recovered" `Quick test_journal_torn_tail;
          Alcotest.test_case "mid-file damage rejected" `Quick test_journal_corrupt_middle;
          Alcotest.test_case "identity mismatch rejected" `Quick test_journal_header_mismatch;
          Alcotest.test_case "missing file = fresh" `Quick test_journal_missing_file;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "add/index/verify/dedup" `Quick test_corpus;
          Alcotest.test_case "fold/load_all one-pass" `Quick test_corpus_fold;
          Alcotest.test_case "fsck finds every damage class" `Quick
            test_corpus_fsck;
        ] );
      ( "resume",
        [
          Alcotest.test_case "byte-identical from any prefix" `Slow test_resume_determinism;
          Alcotest.test_case "journalled prefilter verdicts" `Quick test_resume_prefilter;
        ] );
    ]
