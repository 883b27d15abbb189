type construct = { kind : string; loc : int; path : string; n : int }

type cell = {
  khash : string;
  config : int;
  opt : string;
  ticks : int;
  constructs : construct list;
}

let on = Atomic.make false
let enable () = Atomic.set on true
let disable () = Atomic.set on false
let enabled () = Atomic.get on

(* ------------------------------------------------------------------ *)
(* Accumulator                                                         *)
(* ------------------------------------------------------------------ *)

(* (khash, config, opt) -> per-cell tick total and per-(kind, loc)
   construct counts. Addition is commutative, so the table contents are
   independent of arrival order; [snapshot] sorts, so the emitted
   profile is byte-identical across -j values as long as the same cell
   set is recorded — which the ordered-merge fold point guarantees. *)
type slot = {
  mutable s_ticks : int;
  counts : (string * int, string * int ref) Hashtbl.t;
}

let acc_m = Mutex.create ()
let acc : (string * int * string, slot) Hashtbl.t = Hashtbl.create 64

let record (c : cell) =
  Mutex.lock acc_m;
  let key = (c.khash, c.config, c.opt) in
  let slot =
    match Hashtbl.find_opt acc key with
    | Some s -> s
    | None ->
        let s = { s_ticks = 0; counts = Hashtbl.create 64 } in
        Hashtbl.add acc key s;
        s
  in
  slot.s_ticks <- slot.s_ticks + c.ticks;
  List.iter
    (fun k ->
      match Hashtbl.find_opt slot.counts (k.kind, k.loc) with
      | Some (_, r) -> r := !r + k.n
      | None -> Hashtbl.add slot.counts (k.kind, k.loc) (k.path, ref k.n))
    c.constructs;
  Mutex.unlock acc_m

let snapshot () =
  Mutex.lock acc_m;
  let cells =
    Hashtbl.fold
      (fun (khash, config, opt) slot rest ->
        let constructs =
          Hashtbl.fold
            (fun (kind, loc) (path, r) cs -> { kind; loc; path; n = !r } :: cs)
            slot.counts []
          |> List.sort (fun a b -> compare (a.loc, a.kind) (b.loc, b.kind))
        in
        { khash; config; opt; ticks = slot.s_ticks; constructs } :: rest)
      acc []
  in
  Mutex.unlock acc_m;
  List.sort (fun a b -> compare (a.khash, a.config, a.opt) (b.khash, b.config, b.opt)) cells

let reset () =
  Mutex.lock acc_m;
  Hashtbl.reset acc;
  Mutex.unlock acc_m

(* ------------------------------------------------------------------ *)
(* Checksummed JSONL file                                              *)
(* ------------------------------------------------------------------ *)

let version = 1

let header_fields = [ ("v", Jsonl.Int version); ("kind", Jsonl.Str "costprof") ]

let construct_json k =
  Jsonl.Obj
    [
      ("k", Jsonl.Str k.kind);
      ("l", Jsonl.Int k.loc);
      ("p", Jsonl.Str k.path);
      ("n", Jsonl.Int k.n);
    ]

let construct_of_json j =
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  match (str "k", int "l", str "p", int "n") with
  | Some kind, Some loc, Some path, Some n -> Some { kind; loc; path; n }
  | _ -> None

let cell_fields c =
  [
    ("k", Jsonl.Str c.khash);
    ("c", Jsonl.Int c.config);
    ("o", Jsonl.Str c.opt);
    ("t", Jsonl.Int c.ticks);
    ("cs", Jsonl.List (List.map construct_json c.constructs));
  ]

let cell_of_fields fields =
  let j = Jsonl.Obj fields in
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  match
    ( str "k",
      int "c",
      str "o",
      int "t",
      Option.bind (Jsonl.member "cs" j) Jsonl.get_list )
  with
  | Some khash, Some config, Some opt, Some ticks, Some cs ->
      let constructs = List.filter_map construct_of_json cs in
      if List.length constructs = List.length cs then
        Some { khash; config; opt; ticks; constructs }
      else None
  | _ -> None

let write ~path cells =
  let w = Recordlog.replace ~path in
  Recordlog.write w header_fields;
  List.iter (fun c -> Recordlog.write w (cell_fields c)) cells;
  Recordlog.close w

let load ~path =
  (* the header opens the cell list, newest first *)
  let f acc fields =
    match (acc, Jsonl.member "v" (Jsonl.Obj fields)) with
    | None, Some (Jsonl.Int v) when v = version -> Ok (Some [])
    | None, _ -> Error "wrong version"
    | Some cells, _ -> (
        match cell_of_fields fields with
        | Some c -> Ok (Some (c :: cells))
        | None -> Error "malformed profile cell")
  in
  match Recordlog.fold ~path ~init:None ~f with
  | Ok (None, _) -> Error "empty profile file"
  | Ok (Some cells, torn) -> Ok (List.rev cells, torn)
  | Error (Recordlog.Io m) -> Error m
  | Error (Recordlog.Bad (1, m)) -> Error ("profile header: " ^ m)
  | Error (Recordlog.Bad (n, m)) -> Error (Printf.sprintf "line %d: %s" n m)

(* ------------------------------------------------------------------ *)
(* Collapsed stacks and the text report                                *)
(* ------------------------------------------------------------------ *)

(* total ticks per path across every cell, deterministically ordered *)
let folded cells =
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun c ->
      List.iter
        (fun k ->
          Hashtbl.replace tbl k.path
            (k.n + Option.value ~default:0 (Hashtbl.find_opt tbl k.path)))
        c.constructs)
    cells;
  List.sort compare (Hashtbl.fold (fun p n acc -> (p, n) :: acc) tbl [])

let write_folded ~path cells =
  let w = Recordlog.replace ~path in
  List.iter
    (fun (p, n) -> Recordlog.output w (Printf.sprintf "%s %d\n" p n))
    (folded cells);
  Recordlog.close w

let report cells =
  let b = Buffer.create 2048 in
  let total = List.fold_left (fun a c -> a + c.ticks) 0 cells in
  let kernels =
    List.length (List.sort_uniq String.compare (List.map (fun c -> c.khash) cells))
  in
  Printf.bprintf b "cost profile: %d cells over %d kernels, %d ticks\n"
    (List.length cells) kernels total;
  (* rank by (kind, path) across cells: the static location only
     disambiguates within one kernel, the ranking wants families *)
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun c ->
      List.iter
        (fun k ->
          Hashtbl.replace tbl (k.kind, k.path)
            (k.n + Option.value ~default:0 (Hashtbl.find_opt tbl (k.kind, k.path))))
        c.constructs)
    cells;
  let rows =
    Hashtbl.fold (fun (kind, path) n acc -> (n, kind, path) :: acc) tbl []
    |> List.sort (fun (n1, k1, p1) (n2, k2, p2) ->
           match compare n2 n1 with 0 -> compare (k1, p1) (k2, p2) | c -> c)
  in
  let attributed = List.fold_left (fun a (n, _, _) -> a + n) 0 rows in
  Printf.bprintf b "attributed: %d/%d ticks (%.1f%%)\n\n" attributed total
    (if total = 0 then 0. else 100. *. float_of_int attributed /. float_of_int total);
  Printf.bprintf b "%8s  %6s  %-12s %s\n" "ticks" "share" "construct" "path";
  let shown = ref 0 in
  List.iter
    (fun (n, kind, path) ->
      if !shown < 40 then begin
        incr shown;
        Printf.bprintf b "%8d  %5.1f%%  %-12s %s\n" n
          (if total = 0 then 0. else 100. *. float_of_int n /. float_of_int total)
          kind path
      end)
    rows;
  if List.length rows > !shown then
    Printf.bprintf b "... %d more constructs\n" (List.length rows - !shown);
  Buffer.contents b
