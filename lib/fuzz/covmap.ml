(* Bitmap + deterministic signature hashing. See covmap.mli. *)

let bits = 16
let size = 1 lsl bits (* 65536 points, 8 KiB of bitmap *)

type t = Bytes.t

let create () = Bytes.make (size / 8) '\000'
let copy = Bytes.copy

let bucket v =
  if v <= 1 then 0
  else begin
    let n = ref 0 and v = ref v in
    while !v > 1 do
      incr n;
      v := !v lsr 1
    done;
    !n
  end

(* splitmix64 finalizer: the same mixing the generator's Rng uses, so
   signature quality does not depend on component ordering quirks *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let combine h v =
  mix64 (Int64.add (Int64.logxor h (Int64.of_int v)) 0x9E3779B97F4A7C15L)

let fold_ints vs = List.fold_left combine 0x8000000000000001L vs
let to_index h = Int64.to_int (Int64.logand h (Int64.of_int (size - 1)))

(* the static trigger vector, as one small integer: the named boolean
   triggers of the section-6 fault models plus bucketed magnitudes.
   Digests are deliberately excluded — a map keyed on kernel identity
   would make every kernel "novel" and degenerate to blind search. *)
let feature_word (f : Features.t) =
  let flags =
    [
      f.Features.uses_barrier;
      f.Features.uses_vectors;
      f.Features.uses_vector_logical;
      f.Features.uses_atomics;
      f.Features.uses_comma;
      f.Features.has_struct;
      f.Features.char_first_struct;
      f.Features.union_with_struct_field;
      f.Features.vector_in_struct;
      f.Features.barrier_in_callee;
      f.Features.barrier_in_callee_straight;
      f.Features.barrier_in_loop;
      f.Features.mixes_int_size_t;
      f.Features.while_true;
      f.Features.whole_struct_assign;
      f.Features.nx_is_one;
    ]
  in
  let mask =
    List.fold_left (fun acc b -> (acc lsl 1) lor if b then 1 else 0) 0 flags
  in
  (* magnitudes ride in the upper bits, log2-compressed *)
  mask
  lor (bucket f.Features.barrier_count lsl 16)
  lor (bucket f.Features.max_struct_bytes lsl 21)
  lor (bucket f.Features.long_loop_bound lsl 26)
  lor (bucket f.Features.stmt_count lsl 31)

let outcome_word (o : Outcome.t) =
  match o with
  | Outcome.Success _ -> 0
  | Outcome.Build_failure _ -> 1
  | Outcome.Crash _ -> 2
  | Outcome.Timeout -> 3
  | Outcome.Machine_crash _ -> 4
  | Outcome.Ub _ -> 5

let behavior_word (s : Interp.stats) =
  bucket s.Interp.steps
  lor (bucket s.Interp.barriers lsl 6)
  lor (bucket s.Interp.atomics lsl 12)
  lor (bucket s.Interp.race_checks lsl 18)

let indices ~features ~config ~opt ~divergent ~outcome ~stats =
  let fw = feature_word features
  and bw = behavior_word stats
  and ow = outcome_word outcome
  and dv = if divergent then 1 else 0
  and op = if opt then 1 else 0 in
  [
    (* the full cell signature *)
    to_index (fold_ints [ 1; fw; bw; ow; dv; config; op ]);
    (* config-agnostic: a new (structure, behavior, outcome) combination
       counts even if some other configuration already showed it *)
    to_index (fold_ints [ 2; fw; bw; ow ]);
    (* device reaction: how this configuration classifies the kernel *)
    to_index (fold_ints [ 3; config; op; ow; dv ]);
  ]

let mem t i = Char.code (Bytes.get t (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  if mem t i then false
  else begin
    let b = i lsr 3 in
    Bytes.set t b (Char.chr (Char.code (Bytes.get t b) lor (1 lsl (i land 7))));
    true
  end

let add_all t is =
  List.fold_left (fun n i -> if add t i then n + 1 else n) 0 is

let count t =
  let n = ref 0 in
  Bytes.iter
    (fun c ->
      let v = ref (Char.code c) in
      while !v <> 0 do
        n := !n + (!v land 1);
        v := !v lsr 1
      done)
    t;
  !n

let to_hex t =
  let buf = Buffer.create (2 * Bytes.length t) in
  Bytes.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) t;
  Buffer.contents buf

let of_hex s =
  let nibble c =
    match c with
    | '0' .. '9' -> Some (Char.code c - Char.code '0')
    | 'a' .. 'f' -> Some (Char.code c - Char.code 'a' + 10)
    | _ -> None
  in
  if String.length s <> size / 4 then None
  else
    let t = create () in
    let ok = ref true in
    for i = 0 to Bytes.length t - 1 do
      match (nibble s.[2 * i], nibble s.[(2 * i) + 1]) with
      | Some hi, Some lo -> Bytes.set t i (Char.chr ((hi lsl 4) lor lo))
      | _ -> ok := false
    done;
    if !ok then Some t else None

let merge dst src =
  let news = ref 0 in
  for i = 0 to Bytes.length dst - 1 do
    let d = Char.code (Bytes.get dst i) and s = Char.code (Bytes.get src i) in
    let fresh = s land lnot d in
    if fresh <> 0 then begin
      let v = ref fresh in
      while !v <> 0 do
        news := !news + (!v land 1);
        v := !v lsr 1
      done;
      Bytes.set dst i (Char.chr (d lor s))
    end
  done;
  !news
