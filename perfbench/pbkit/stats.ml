(* Order statistics under the benchmark's percentile rule: a timing is
   reported as its median and the highest percentile that still has at
   least [min_beyond] samples above it, together with the sample count. *)

let min_beyond = 10

(* candidate tail percentiles, highest first *)
let ladder = [ 99.9; 99.0; 98.0; 95.0; 90.0; 75.0 ]

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* nearest-rank quantile of a sorted array, [q] in [0, 1] *)
let rank a q =
  let n = Array.length a in
  if n = 0 then nan
  else
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) k))

let median xs = rank (sorted xs) 0.5

(* samples strictly beyond the nearest-rank [p]-th percentile of [n] *)
let beyond ~n p =
  n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

let tail_percentile n =
  List.find_opt (fun p -> beyond ~n p >= min_beyond) ladder

type summary = {
  n : int;
  p50 : float;
  tail : (float * float) option;  (** (percentile, value) *)
}

let summarize xs =
  let a = sorted xs in
  let n = Array.length a in
  {
    n;
    p50 = rank a 0.5;
    tail = Option.map (fun p -> (p, rank a (p /. 100.))) (tail_percentile n);
  }

let pct_label p =
  if Float.is_integer p then Printf.sprintf "p%.0f" p else Printf.sprintf "p%g" p

(* one human-readable line: "name: p50 V unit, p99 V unit (n=N)" *)
let describe ~name ~unit s =
  let tail =
    match s.tail with
    | Some (p, v) -> Printf.sprintf ", %s %.4g %s" (pct_label p) v unit
    | None -> Printf.sprintf ", no tail percentile (fewer than %d samples)" (2 * min_beyond)
  in
  Printf.sprintf "%s: p50 %.4g %s%s (n=%d)" name s.p50 unit tail s.n
