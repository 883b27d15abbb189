type 'a t = {
  interval_ns : int64;
  ring : (int64 * 'a) option array;
  mutable kept : int;  (* samples ever kept; the next slot is kept mod capacity *)
}

let create ~capacity ~interval_ns =
  { interval_ns; ring = Array.make (max 1 capacity) None; kept = 0 }

let rate_window () = create ~capacity:5 ~interval_ns:1_000_000_000L
let capacity t = Array.length t.ring

(* the i-th retained sample, oldest first *)
let nth t i =
  let n = min t.kept (capacity t) in
  match t.ring.((t.kept - n + i) mod capacity t) with
  | Some s -> s
  | None -> assert false

let due t ~now =
  match t.ring.((t.kept + capacity t - 1) mod capacity t) with
  | None -> true
  | Some (newest, _) -> Int64.compare (Int64.sub now newest) t.interval_ns >= 0

let push t ~now v =
  if due t ~now then begin
    t.ring.(t.kept mod capacity t) <- Some (now, v);
    t.kept <- t.kept + 1
  end

let samples t = List.init (min t.kept (capacity t)) (nth t)

let rate_milli t ~now v =
  if t.kept = 0 then 0
  else
    let t0, v0 = nth t 0 in
    let ms = Int64.to_int (Int64.div (Int64.sub now t0) 1_000_000L) in
    if ms <= 0 then 0 else (v - v0) * 1_000_000 / ms

let percentile t p =
  match List.sort compare (List.map snd (samples t)) with
  | [] -> None
  | sorted ->
      let n = List.length sorted in
      Some (List.nth sorted (min n (Metrics.rank p n) - 1))
