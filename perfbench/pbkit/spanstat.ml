(* Per-layer time from drained spans.

   A layer's self time is its span's duration minus the part of that
   interval its child spans cover. Spans of one domain never overlap
   except by nesting (a domain runs one task at a time), so the direct
   children of a span are found with a stack over the spans sorted by
   start time, longest first on ties. *)

let end_ns (s : Span.t) = Int64.add s.Span.t0_ns s.Span.dur_ns

(* every span paired with its self time in us *)
let self_times (spans : Span.t list) =
  let arr = Array.of_list spans in
  let self = Array.map (fun (s : Span.t) -> s.Span.dur_ns) arr in
  let order = Array.init (Array.length arr) Fun.id in
  Array.stable_sort
    (fun i j ->
      let a = arr.(i) and b = arr.(j) in
      match compare a.Span.domain b.Span.domain with
      | 0 -> (
          match Int64.compare a.Span.t0_ns b.Span.t0_ns with
          | 0 -> Int64.compare b.Span.dur_ns a.Span.dur_ns
          | c -> c)
      | c -> c)
    order;
  let stack = ref [] in
  Array.iter
    (fun i ->
      let s = arr.(i) in
      let rec pop () =
        match !stack with
        | p :: rest
          when arr.(p).Span.domain <> s.Span.domain
               || Int64.compare (end_ns arr.(p)) s.Span.t0_ns <= 0 ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | p :: _ when Int64.compare (end_ns s) (end_ns arr.(p)) <= 0 ->
          self.(p) <- Int64.sub self.(p) s.Span.dur_ns
      | _ -> ());
      stack := i :: !stack)
    order;
  Array.to_list (Array.map2 (fun s t -> (s, Int64.to_float t /. 1000.)) arr self)

type layer = { count : int; self_us : float; durs_us : float list }

(* total self time, count and durations of the spans matching [pick] *)
let layer ~pick selfs =
  List.fold_left
    (fun acc ((s : Span.t), self) ->
      if pick s then
        {
          count = acc.count + 1;
          self_us = acc.self_us +. self;
          durs_us = (Int64.to_float s.Span.dur_ns /. 1000.) :: acc.durs_us;
        }
      else acc)
    { count = 0; self_us = 0.; durs_us = [] }
    selfs

let cat c (s : Span.t) = s.Span.cat = c
let named n (s : Span.t) = s.Span.name = n
