let now_ns () = Monotonic_clock.now ()

let ns_to_us ns = Int64.to_int (Int64.div ns 1000L)

let duration_string ms =
  if ms < 0 then "?"
  else if ms >= 3_600_000 then Printf.sprintf "%.1fh" (float_of_int ms /. 3.6e6)
  else if ms >= 60_000 then Printf.sprintf "%.1fm" (float_of_int ms /. 6e4)
  else if ms >= 1_000 then Printf.sprintf "%.1fs" (float_of_int ms /. 1e3)
  else Printf.sprintf "%dms" ms
