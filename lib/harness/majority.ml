let majority_output (outcomes : Outcome.t list) : string option =
  let tally = Hashtbl.create 16 in
  List.iter
    (function
      | Outcome.Success s ->
          Hashtbl.replace tally s (1 + Option.value ~default:0 (Hashtbl.find_opt tally s))
      | _ -> ())
    outcomes;
  let best =
    Hashtbl.fold
      (fun s n acc ->
        match acc with
        | Some (_, m) when m >= n -> acc
        | _ -> Some (s, n))
      tally None
  in
  match best with
  | Some (s, n) when n >= 3 ->
      (* require a strict plurality: no other output with the same count *)
      let ties =
        Hashtbl.fold (fun s' n' acc -> if n' = n && s' <> s then acc + 1 else acc) tally 0
      in
      if ties = 0 then Some s else None
  | _ -> None

let is_wrong_code ~majority (o : Outcome.t) =
  match (majority, o) with
  | Some m, Outcome.Success s -> not (String.equal m s)
  | _ -> false

type bucket = B_wrong | B_ok | B_bf | B_crash | B_timeout

let bucket_of ~majority (o : Outcome.t) =
  match o with
  | Outcome.Success _ ->
      if is_wrong_code ~majority o then B_wrong else B_ok
  | Outcome.Build_failure _ -> B_bf
  | Outcome.Crash _ | Outcome.Machine_crash _ | Outcome.Ub _ -> B_crash
  | Outcome.Timeout -> B_timeout

let bucket_name = function
  | B_wrong -> "w"
  | B_ok -> "ok"
  | B_bf -> "bf"
  | B_crash -> "c"
  | B_timeout -> "to"

let bucket_class = function
  | B_wrong -> Some "wrong-code"
  | B_bf -> Some "build-failure"
  | B_crash -> Some "crash"
  | B_ok | B_timeout -> None
