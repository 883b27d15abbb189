type config_report = {
  config : Config.t;
  total : int;
  wrong : int;
  build_failures : int;
  crashes : int;
  timeouts : int;
  fail_fraction : float;
  above : bool;
}

type t = {
  per_mode : int;
  discarded_sharing : int;
  reports : config_report list;
}

(* generate the initial kernel set: [per_mode] kernels per mode, skipping
   counter-sharing ones (the paper discarded those) *)
let initial_kernels pool ~per_mode ~seed0 =
  let discarded = ref 0 in
  let kernels =
    List.concat_map
      (fun mode ->
        let cfg = Gen_config.scaled mode in
        let classify ~seed =
          let tc, info =
            Span.with_ ~cat:"gen" "generate" (fun () ->
                Generate.generate ~cfg ~seed ())
          in
          if info.Generate.counter_sharing then Par.Reject `Sharing
          else Par.Accept (seed, tc)
        in
        let accepted, rejects = Par.collect pool ~n:per_mode ~seed0 ~classify in
        discarded := !discarded + List.length rejects;
        List.map (fun (seed, tc) -> (seed, mode, tc)) accepted)
      Gen_config.all_modes
  in
  (kernels, !discarded)

let journal_header ?fuel ?(per_mode = 10) ?(seed0 = 1) () =
  Journal.make_header ~campaign:"table1"
    ~ident:
      [
        ("seed0", string_of_int seed0);
        ("fuel", match fuel with Some f -> string_of_int f | None -> "-");
      ]
    ~scale:[ ("per_mode", string_of_int per_mode) ]

(* a cell is one (kernel, configuration): its two optimisation levels are
   journalled together as opt "*" with a two-element outcome list *)
let codec =
  {
    Par.outcomes = (fun (off, on) -> [ off; on ]);
    note = (fun _ _ _ -> "");
    decode =
      (function
      | { Journal.outcomes = [ off; on ]; _ } ->
          Some ((off, on), Interp.zero_stats)
      | _ -> None);
    crash = (fun o -> (o, o));
  }

let run ?jobs ?fuel ?(per_mode = 10) ?(seed0 = 1) ?sink ?resume ?exec_filter ()
    : t =
  let jobs = match jobs with Some j -> j | None -> Pool.recommended_jobs () in
  Pool.with_pool ~jobs @@ fun pool ->
  let kernels, discarded_sharing = initial_kernels pool ~per_mode ~seed0 in
  let configs = Config.all in
  (* stats.(ci) = (wrong, bf, crash, timeout, total) *)
  let n = List.length configs in
  let wrong = Array.make n 0
  and bf = Array.make n 0
  and cr = Array.make n 0
  and tmo = Array.make n 0
  and tot = Array.make n 0 in
  (* one task per (kernel, configuration) cell, kernel-major; the prepared
     kernel is shared by all of its cells across domains, and held until
     the last of them has run *)
  let tasks =
    List.concat_map
      (fun (seed, mode, tc) ->
        let prep = Par.hold ~cells:n (Driver.prepare tc) in
        List.map (fun c -> (seed, mode, prep, c)) configs)
      kernels
  in
  let eng = Par.engine ?sink ?resume ?exec_filter pool in
  let pairs =
    Par.cells eng codec
      ~key:(fun (seed, mode, _, c) ->
        (Gen_config.mode_name mode, seed, c.Config.id, "*"))
      ~f:(fun _ (_, _, prep, c) ->
        Par.use prep @@ fun prep ->
        let off, st_off = Driver.run_prepared_stats ?fuel c ~opt:false prep in
        let on, st_on = Driver.run_prepared_stats ?fuel c ~opt:true prep in
        ((off, on), Interp.add_stats st_off st_on))
      tasks
  in
  (* deterministic merge: per kernel, majority over all its results, then
     per-config bucket accumulation in task order *)
  List.iter
    (fun kernel_pairs ->
      let buckets =
        Par.vote eng (List.concat_map (fun (a, b) -> [ a; b ]) kernel_pairs)
      in
      List.iteri
        (fun j b ->
          let i = j / 2 in
          tot.(i) <- tot.(i) + 1;
          match b with
          | Majority.B_wrong -> wrong.(i) <- wrong.(i) + 1
          | Majority.B_bf -> bf.(i) <- bf.(i) + 1
          | Majority.B_crash -> cr.(i) <- cr.(i) + 1
          | Majority.B_timeout -> tmo.(i) <- tmo.(i) + 1
          | Majority.B_ok -> ())
        buckets)
    (Par.chunk (List.length configs) pairs);
  let reports =
    List.mapi
      (fun i c ->
        let fails = wrong.(i) + bf.(i) + cr.(i) + tmo.(i) in
        let frac = if tot.(i) = 0 then 0.0 else float fails /. float tot.(i) in
        {
          config = c;
          total = tot.(i);
          wrong = wrong.(i);
          build_failures = bf.(i);
          crashes = cr.(i);
          timeouts = tmo.(i);
          fail_fraction = frac;
          above = frac <= 0.25 && not c.Config.manual_below;
        })
      configs
  in
  { per_mode; discarded_sharing; reports }

let to_table (t : t) =
  let rows =
    List.map
      (fun r ->
        [
          string_of_int r.config.Config.id;
          r.config.Config.sdk;
          r.config.Config.device;
          r.config.Config.driver;
          Config.device_type_name r.config.Config.device_type;
          string_of_int r.wrong;
          string_of_int r.build_failures;
          string_of_int r.crashes;
          string_of_int r.timeouts;
          Printf.sprintf "%.1f%%" (100. *. r.fail_fraction);
          (if r.above then "YES" else "no");
          (if r.config.Config.above_threshold then "YES" else "no");
        ])
      t.reports
  in
  Table_fmt.render_titled
    ~title:
      (Printf.sprintf
         "Table 1: configurations and reliability threshold (%d initial \
          kernels/mode, %d discarded for counter sharing)"
         t.per_mode t.discarded_sharing)
    ~header:
      [ "Conf."; "SDK"; "Device"; "Driver"; "Type"; "w"; "bf"; "c"; "to";
        "fail%"; "above?"; "paper" ]
    rows

let agreement_with_paper (t : t) =
  let agree =
    List.length
      (List.filter
         (fun r -> r.above = r.config.Config.above_threshold)
         t.reports)
  in
  (agree, List.length t.reports)
