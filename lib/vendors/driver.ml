let fault_rate = function
  | Fault.Reject { rate; _ } | Fault.Compile_hang { rate; _ }
  | Fault.Runtime_crash { rate; _ } | Fault.Machine_crash { rate; _ }
  | Fault.Run_timeout { rate; _ } | Fault.Wrong_code { rate; _ }
  | Fault.Quirk { rate; _ } ->
      rate
  | Fault.Slow_compile _ | Fault.Buggy_rotate_fold -> 1.0

let salt_of (c : Config.t) ~opt i =
  (c.Config.id * 1000) + (if opt then 500 else 0) + i

let faults_of ?(noise = true) (c : Config.t) ~opt =
  let fs = if opt then c.Config.faults_on else c.Config.faults_off in
  if noise then fs else List.filter (fun f -> fault_rate f >= 1.0) fs

(* first front-end fault that fires, if any *)
let front_end ?noise (c : Config.t) ~opt (feats : Features.t) : Outcome.t option =
  let faults = faults_of ?noise c ~opt in
  let rec scan i = function
    | [] -> None
    | f :: rest -> (
        let salt = salt_of c ~opt i in
        match f with
        | Fault.Reject { message; rate; key; requires }
          when requires feats && Fault.gate key feats ~salt ~rate ->
            Some (Outcome.Build_failure message)
        | Fault.Compile_hang { rate; key; requires }
          when requires feats && Fault.gate key feats ~salt ~rate ->
            Some Outcome.Timeout
        | Fault.Slow_compile { requires } when requires feats ->
            Some Outcome.Timeout
        | _ -> scan (i + 1) rest)
  in
  scan 0 faults

let has_buggy_rotate (c : Config.t) ~opt =
  List.exists
    (function Fault.Buggy_rotate_fold -> true | _ -> false)
    (faults_of c ~opt)

let std_pipeline ~rotate_zero_bug =
  [
    Const_fold.pass ~rotate_zero_bug ();
    Simplify.pass ();
    Unroll.pass ();
    Dce.pass ();
    Const_fold.pass ~rotate_zero_bug ();
    Simplify.pass ();
  ]

(* Pass-pipeline results depend only on (optimising?, rotate bug?), so a
   prepared test case caches the four possibilities on first use, each
   beside its compiled form and its run memo. A run of the unmutated
   program is a function of the interpreter config and whether ticks are
   counted, so cells that agree on both (the prefilter and the 1+ cell,
   a non-optimising config's two opt levels) run once. Cells that agree
   on both up to the schedule form a group: the group's first run is
   witnessed ([Interp.exec_witnessed]) and, when it certifies that no
   schedule could change it, serves every cell of the group; otherwise
   each config of the group runs its own. Race-detecting configs are
   never grouped. The caches are Memo cells, not Lazy, because a
   prepared kernel is shared by every (config, opt-level) cell of a
   campaign and those cells run concurrently on pool domains. *)
type variant = {
  prog : Ast.program Memo.t;
  code : Interp.compiled Memo.t;
  runs : ((Interp.config * bool) * (Interp.run_result * bool) Memo.t) list Atomic.t;
      (* by config and profiling flag: the run, and whether it certified *)
}

let variant prog =
  {
    prog;
    code = Memo.make (fun () -> Interp.compile (Memo.force prog));
    runs = Atomic.make [];
  }

(* the variant's run under [config]: the run of this very config, else
   its group's certified run, else a new run — witnessed when it is the
   group's first. Whichever cell asks first makes the run. *)
let rec memo_run v ~config ~profile launch =
  let runs = Atomic.get v.runs in
  match List.assoc_opt (config, profile) runs with
  | Some m -> fst (Memo.force m)
  | None -> (
      (* a race-detecting config is a group of its own *)
      let grouped = not config.Interp.detect_races in
      let peer =
        if not grouped then None
        else
          List.find_opt
            (fun ((c, p), _) ->
              p = profile
              && { c with Interp.schedule = config.Interp.schedule } = config)
            runs
      in
      match Option.map (fun (_, m) -> Memo.force m) peer with
      | Some (r, true) -> r
      | peer_run ->
          let code = Memo.force v.code in
          let run () =
            if grouped && Option.is_none peer_run then
              Interp.exec_witnessed ~config ~profile code launch
            else (Interp.exec ~config ~profile code launch, false)
          in
          let m = Memo.make run in
          if Atomic.compare_and_set v.runs runs (((config, profile), m) :: runs) then
            fst (Memo.force m)
          else memo_run v ~config ~profile launch)

type prepared = {
  tc : Ast.testcase;
  feats : Features.t Memo.t;
  khash : string Memo.t; (* content hash of the printed source program *)
  plain : variant; (* no passes *)
  rotate_only : variant; (* Fig. 2(b) front-end folder at -O0 *)
  optimized : variant;
  optimized_rotate : variant;
}

let prepare (tc : Ast.testcase) =
  {
    tc;
    feats = Memo.make (fun () -> Features.of_testcase tc);
    khash =
      Memo.make (fun () ->
          Digest.to_hex (Digest.string (Pp.program_to_string tc.Ast.prog)));
    plain = variant (Memo.of_val tc.Ast.prog);
    rotate_only =
      variant
        (Memo.make (fun () ->
             Pass.pipeline [ Const_fold.pass ~rotate_zero_bug:true () ] tc.Ast.prog));
    optimized =
      variant
        (Memo.make (fun () ->
             Pass.pipeline (std_pipeline ~rotate_zero_bug:false) tc.Ast.prog));
    optimized_rotate =
      variant
        (Memo.make (fun () ->
             Pass.pipeline (std_pipeline ~rotate_zero_bug:true) tc.Ast.prog));
  }

let testcase_of p = p.tc
let features_of_prepared p = Memo.force p.feats

let variant_for (c : Config.t) ~opt (p : prepared) =
  let rotate = has_buggy_rotate c ~opt in
  if opt && c.Config.optimizes then
    if rotate then p.optimized_rotate else p.optimized
  else if rotate then p.rotate_only
  else p.plain

let apply_wrong_code ?noise (c : Config.t) ~opt feats prog =
  let faults = faults_of ?noise c ~opt in
  let _, prog =
    List.fold_left
      (fun (i, prog) f ->
        let salt = salt_of c ~opt i in
        match f with
        | Fault.Wrong_code { rate; key; requires }
          when requires feats && Fault.gate key feats ~salt ~rate ->
            let seed =
              Digest_util.mix
                (match key with
                | Fault.Full -> feats.Features.full_digest
                | Fault.Stable -> feats.Features.stable_digest)
                (Int64.of_int (salt + 77))
            in
            (i + 1, Mutate.apply ~seed prog)
        | _ -> (i + 1, prog))
      (0, prog) faults
  in
  prog

let assemble_profile ?noise (c : Config.t) ~opt feats =
  let faults = faults_of ?noise c ~opt in
  let _, profile =
    List.fold_left
      (fun (i, profile) f ->
        let salt = salt_of c ~opt i in
        match f with
        | Fault.Quirk { rate; key; requires; install }
          when requires feats && Fault.gate key feats ~salt ~rate ->
            (i + 1, install profile)
        | _ -> (i + 1, profile))
      (0, Profile.reference) faults
  in
  profile

(* crash / machine-crash / run-timeout decisions (pre-execution) *)
let runtime_fate ?noise (c : Config.t) ~opt feats : Outcome.t option =
  let faults = faults_of ?noise c ~opt in
  let rec scan i = function
    | [] -> None
    | f :: rest -> (
        let salt = salt_of c ~opt i in
        match f with
        | Fault.Runtime_crash { message; rate; key; requires }
          when requires feats && Fault.gate key feats ~salt ~rate ->
            Some (Outcome.Crash message)
        | Fault.Machine_crash { message; rate }
          when Fault.gate Fault.Full feats ~salt ~rate ->
            Some (Outcome.Machine_crash message)
        | Fault.Run_timeout { rate; key; requires }
          when requires feats && Fault.gate key feats ~salt ~rate ->
            Some Outcome.Timeout
        | _ -> scan (i + 1) rest)
  in
  scan 0 faults

let interp_config ?fuel (c : Config.t) profile =
  {
    Interp.default_config with
    Interp.schedule = Sched.Seeded c.Config.id;
    profile;
    fuel =
      (match fuel with
      | Some f -> f
      | None -> Interp.default_config.Interp.fuel);
  }

let compiled_program (c : Config.t) ~opt (tc : Ast.testcase) =
  let p = prepare tc in
  apply_wrong_code c ~opt (Memo.force p.feats)
    (Memo.force (variant_for c ~opt p).prog)

(* span name is only materialised when tracing is on *)
let exec_span ?flow (c : Config.t) ~opt f =
  if Span.enabled () then
    Span.with_ ~cat:"exec" ?flow
      (Printf.sprintf "exec:%d%c" c.Config.id (if opt then '+' else '-'))
      f
  else f ()

(* What a cell does: an outcome a fault decides without executing, or
   the program to execute (post-pass, post-mutation), its interpreter
   config and how to run it — on the variant's shared compiled form
   through its run memo, unless a wrong-code mutation made the program
   the cell's own. *)
type plan =
  | Decided of Outcome.t
  | Execute of
      Ast.program
      * Interp.config
      * (profile:bool -> Interp.compiled * Interp.run_result)

let plan ?noise ?fuel (c : Config.t) ~opt (p : prepared) =
  let feats = Memo.force p.feats in
  match front_end ?noise c ~opt feats with
  | Some o -> Decided o
  | None -> (
      match runtime_fate ?noise c ~opt feats with
      | Some o -> Decided o
      | None ->
          let v = variant_for c ~opt p in
          let source = Memo.force v.prog in
          let prog = apply_wrong_code ?noise c ~opt feats source in
          let config = interp_config ?fuel c (assemble_profile ?noise c ~opt feats) in
          let launch = { p.tc with Ast.prog } in
          let run ~profile =
            if prog == source then
              (Memo.force v.code, memo_run v ~config ~profile launch)
            else
              let code = Interp.compile prog in
              (code, Interp.exec ~config ~profile code launch)
          in
          Execute (prog, config, run))

let cell_program ?noise ?fuel c ~opt p =
  match plan ?noise ?fuel c ~opt p with
  | Decided _ -> None
  | Execute (prog, config, _) -> Some (prog, config)

let run_prepared_stats ?noise ?fuel ?flow (c : Config.t) ~opt (p : prepared) :
    Outcome.t * Interp.stats =
  match plan ?noise ?fuel c ~opt p with
  | Decided o -> (o, Interp.zero_stats)
  | Execute (_, _, run) ->
      let profiling = Costprof.enabled () in
      (* compiling is execution cost: it happens inside the exec span, as
         does a memoized run's lookup *)
      let code, r = exec_span ?flow c ~opt (fun () -> run ~profile:profiling) in
      let stats =
        if profiling then
          {
            r.Interp.stats with
            Interp.prof =
              [
                {
                  Costprof.khash = Memo.force p.khash;
                  config = c.Config.id;
                  opt = (if opt then "+" else "-");
                  ticks = Costwalk.ticks r.Interp.ticks;
                  constructs = Interp.constructs code r.Interp.ticks;
                };
              ];
          }
        else r.Interp.stats
      in
      (* a real device does not diagnose UB: it just misbehaves *)
      (match r.Interp.outcome with
      | Outcome.Ub m -> (Outcome.Crash ("undefined behaviour: " ^ m), stats)
      | o -> (o, stats))

let run_prepared ?noise ?fuel (c : Config.t) ~opt (p : prepared) : Outcome.t =
  fst (run_prepared_stats ?noise ?fuel c ~opt p)

let run ?noise (c : Config.t) ~opt tc = run_prepared ?noise c ~opt (prepare tc)

let run_both c tc =
  let p = prepare tc in
  (run_prepared c ~opt:false p, run_prepared c ~opt:true p)

let reference_outcome ?(detect_races = false) tc =
  let config = { Interp.default_config with Interp.detect_races } in
  Interp.run_outcome ~config tc
