type t = {
  campaign : string;
  n : int;
  seed0 : int;
  fuel : int option;
  config_ids : int list option;
  variants : int;
  feedback : bool;
  gen_size : int;
  minimize : bool;
}

let campaigns = [ "table1"; "table3"; "table4"; "table5"; "fuzz" ]

let default_seed0 = function
  | "table1" -> 1
  | "table3" -> 90_000
  | "table4" -> 10_000
  | "table5" -> 50_000
  | _ -> 1

let default_variants = function "table3" -> 12 | _ -> 10

let default_n = function
  | "table1" -> 10
  | "table3" -> default_variants "table3"
  | "table4" -> 60
  | "table5" -> 15
  | _ -> Fuzz_loop.default_budget

let make ~campaign ~n ?seed0 ?fuel ?config_ids ?variants ?(feedback = true)
    ?(gen_size = Fuzz_loop.default_gen_size) ?(minimize = false) () =
  if not (List.mem campaign campaigns) then
    Error
      (Printf.sprintf "unknown campaign %S (expected %s)" campaign
         (String.concat " | " campaigns))
  else
    Ok
      {
        campaign;
        n;
        seed0 =
          (match seed0 with Some s -> s | None -> default_seed0 campaign);
        fuel;
        config_ids;
        variants =
          (match variants with
          | Some v -> v
          | None -> default_variants campaign);
        feedback;
        gen_size;
        minimize;
      }

(* ------------------------------------------------------------------ *)
(* Codec                                                               *)
(* ------------------------------------------------------------------ *)

let opt_int = function None -> Jsonl.Null | Some i -> Jsonl.Int i

let opt_ids = function
  | None -> Jsonl.Null
  | Some ids -> Jsonl.List (List.map (fun i -> Jsonl.Int i) ids)

let to_json t =
  Jsonl.Obj
    [
      ("campaign", Jsonl.Str t.campaign);
      ("n", Jsonl.Int t.n);
      ("seed0", Jsonl.Int t.seed0);
      ("fuel", opt_int t.fuel);
      ("configs", opt_ids t.config_ids);
      ("variants", Jsonl.Int t.variants);
      ("feedback", Jsonl.Bool t.feedback);
      ("gen_size", Jsonl.Int t.gen_size);
      ("minimize", Jsonl.Bool t.minimize);
    ]

let of_json j =
  let int name = Option.bind (Jsonl.member name j) Jsonl.get_int in
  let str name = Option.bind (Jsonl.member name j) Jsonl.get_str in
  let bool name =
    match Jsonl.member name j with Some (Jsonl.Bool b) -> Some b | _ -> None
  in
  let malformed = Error "malformed campaign spec" in
  match
    ( (str "campaign", int "n", int "seed0", int "variants"),
      (bool "feedback", int "gen_size", bool "minimize") )
  with
  | ( (Some campaign, Some n, Some seed0, Some variants),
      (Some feedback, Some gen_size, Some minimize) ) -> (
      if not (List.mem campaign campaigns) then
        Error (Printf.sprintf "unknown campaign %S" campaign)
      else
        let fuel =
          match Jsonl.member "fuel" j with
          | Some (Jsonl.Int f) -> Ok (Some f)
          | Some Jsonl.Null -> Ok None
          | _ -> malformed
        in
        let config_ids =
          match Jsonl.member "configs" j with
          | Some (Jsonl.Int _) | Some (Jsonl.Str _) | Some (Jsonl.Bool _)
          | Some (Jsonl.Obj _) | None ->
              malformed
          | Some Jsonl.Null -> Ok None
          | Some (Jsonl.List l) ->
              let ids = List.filter_map Jsonl.get_int l in
              if List.length ids = List.length l then Ok (Some ids)
              else malformed
        in
        match (fuel, config_ids) with
        | Ok fuel, Ok config_ids ->
            Ok
              {
                campaign;
                n;
                seed0;
                fuel;
                config_ids;
                variants;
                feedback;
                gen_size;
                minimize;
              }
        | _ -> malformed)
  | _ -> malformed

(* ------------------------------------------------------------------ *)
(* Grid geometry                                                       *)
(* ------------------------------------------------------------------ *)

let header t =
  match t.campaign with
  | "table1" ->
      Classify.journal_header ?fuel:t.fuel ~per_mode:t.n ~seed0:t.seed0 ()
  | "table3" ->
      Bench_emi.journal_header ?fuel:t.fuel ~variants:t.variants
        ~seed0:t.seed0 ?config_ids:t.config_ids ()
  | "table4" ->
      Campaign.journal_header ?fuel:t.fuel ~per_mode:t.n ~seed0:t.seed0
        ?config_ids:t.config_ids ()
  | "table5" ->
      Emi_campaign.journal_header ?fuel:t.fuel ~bases:t.n
        ~variants:t.variants ~seed0:t.seed0 ?config_ids:t.config_ids ()
  | _ ->
      Fuzz_loop.journal_header ?fuel:t.fuel ~budget:t.n ~seed:t.seed0
        ?config_ids:t.config_ids ~feedback:t.feedback ~gen_size:t.gen_size
        ~minimize:t.minimize ()

let n_configs t ~default =
  match t.config_ids with Some l -> List.length l | None -> default

let n_modes = List.length Gen_config.all_modes

let total_cells t =
  match t.campaign with
  | "table1" -> t.n * n_modes * List.length Config.all
  | "table3" ->
      List.length Suite.emi_eligible
      * n_configs t ~default:(List.length Bench_emi.default_configs)
  | "table4" ->
      t.n * n_modes
      * n_configs t ~default:(List.length Config.above_threshold_ids)
      * 2
  | "table5" ->
      t.n * n_configs t ~default:(List.length Config.above_threshold_ids) * 2
  | _ -> t.n * Fuzz_loop.cells_per_kernel ?config_ids:t.config_ids ()

let boundaries t =
  match t.campaign with
  | "fuzz" ->
      let cpk = Fuzz_loop.cells_per_kernel ?config_ids:t.config_ids () in
      let rec gens done_kernels lo acc =
        if done_kernels >= t.n then List.rev acc
        else
          let kernels = min t.gen_size (t.n - done_kernels) in
          let hi = lo + (kernels * cpk) in
          gens (done_kernels + kernels) hi ((lo, hi) :: acc)
      in
      gens 0 0 []
  | _ -> [ (0, total_cells t) ]

let lease_cells t ~workers =
  max 1
    (match t.campaign with
    | "fuzz" ->
        t.gen_size * Fuzz_loop.cells_per_kernel ?config_ids:t.config_ids ()
        / max 1 workers
    | _ -> total_cells t / max 1 (workers * 2))

let clamp t ~gen =
  match t.campaign with
  | "fuzz" -> { t with n = min t.n ((gen + 1) * t.gen_size) }
  | _ -> t

(* ------------------------------------------------------------------ *)
(* Dispatch                                                            *)
(* ------------------------------------------------------------------ *)

type summary = Table of string | Fuzz of Fuzz_loop.result

let run_local ?jobs ?sink ?events ?resume ?exec_filter t =
  match t.campaign with
  | "table1" ->
      let t1 =
        Classify.run ?jobs ?fuel:t.fuel ~per_mode:t.n ~seed0:t.seed0 ?sink
          ?resume ?exec_filter ()
      in
      let a, total = Classify.agreement_with_paper t1 in
      (* match table1_cmd's text output exactly: the CLI appends one
         newline to a [Table], so the agreement line carries none here. *)
      Table
        (Classify.to_table t1 ^ "\n"
        ^ Printf.sprintf
            "classification agreement with the paper's Table 1: %d/%d" a
            total)
  | "table3" ->
      Table
        (Bench_emi.to_table
           (Bench_emi.run ?jobs ?fuel:t.fuel ~variants:t.variants
              ~seed0:t.seed0 ?config_ids:t.config_ids ?sink ?resume
              ?exec_filter ()))
  | "table4" ->
      Table
        (Campaign.to_table
           (Campaign.run ?jobs ?fuel:t.fuel ~per_mode:t.n ~seed0:t.seed0
              ?config_ids:t.config_ids ?sink ?resume ?exec_filter ()))
  | "table5" ->
      Table
        (Emi_campaign.to_table
           (Emi_campaign.run ?jobs ?fuel:t.fuel ~bases:t.n
              ~variants:t.variants ~seed0:t.seed0 ?config_ids:t.config_ids
              ?sink ?resume ?exec_filter ()))
  | _ ->
      Fuzz
        (Fuzz_loop.run ?jobs ?fuel:t.fuel ~budget:t.n ~seed:t.seed0
           ?config_ids:t.config_ids ~feedback:t.feedback
           ~gen_size:t.gen_size ~minimize:t.minimize ?sink ?events ?resume
           ?exec_filter ())
