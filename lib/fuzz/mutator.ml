open Ast

type op =
  | Opt_tweak
  | Lit_tweak
  | Swizzle_shuffle
  | Geom_tweak
  | Splice
  | Emi_graft
  | Emi_prune

let op_name = function
  | Opt_tweak -> "opt-tweak"
  | Lit_tweak -> "lit-tweak"
  | Swizzle_shuffle -> "swizzle-shuffle"
  | Geom_tweak -> "geom-tweak"
  | Splice -> "splice"
  | Emi_graft -> "emi-graft"
  | Emi_prune -> "emi-prune"

(* the race-detect reference run must finish within this budget — well
   under the cells' 250k default, both to bound the (sequential) cost of
   the gate and to reject mutants that would only time out downstream *)
let gate_fuel = 60_000

(* the reducer's concurrency-aware gate, plus the determinism discipline
   (splice can import a thread-dependent condition; Validate rejects it) *)
let well_formed (tc : testcase) =
  match Typecheck.check_testcase tc with
  | Error _ -> false
  | Ok () -> (
      match Validate.check tc.prog with
      | Error _ -> false
      | Ok () -> (
          let config =
            {
              Interp.default_config with
              Interp.detect_races = true;
              fuel = gate_fuel;
            }
          in
          match (Interp.run ~config tc).Interp.outcome with
          | Outcome.Ub _ | Outcome.Timeout -> false
          | _ -> true))

(* --- per-operator rewrites ------------------------------------------- *)

let count_exprs pred p =
  fold_program_blocks
    (fun acc b -> fold_exprs (fun n e -> if pred e then n + 1 else n) acc b)
    0 p

(* rewrite the [target]-th expression satisfying [pred]; mapper hooks run
   bottom-up but visit each node exactly once, so indexing is stable *)
let map_nth_expr pred f target p =
  let counter = ref (-1) in
  Ast_map.program
    {
      Ast_map.default with
      Ast_map.map_expr =
        (fun e ->
          if pred e then begin
            incr counter;
            if !counter = target then f e else e
          end
          else e);
    }
    p

let opt_tweak rng (tc : testcase) =
  let prog' = Mutate.apply ~seed:(Rng.int64 rng) tc.prog in
  if prog' == tc.prog || prog' = tc.prog then None
  else Some { tc with prog = prog' }

let is_const = function Const _ -> true | _ -> false

let lit_tweak rng (tc : testcase) =
  let total = count_exprs is_const tc.prog in
  if total = 0 then None
  else begin
    let target = Rng.int rng total in
    let kind = Rng.int rng 4 in
    let tweak = function
      | Const c ->
          let v = c.value in
          let v' =
            match kind with
            | 0 -> Int64.add v 1L
            | 1 -> Int64.sub v 1L
            | 2 -> Int64.logxor v 1L
            | _ -> Int64.mul v 2L
          in
          Const { c with value = v' }
      | e -> e
    in
    Some { tc with prog = map_nth_expr is_const tweak target tc.prog }
  end

let is_swizzle = function Swizzle _ -> true | _ -> false

let swizzle_shuffle rng (tc : testcase) =
  let total = count_exprs is_swizzle tc.prog in
  if total = 0 then None
  else begin
    let target = Rng.int rng total in
    let shuffle = function
      | Swizzle (e, idxs) ->
          let a = Array.of_list idxs in
          let p = Rng.permutation rng (Array.length a) in
          Swizzle (e, Array.to_list (Array.map (fun i -> a.(i)) p))
      | e -> e
    in
    Some { tc with prog = map_nth_expr is_swizzle shuffle target tc.prog }
  end

(* launch-geometry rewrites that never grow the total thread count, so
   every buffer sized for the original launch stays large enough *)
let geom_tweak rng (tc : testcase) =
  let gx, gy, gz = tc.global_size and lx, ly, lz = tc.local_size in
  let options =
    (if gx <> gy || lx <> ly then
       [ { tc with global_size = (gy, gx, gz); local_size = (ly, lx, lz) } ]
     else [])
    @ (if gx > lx then
         [ { tc with global_size = (lx, gy, gz) } ]
       else [])
    @ (if gy > ly then
         [ { tc with global_size = (gx, ly, gz) } ]
       else [])
    @
    if gx > 1 then
      [ { tc with global_size = (1, gy, gz); local_size = (1, ly, lz) } ]
    else []
  in
  match options with [] -> None | _ -> Some (Rng.choose rng options)

(* statements a donor can contribute: anything self-contained that is
   legal at the top level of a kernel body *)
let spliceable = function
  | Decl _ | Assign _ | Expr _ | If _ | For _ | While _ | Block _ | Barrier _ ->
      true
  | Break | Continue | Return _ | Emi _ -> false

let splice rng donor (tc : testcase) =
  match donor () with
  | None -> None
  | Some (d : testcase) ->
      let candidates =
        List.rev
          (fold_stmts
             (fun acc s -> if spliceable s then s :: acc else acc)
             [] d.prog.kernel.body)
      in
      if candidates = [] then None
      else begin
        (* most grafts reference names the host kernel lacks; cheap
           typecheck-filtered attempts keep the acceptance rate useful *)
        let body = tc.prog.kernel.body in
        let len = List.length body in
        let rec attempt k =
          if k = 0 then None
          else begin
            let s = Rng.choose rng candidates in
            let pos = Rng.int rng (len + 1) in
            let body' =
              List.concat
                [
                  List.filteri (fun i _ -> i < pos) body;
                  [ s ];
                  List.filteri (fun i _ -> i >= pos) body;
                ]
            in
            let tc' =
              {
                tc with
                prog =
                  {
                    tc.prog with
                    kernel = { tc.prog.kernel with body = body' };
                  };
              }
            in
            match Typecheck.check_testcase tc' with
            | Ok () -> Some tc'
            | Error _ -> attempt (k - 1)
          end
        in
        attempt 6
      end

let emi_graft rng (tc : testcase) =
  if emi_block_count tc.prog > 0 || tc.prog.dead_size > 0 then None
  else
    let subst = Rng.bool_p rng 0.5 in
    let seed = Rng.int rng 1_000_000 in
    let injected =
      Inject.inject ~subst ~cfg:(Gen_config.scaled Gen_config.All) ~seed tc
    in
    Some injected.Inject.testcase

let emi_prune rng (tc : testcase) =
  if emi_block_count tc.prog = 0 then None
  else
    let params = Rng.choose rng Prune.paper_combinations in
    Some { tc with prog = Prune.prune_program (Rng.split rng) params tc.prog }

(* --- driver ----------------------------------------------------------- *)

(* weighted towards operators that change what triage and the coverage
   map can see. Splice imports trigger constructs (atomics, barriers,
   vector ops) from a donor and so moves the kernel to a new trigger
   signature; geometry tweaks change how the same code reacts to each
   configuration (the Fig 1(b) lesson). Literal/expression tweaks mostly
   re-explore the parent's own bucket, so they get less of the budget. *)
let op_weights =
  [
    (Opt_tweak, 2);
    (Lit_tweak, 2);
    (Swizzle_shuffle, 1);
    (Geom_tweak, 3);
    (Splice, 5);
    (Emi_graft, 1);
    (Emi_prune, 2);
  ]

let apply_op rng donor op tc =
  match op with
  | Opt_tweak -> opt_tweak rng tc
  | Lit_tweak -> lit_tweak rng tc
  | Swizzle_shuffle -> swizzle_shuffle rng tc
  | Geom_tweak -> geom_tweak rng tc
  | Splice -> splice rng donor tc
  | Emi_graft -> emi_graft rng tc
  | Emi_prune -> emi_prune rng tc

let max_attempts = 8

(* a mutant that keeps its parent's trigger signature and launch
   geometry can only re-find the parent's triage buckets; one that moves
   either can find distinct bugs *)
let moves_bucket ~parent ~parent_sig (tc' : testcase) =
  tc'.global_size <> parent.global_size
  || tc'.local_size <> parent.local_size
  || Triage.signature_of_features (Features.of_testcase tc') <> parent_sig

let mutate ~rng ~donor (tc : testcase) =
  let parent_sig = Triage.signature_of_features (Features.of_testcase tc) in
  (* first well-formed mutant that does NOT move buckets, kept in case no
     attempt produces one that does; gated lazily so the expensive
     reference run happens at most once for non-movers *)
  let fallback = ref None in
  let rec go k =
    if k = 0 then !fallback
    else begin
      let op = Rng.weighted rng op_weights in
      match apply_op rng donor op tc with
      | Some tc' when tc' <> tc ->
          if moves_bucket ~parent:tc ~parent_sig tc' then
            if well_formed tc' then Some (op, tc') else go (k - 1)
          else begin
            if !fallback = None && well_formed tc' then
              fallback := Some (op, tc');
            go (k - 1)
          end
      | _ -> go (k - 1)
    end
  in
  go max_attempts
