open Ast
module R = Rt_value

type config = {
  fuel : int;
  schedule : Sched.t;
  detect_races : bool;
  check_divergence : bool;
  layout : Layout.policy;
  profile : Profile.t;
}

let default_config =
  {
    fuel = 250_000;
    schedule = Sched.default;
    detect_races = false;
    check_divergence = true;
    layout = Layout.standard;
    profile = Profile.reference;
  }

type stats = {
  steps : int;
  barriers : int;
  atomics : int;
  race_checks : int;
  prof : Costprof.cell list;
}

let zero_stats =
  { steps = 0; barriers = 0; atomics = 0; race_checks = 0; prof = [] }

let add_stats a b =
  {
    steps = a.steps + b.steps;
    barriers = a.barriers + b.barriers;
    atomics = a.atomics + b.atomics;
    race_checks = a.race_checks + b.race_checks;
    prof = a.prof @ b.prof;
  }

type run_result = {
  outcome : Outcome.t;
  races : Race.race list;
  stats : stats;
  ticks : int array;
}

exception Rt_crash of string
exception Fuel_exhausted
exception Divergence of string

(* ------------------------------------------------------------------ *)
(* Launch / group / thread state                                       *)
(* ------------------------------------------------------------------ *)

(* work tally for the whole launch; groups and their threads run
   serially on one domain, so plain mutable fields suffice *)
type tally = {
  mutable t_steps : int;
  mutable t_barriers : int;
  mutable t_atomics : int;
  mutable t_race_checks : int;
}

(* the schedule witness of [exec_witnessed]; see [witness_leaf] *)
type witness = {
  mutable live : bool;  (* watching, and nothing found yet *)
  mutable slots : int array;  (* per shared location: stamp, writer, reader *)
}

type launch = {
  cfg : config;
  ctx : R.alloc_ctx;
  nd : Ndrange.t;
  free : R.cell option array;  (* the compiled form's free names, resolved *)
  params : R.cell option array;  (* the kernel parameters' buffers *)
  race : Race.t;
  wit : witness;
  mutable watching : bool;  (* races detected or witness live: accesses are fed *)
}

type group_state = {
  g : int;
  shared : R.cell option array;  (* local-space decls, by name *)
  mutable epoch_local : int;
  mutable epoch_global : int;
}

(* one activation's variables, by slot *)
type frame = R.cell array

type thread_state = {
  th : Ndrange.thread;
  t_lin : int;
  l_lin : int;
  l : launch;
  grp : group_state;
  tally : tally;
  profiling : bool;
  counts : int array;  (* cost-profile ticks, one per slot when profiling *)
  mutable fuel : int;
  mutable loop_iters : int list;
  mutable call_depth : int;
  mutable lost_writes : bool;  (* Pwb_callee_barrier armed *)
  mutable barrier_seen : bool; (* Pwb_after_barrier armed *)
  mutable via_ptr : bool;  (* the last lvalue was reached through a pointer *)
  mutable fr : frame;  (* the running function's *)
}

(* a barrier site is the number of its statement occurrence *)
type barrier_info = { site : int; iters : int list; fence : Op.fence }

type _ Effect.t += Br : barrier_info -> unit Effect.t

type thread_status =
  | Done
  | At_barrier of barrier_info * (unit, thread_status) Effect.Deep.continuation

type flow = F_normal | F_break | F_continue | F_return of R.value option

(* Compiled nodes. A node's cost tick (and a statement's fuel charge) is
   made by whoever runs it, just before running it: leaves then carry no
   slot of their own and are shared between nodes. *)
type cexpr = thread_state -> R.value

(* sets [via_ptr] before returning *)
type clval = thread_state -> R.lvalue

type cstmt = thread_state -> flow

type cinit = CI_expr of int * cexpr | CI_list of cinit array

(* [cf_slots] and [cf_body] are set once while compiling: a call is
   compiled before its callee's body, which may call back *)
type cfunc = {
  cf_ret : Ty.t;
  cf_params : Ty.t array;
  mutable cf_slots : int;
  mutable cf_body : cstmt;
}

type compiled = {
  source : program;
  kernel : cfunc;
  free_names : string array;
  n_locals : int;
  n_ticks : int;  (* cost-profile slots *)
  names : Costwalk.t Memo.t;  (* slot names, built by the first decode *)
}

let spend ts n =
  ts.tally.t_steps <- ts.tally.t_steps + n;
  ts.fuel <- ts.fuel - n;
  if ts.fuel <= 0 then raise Fuel_exhausted

let tick ts slot =
  if ts.profiling then
    Array.unsafe_set ts.counts slot (Array.unsafe_get ts.counts slot + 1)

(* ------------------------------------------------------------------ *)
(* Race recording                                                      *)
(* ------------------------------------------------------------------ *)

let record ts ~loc ~space kind ~atomic =
  match space with
  | Ty.Local | Ty.Global ->
      ts.tally.t_race_checks <- ts.tally.t_race_checks + 1;
      let epoch =
        match space with
        | Ty.Local -> ts.grp.epoch_local
        | _ -> ts.grp.epoch_global
      in
      Race.record ts.l.race ~loc ~thread:ts.t_lin ~group:ts.grp.g ~kind ~atomic
        ~epoch ~space
  | Ty.Private | Ty.Constant -> ()

(* The schedule witness. Groups run one after another, and a schedule
   only permutes one group's threads at each rendezvous, so a run can
   depend on its schedule only through an atomic (see [catomic]), a
   private address published in shared memory (see [write_lv]), or
   through two threads of one group touching one shared location within
   one barrier epoch of its space, one of them writing. Per shared leaf
   location the witness keeps the stamp (group, epoch) of the accesses
   seen so far, the thread that wrote under that stamp (-1: none) and the
   thread that read (-1: none, -2: two or more). It stops at its first
   finding, counts no race check and changes nothing else in the run. *)
let refute ts =
  ts.l.wit.live <- false;
  ts.l.watching <- ts.l.cfg.detect_races

let witness_leaf ts (c : R.cell) kind =
  let w = ts.l.wit in
  let i = 3 * c.R.loc in
  if i + 2 >= Array.length w.slots then begin
    let grown = Array.make (max 192 (2 * (i + 3))) (-1) in
    Array.blit w.slots 0 grown 0 (Array.length w.slots);
    w.slots <- grown
  end;
  let s = w.slots and t = ts.t_lin in
  let epoch =
    match c.R.space with Ty.Local -> ts.grp.epoch_local | _ -> ts.grp.epoch_global
  in
  let stamp = (ts.grp.g lsl 32) lor epoch in
  if Array.unsafe_get s i <> stamp then begin
    Array.unsafe_set s i stamp;
    Array.unsafe_set s (i + 1) (-1);
    Array.unsafe_set s (i + 2) (-1)
  end;
  let writer = Array.unsafe_get s (i + 1) and reader = Array.unsafe_get s (i + 2) in
  if writer >= 0 && writer <> t then refute ts
  else
    match kind with
    | Race.Write ->
        if reader = -1 || reader = t then Array.unsafe_set s (i + 1) t else refute ts
    | Race.Read ->
        Array.unsafe_set s (i + 2) (if reader = -1 || reader = t then t else -2)

(* a struct or array is touched through each of its leaves, as its
   members' own accesses are *)
let rec witness_cell ts (c : R.cell) kind =
  match c.R.content with
  | R.C_struct (_, cs) | R.C_array (_, cs) ->
      Array.iter (fun m -> witness_cell ts m kind) cs
  | _ -> witness_leaf ts c kind

let lv_cell = function R.L_cell c | R.L_bytes (c, _, _) | R.L_comp (c, _) -> c

(* feed one access of a local or global cell — the cells that have a
   location — to the race detector and the witness *)
let watch ts (c : R.cell) kind ~atomic =
  if ts.l.cfg.detect_races then record ts ~loc:c.R.loc ~space:c.R.space kind ~atomic;
  if ts.l.wit.live then witness_cell ts c kind

let record_access ts lv kind ~atomic =
  if ts.l.watching then
    let c = lv_cell lv in
    if c.R.loc >= 0 then watch ts c kind ~atomic

(* an access the race detector does not see: a quirk's own *)
let witness_only ts lv kind =
  let c = lv_cell lv in
  if ts.l.wit.live && c.R.loc >= 0 then witness_cell ts c kind

let read_lv ts lv =
  record_access ts lv Race.Read ~atomic:false;
  R.read ts.l.ctx lv

(* the race record of reading cell [c] *)
let note_read ts (c : R.cell) =
  if ts.l.watching && c.R.loc >= 0 then watch ts c Race.Read ~atomic:false

(* [read_lv] of a whole cell, without building the lvalue for leaves *)
let read_cell ts (c : R.cell) =
  note_read ts c;
  match c.R.content with
  | R.C_scalar s -> R.V_scalar s
  | R.C_vector v -> R.V_vector v
  | R.C_ptr p -> R.V_ptr p
  | R.C_struct _ | R.C_union _ | R.C_array _ -> R.read ts.l.ctx (R.L_cell c)

(* does value [v] hold a pointer to a cell without a location? Stored in
   shared memory, it would let other threads reach the storer's private
   cells, whose accesses nothing watches *)
let rec leaks_private (v : R.value) =
  match v with
  | R.V_ptr (Some p) -> p.R.target.R.loc < 0
  | R.V_agg c -> holds_private c
  | R.V_ptr None | R.V_scalar _ | R.V_vector _ -> false

and holds_private (c : R.cell) =
  match c.R.content with
  | R.C_ptr (Some p) -> p.R.target.R.loc < 0
  | R.C_struct (_, cs) | R.C_array (_, cs) -> Array.exists holds_private cs
  | R.C_ptr None | R.C_scalar _ | R.C_vector _ | R.C_union _ -> false

let write_lv ts lv v =
  record_access ts lv Race.Write ~atomic:false;
  if ts.l.watching && ts.l.wit.live && (lv_cell lv).R.loc >= 0 && leaks_private v
  then refute ts;
  let skip_arrays =
    ts.l.cfg.profile.Profile.struct_copy_drop_arrays
    && match v with R.V_agg _ -> true | _ -> false
  in
  R.write ~skip_arrays ts.l.ctx lv v

(* ------------------------------------------------------------------ *)
(* Value helpers                                                       *)
(* ------------------------------------------------------------------ *)

let as_scalar what = function
  | R.V_scalar s -> s
  | R.V_vector _ -> raise (Rt_crash (what ^ ": vector where scalar expected"))
  | R.V_ptr _ -> raise (Rt_crash (what ^ ": pointer where scalar expected"))
  | R.V_agg _ -> raise (Rt_crash (what ^ ": aggregate where scalar expected"))

let as_int what v = Int64.to_int (Scalar.to_int64 (as_scalar what v))

let as_pointer what = function
  | R.V_ptr (Some p) -> p
  | R.V_ptr None -> raise (Rt_crash (what ^ ": null pointer dereference"))
  | _ -> raise (Rt_crash (what ^ ": non-pointer dereference"))

let truth v = Scalar.is_true (as_scalar "condition" v)

(* does an expression's subtree mention a group id? (Fig. 2(e) quirk) *)
let rec mentions_group_id (e : expr) =
  match e with
  | Thread_id (Op.Group_id _) | Thread_id Op.Group_linear_id -> true
  | Const _ | Var _ | Thread_id _ -> false
  | Unop (_, a) | Safe_neg a | Cast (_, a) | Field (a, _) | Arrow (a, _)
  | Deref a | Addr_of a | Swizzle (a, _) ->
      mentions_group_id a
  | Binop (_, a, b) | Safe_binop (_, a, b) | Index (a, b) ->
      mentions_group_id a || mentions_group_id b
  | Cond (a, b, c) ->
      mentions_group_id a || mentions_group_id b || mentions_group_id c
  | Builtin (_, args) | Call (_, args) | Vec_lit (_, _, args) ->
      List.exists mentions_group_id args
  | Atomic (_, p, args) -> List.exists mentions_group_id (p :: args)

let block_contains_barrier b =
  fold_stmts
    (fun acc s -> acc || match s with Barrier _ -> true | _ -> false)
    false b

(* ------------------------------------------------------------------ *)
(* Scalar/vector operator dispatch                                     *)
(* ------------------------------------------------------------------ *)

(* The lifts dispatch on the operator when partially applied: compiled
   nodes bind [lift_unop op] and [lift_binop ~safe op] once. *)
let lift_unop op =
  let f =
    match op with
    | Op.Neg -> Scalar.neg
    | Op.BitNot -> Scalar.bit_not
    | Op.LogNot -> Scalar.log_not
  in
  fun (v : R.value) : R.value ->
    match v with
    | R.V_scalar s -> R.V_scalar (f s)
    | R.V_vector vv when op = Op.LogNot ->
        (* !v on vectors: 0 components become -1, others 0 *)
        let rty = { (Vecval.elem_ty vv) with Ty.sign = Ty.Signed } in
        R.V_vector
          (Vecval.map
             (fun c ->
               if Scalar.is_zero c then Scalar.make rty (-1L) else Scalar.zero rty)
             (Vecval.convert rty vv))
    | R.V_vector vv -> R.V_vector (Vecval.map f vv)
    | _ -> raise (Rt_crash "unary operator on non-integer value")

let lift_binop ~safe op =
  let sop = if safe then Scalar.safe_binop op else Scalar.binop op in
  let vop =
    if Op.is_comparison op || Op.is_shortcircuit op then Vecval.binop op
    else Vecval.map2 sop
  in
  fun (a : R.value) (b : R.value) : R.value ->
    match (a, b) with
    | R.V_scalar x, R.V_scalar y -> R.V_scalar (sop x y)
    | R.V_vector x, R.V_vector y -> R.V_vector (vop x y)
    | R.V_vector x, R.V_scalar y ->
        R.V_vector (vop x (Vecval.splat (Vecval.elem_ty x) (Vecval.vlen x) y))
    | R.V_scalar x, R.V_vector y ->
        R.V_vector (vop (Vecval.splat (Vecval.elem_ty y) (Vecval.vlen y) x) y)
    | (R.V_ptr _ as p), (R.V_ptr _ as q) when Op.is_comparison op ->
        let same =
          match (p, q) with
          | R.V_ptr (Some a'), R.V_ptr (Some b') -> a'.R.target == b'.R.target
          | R.V_ptr None, R.V_ptr None -> true
          | _ -> false
        in
        let b =
          match op with
          | Op.Eq -> same
          | Op.Ne -> not same
          | _ -> raise (Rt_crash "ordered comparison of pointers")
        in
        R.V_scalar (Scalar.of_int Ty.int_scalar (if b then 1 else 0))
    | _ -> raise (Rt_crash "binary operator on incompatible values")

(* the scalar function of a two-operand built-in *)
let builtin2 : Op.builtin -> (Scalar.t -> Scalar.t -> Scalar.t) option = function
  | Op.Rotate -> Some Scalar.rotate
  | Op.Min -> Some Scalar.min_v
  | Op.Max -> Some Scalar.max_v
  | Op.Add_sat -> Some Scalar.add_sat
  | Op.Sub_sat -> Some Scalar.sub_sat
  | Op.Hadd -> Some Scalar.hadd
  | Op.Mul_hi -> Some Scalar.mul_hi
  | Op.Clamp | Op.Safe_clamp | Op.Abs -> None

let builtin_scalar (b : Op.builtin) (args : Scalar.t list) =
  match (b, args, builtin2 b) with
  | (Op.Clamp | Op.Safe_clamp), [ x; lo; hi ], _ -> Scalar.clamp x lo hi
  | Op.Abs, [ x ], _ -> Scalar.abs_v x
  | _, [ x; y ], Some f -> f x y
  | _ -> raise (Rt_crash ("builtin arity: " ^ Op.builtin_name b))

let lift_builtin b (args : R.value list) : R.value =
  let is_vec = List.exists (function R.V_vector _ -> true | _ -> false) args in
  if not is_vec then
    R.V_scalar (builtin_scalar b (List.map (as_scalar "builtin") args))
  else
    let elem, vl =
      match List.find (function R.V_vector _ -> true | _ -> false) args with
      | R.V_vector v -> (Vecval.elem_ty v, Vecval.vlen v)
      | _ -> assert false
    in
    let vecs =
      List.map
        (function
          | R.V_vector v -> v
          | R.V_scalar s -> Vecval.splat elem vl s
          | _ -> raise (Rt_crash "builtin on non-integer value"))
        args
    in
    let n = Ty.vlen_to_int vl in
    let comps =
      Array.init n (fun i ->
          builtin_scalar b (List.map (fun v -> Vecval.get v i) vecs))
    in
    let rty = (comps.(0)).Scalar.ty in
    R.V_vector (Vecval.make rty comps)

(* the [int] results of the logical operators *)
let v_true = R.V_scalar (Scalar.one Ty.int_scalar)
let v_false = R.V_scalar (Scalar.zero Ty.int_scalar)

let zero_of ctx (t : Ty.t) : R.value =
  match t with
  | Ty.Void -> R.V_scalar (Scalar.zero Ty.int_scalar)
  | Ty.Scalar s -> R.V_scalar (Scalar.zero s)
  | Ty.Vector (s, l) -> R.V_vector (Vecval.splat s l (Scalar.zero s))
  | Ty.Ptr _ -> R.V_ptr None
  | t -> R.V_agg (R.alloc ctx Ty.Private t)

(* ------------------------------------------------------------------ *)
(* Run-time pieces the compiled closures share                         *)
(* ------------------------------------------------------------------ *)

let free_cell ts k name =
  match Array.unsafe_get ts.l.free k with
  | Some c -> c
  | None -> raise (Rt_crash ("unbound variable " ^ name))

(* [cands] pairs each struct holding field [f] with the field's index;
   -1 when struct [n] is not among them. A struct cell holds its
   aggregate's own name, so the physical test usually decides. *)
let rec member n = function
  | [] -> -1
  | (m, i) :: rest -> if n == m || String.equal n m then i else member n rest

let field_lv ts cands f (lv : R.lvalue) =
  match lv with
  | R.L_cell { R.content = R.C_struct (n, fs); _ } ->
      let i = member n cands in
      if i >= 0 then R.L_cell fs.(i) else R.cell_field ts.l.ctx lv f
  | _ -> R.cell_field ts.l.ctx lv f

(* the [field_lv] read, without building the lvalue for struct members *)
let field_read ts cands f (lv : R.lvalue) =
  match lv with
  | R.L_cell { R.content = R.C_struct (n, fs); _ } ->
      let i = member n cands in
      if i >= 0 then read_cell ts fs.(i) else read_lv ts (R.cell_field ts.l.ctx lv f)
  | _ -> read_lv ts (R.cell_field ts.l.ctx lv f)

let index_lv ts (base : R.lvalue) i =
  match base with
  | R.L_cell { R.content = R.C_array (_, es); _ }
    when i >= 0 && i < Array.length es ->
      R.L_cell es.(i)
  | _ -> (
      match R.cell_index ts.l.ctx base i with
      | Ok lv -> lv
      | Error m -> raise (Rt_crash m))

let deref_lv ts v =
  let p = as_pointer "*" v in
  match p.R.target.R.content with
  | R.C_array _ -> index_lv ts (R.L_cell p.R.target) 0
  | _ -> R.L_cell p.R.target

let write_is_lost ts ~via_ptr =
  via_ptr
  &&
  match ts.l.cfg.profile.Profile.pointer_write_bug with
  | Profile.Pwb_none -> false
  | Profile.Pwb_callee_barrier _ -> ts.lost_writes && ts.call_depth > 0
  | Profile.Pwb_after_barrier -> ts.barrier_seen && ts.call_depth > 0

let bump_iter ts =
  match ts.loop_iters with
  | n :: rest -> ts.loop_iters <- (n + 1) :: rest
  | [] -> ()

let exec_barrier ts site fence =
  ts.tally.t_barriers <- ts.tally.t_barriers + 1;
  (match ts.l.cfg.profile.Profile.pointer_write_bug with
  | Profile.Pwb_callee_barrier { crash } when ts.call_depth > 0 ->
      if crash then raise (Rt_crash "segmentation fault (barrier in callee)");
      if ts.l_lin > 0 then ts.lost_writes <- true
  | Profile.Pwb_after_barrier -> ts.barrier_seen <- true
  | _ -> ());
  Effect.perform (Br { site; iters = ts.loop_iters; fence })

(* a placeholder for frame slots not yet bound; never read, because a
   variable's slot is written by its declaration before any use. It is
   also what a fused chain's look finds for any other shape. *)
let dummy_cell =
  R.alloc (R.alloc_ctx ~tyenv:(Ty.tyenv_of_list []) ~layout:Layout.standard ())
    Ty.Private Ty.int

(* ------------------------------------------------------------------ *)
(* Fused access chains                                                 *)
(*                                                                     *)
(* [x[i]], [*p], [( *p).f] and [( *p).f[i]] with [x] and [p] in frame  *)
(* slots run as one closure each. It first looks at the runtime shape  *)
(* (slot, pointer, struct, member, element) without ticking, recording *)
(* or evaluating anything, then makes exactly the ticks, race records  *)
(* and [via_ptr] update of the unfused closures. Any other shape — a   *)
(* union byte view, an array behind the pointer, a pointer variable    *)
(* indexed, an index out of range, a member the struct lacks — goes to *)
(* the generic closures: before anything has run, or with the index    *)
(* value already computed.                                             *)
(* ------------------------------------------------------------------ *)

type chain_base =
  | B_var of int  (* [x]: its frame slot *)
  | B_member of int * (string * int) list * int * int
      (* [( *p).f]: [p]'s frame slot, [f]'s candidates, and the cost slots
         of the Deref and Var nodes *)

(* the member cell of [( *p).f], where [pc] is [p]'s cell *)
let member_behind (pc : R.cell) cands =
  match pc.R.content with
  | R.C_ptr (Some { R.target = { R.content = R.C_struct (n, fs); _ }; _ }) ->
      let k = member n cands in
      if k < 0 then dummy_cell else fs.(k)
  | _ -> dummy_cell

let base_cell ts = function
  | B_var s -> Array.unsafe_get ts.fr s
  | B_member (s, cands, _, _) -> member_behind (Array.unsafe_get ts.fr s) cands

(* element [idx] of array cell [c] *)
let element (c : R.cell) idx =
  match c.R.content with
  | R.C_array (_, es) when idx >= 0 && idx < Array.length es -> Array.unsafe_get es idx
  | _ -> dummy_cell

(* the ticks, race record and pointer flag of reaching the base *)
let reach ts = function
  | B_var _ -> ts.via_ptr <- false
  | B_member (s, _, id, ip) ->
      tick ts id;
      tick ts ip;
      note_read ts (Array.unsafe_get ts.fr s);
      ts.via_ptr <- true

(* arguments, left to right *)
let run_args ts ids (args : cexpr array) =
  Array.init (Array.length args) (fun i ->
      tick ts (Array.unsafe_get ids i);
      (Array.unsafe_get args i) ts)

(* a statement costs one step and one tick before it runs *)
let run_stmt ts id (c : cstmt) =
  spend ts 1;
  tick ts id;
  c ts

let rec run_from ids (ss : cstmt array) ts i =
  if i = Array.length ss then F_normal
  else
    match run_stmt ts (Array.unsafe_get ids i) (Array.unsafe_get ss i) with
    | F_normal -> run_from ids ss ts (i + 1)
    | f -> f

let run_block ids ss ts = run_from ids ss ts 0

(* ------------------------------------------------------------------ *)
(* Initialisers (with the struct/union quirks)                         *)
(* ------------------------------------------------------------------ *)

let rec init_cell ts (c : R.cell) (i : cinit) =
  let ctx = ts.l.ctx in
  let profile = ts.l.cfg.profile in
  match (c.R.content, i) with
  | _, CI_expr (id, e) ->
      tick ts id;
      write_lv ts (R.L_cell c) (e ts)
  | R.C_struct (n, fields), CI_list is ->
      let agg = Ty.find_aggregate (R.tyenv_of ctx) n in
      let char_first = Layout.struct_is_char_first (R.tyenv_of ctx) agg in
      Array.iteri
        (fun k ik ->
          if k < Array.length fields then
            if
              profile.Profile.struct_init_char_first_zero && char_first && k > 0
            then () (* Fig. 1(a): later fields read as zero *)
            else init_cell ts fields.(k) ik)
        is
  | R.C_union (n, bytes), CI_list [| i0 |] -> (
      let agg = Ty.find_aggregate (R.tyenv_of ctx) n in
      match profile.Profile.union_init with
      | Profile.Ui_correct -> (
          match agg.fields with
          | f0 :: _ -> init_cell_via_bytes ts c 0 f0.Ty.fty i0
          | [] -> ())
      | Profile.Ui_struct_leaf_garbage -> (
          (* Fig. 2(a): garbage-fill, then route the initialiser to the
             first leaf of the first struct-typed member. *)
          let struct_field =
            List.find_opt
              (fun (f : Ty.field) ->
                match f.fty with
                | Ty.Named m ->
                    not (Ty.find_aggregate (R.tyenv_of ctx) m).Ty.is_union
                | _ -> false)
              agg.fields
          in
          match struct_field with
          | None -> (
              match agg.fields with
              | f0 :: _ -> init_cell_via_bytes ts c 0 f0.Ty.fty i0
              | [] -> ())
          | Some f -> (
              Bytes_repr.fill bytes 0 (Bytes.length bytes) '\xff';
              let leaf_ty =
                match f.fty with
                | Ty.Named m ->
                    let sagg = Ty.find_aggregate (R.tyenv_of ctx) m in
                    (List.hd sagg.Ty.fields).Ty.fty
                | t -> t
              in
              let rec scalar_init = function
                | CI_expr _ as e -> Some e
                | CI_list [||] -> None
                | CI_list xs -> scalar_init xs.(0)
              in
              match scalar_init i0 with
              | Some e -> init_cell_via_bytes ts c 0 leaf_ty e
              | None -> ())))
  | R.C_union (_, _), CI_list _ ->
      raise (Rt_crash "union initialiser must have one element")
  | R.C_array (_, cells), CI_list is ->
      Array.iteri
        (fun k ik -> if k < Array.length cells then init_cell ts cells.(k) ik)
        is
  | R.C_vector old, CI_list is ->
      let elem = Vecval.elem_ty old in
      let comps =
        Array.map
          (fun ik ->
            match ik with
            | CI_expr (id, e) ->
                tick ts id;
                Scalar.convert elem (as_scalar "vector init" (e ts))
            | CI_list _ -> raise (Rt_crash "nested vector initialiser"))
          is
      in
      write_lv ts (R.L_cell c) (R.V_vector (Vecval.make elem comps))
  | _, CI_list _ -> raise (Rt_crash "brace initialiser for non-aggregate")

and init_cell_via_bytes ts c off ty i =
  (* initialise a union member: build the value then write it through the
     byte window *)
  match i with
  | CI_expr (id, e) ->
      tick ts id;
      write_lv ts (R.L_bytes (c, off, ty)) (e ts)
  | CI_list _ ->
      let tmp = R.alloc ts.l.ctx Ty.Private ty in
      init_cell ts tmp i;
      write_lv ts (R.L_bytes (c, off, ty)) (R.read ts.l.ctx (R.L_cell tmp))

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(*                                                                     *)
(* Every node becomes a closure with its names resolved: variables to  *)
(* frame slots (or, bound nowhere in scope, to the launch's buffers),  *)
(* fields to member indices, calls to the compiled callee, constants   *)
(* to prebuilt values. Each node's cost slot is baked into the closure *)
(* that runs it. The closures keep the tree-walker's evaluation order, *)
(* fuel charges and tick points exactly: binary operators evaluate     *)
(* their right operand first.                                          *)
(* ------------------------------------------------------------------ *)

(* program-wide compile state; read-only once [compile] returns *)
type cenv = {
  index : Costwalk.index;
  funcs : (string * cfunc) list;  (* declaration order: first match wins *)
  aggs : Ty.aggregate list;  (* as the run-time type environment resolves them *)
  free_ids : (string, int) Hashtbl.t;
  locals : (string, int) Hashtbl.t;
  fields : (string, (string * int) list) Hashtbl.t;  (* by field name *)
  consts : (const, cexpr) Hashtbl.t;  (* shared leaves: equal constants, *)
  readers : (int, cexpr) Hashtbl.t;  (* slot reads, *)
  places : (int, clval) Hashtbl.t;  (* slot lvalues, *)
  free_readers : (int, cexpr) Hashtbl.t;  (* and free-name reads *)
  mutable n_barriers : int;
}

(* one function's scope: innermost binding first, like the tree-walker's
   environment. [next] is the first free frame slot: a block's slots are
   free again after it, so a frame holds the deepest nesting of live
   declarations, [high]. *)
type scope = { vars : (string * int) list; next : int ref; high : int ref }

type var_ref = Slot of int | Free of int

let shared tbl key make =
  match Hashtbl.find_opt tbl key with
  | Some c -> c
  | None ->
      let c = make () in
      Hashtbl.add tbl key c;
      c

(* a dense number per distinct key *)
let intern tbl key = shared tbl key (fun () -> Hashtbl.length tbl)

let resolve cx sc v =
  match List.assoc_opt v sc.vars with
  | Some i -> Slot i
  | None -> Free (intern cx.free_ids v)

let bind sc name =
  let i = !(sc.next) in
  incr sc.next;
  sc.high := max !(sc.high) !(sc.next);
  ({ sc with vars = (name, i) :: sc.vars }, i)

(* compile [f] with the slots it binds freed afterwards *)
let scoped sc f =
  let mark = !(sc.next) in
  let r = f () in
  sc.next := mark;
  r

(* the structs holding field [f], each with the field's index *)
let field_cands cx f =
  shared cx.fields f (fun () ->
      List.filter_map
        (fun (a : Ty.aggregate) ->
          if a.is_union then None
          else
            let rec find i = function
              | [] -> None
              | (fd : Ty.field) :: rest ->
                  if String.equal fd.fname f then Some (a.aname, i)
                  else find (i + 1) rest
            in
            find 0 a.fields)
        cx.aggs)

let is_lvalue_shaped = function
  | Var _ | Field (_, _) | Index (_, _) | Arrow (_, _) | Deref _ -> true
  | _ -> false

let thread_id_ty = function
  | Op.Global_linear_id | Op.Local_linear_id | Op.Group_linear_id
  | Op.Local_linear_size | Op.Global_linear_size ->
      { Ty.width = Ty.W32; sign = Ty.Unsigned }
  | _ -> { Ty.width = Ty.W64; sign = Ty.Unsigned }

(* [e] as the base of a fused chain *)
let chain_base cx sc (e : expr) =
  match e with
  | Var x -> ( match resolve cx sc x with Slot s -> Some (B_var s) | Free _ -> None)
  | Field ((Deref (Var p as vp) as d), f) -> (
      match resolve cx sc p with
      | Slot s ->
          Some
            (B_member
               ( s,
                 field_cands cx f,
                 Costwalk.expr_slot cx.index d,
                 Costwalk.expr_slot cx.index vp ))
      | Free _ -> None)
  | _ -> None

(* compiled children: their cost slots and closures, in two arrays *)
let unzip_subs subs =
  (Array.of_list (List.map fst subs), Array.of_list (List.map snd subs))

(* a child and its cost slot, for the parent to tick before running it *)
let rec sub cx sc e = (Costwalk.expr_slot cx.index e, cexpr cx sc e)
and lsub cx sc e = (Costwalk.expr_slot cx.index e, clval cx sc e)

and cexpr cx sc (e : expr) : cexpr =
  match e with
  | Const c ->
      shared cx.consts c (fun () ->
          let v = R.V_scalar (Scalar.make c.cty c.value) in
          fun _ -> v)
  | Var v -> (
      match resolve cx sc v with
      | Slot i ->
          shared cx.readers i (fun () -> fun ts ->
              read_cell ts (Array.unsafe_get ts.fr i))
      | Free k ->
          shared cx.free_readers k (fun () -> fun ts ->
              read_cell ts (free_cell ts k v)))
  (* lvalue-shaped reads: the node's one tick covers its lvalue *)
  | Field (a, f) -> (
      let ia, a = lsub cx sc a and cands = field_cands cx f in
      let generic ts =
        tick ts ia;
        field_read ts cands f (a ts)
      in
      match chain_base cx sc e with
      | Some b ->
          fun ts ->
            let m = base_cell ts b in
            if m == dummy_cell then generic ts
            else (
              reach ts b;
              read_cell ts m)
      | None -> generic)
  | Deref a -> (
      let ia, ca = sub cx sc a in
      let generic ts =
        tick ts ia;
        read_lv ts (deref_lv ts (ca ts))
      in
      match chain_base cx sc a with
      | Some (B_var s) ->
          fun ts ->
            let pc = Array.unsafe_get ts.fr s in
            (match pc.R.content with
            | R.C_ptr (Some { R.target = { R.content = R.C_array _; _ }; _ }) ->
                generic ts
            | R.C_ptr (Some { R.target; _ }) ->
                tick ts ia;
                note_read ts pc;
                read_cell ts target
            | _ -> generic ts)
      | _ -> generic)
  | Index (a, i) -> (
      let ii, i = sub cx sc i in
      let rest = cindexed cx sc a in
      match chain_base cx sc a with
      | Some b ->
          let ia = Costwalk.expr_slot cx.index a in
          fun ts ->
            tick ts ii;
            let idx = as_int "index" (i ts) in
            let c = element (base_cell ts b) idx in
            if c == dummy_cell then read_lv ts (rest ts idx)
            else (
              tick ts ia;
              reach ts b;
              read_cell ts c)
      | None ->
          fun ts ->
            tick ts ii;
            read_lv ts (rest ts (as_int "index" (i ts))))
  | Arrow _ ->
      let lv = clval cx sc e in
      fun ts -> read_lv ts (lv ts)
  | Thread_id k ->
      let ty = thread_id_ty k in
      fun ts -> R.V_scalar (Scalar.make ty (Ndrange.id_value ts.l.nd ts.th k))
  | Unop (op, a) ->
      let ia, a = sub cx sc a and f = lift_unop op in
      fun ts ->
        tick ts ia;
        f (a ts)
  | Binop (Op.LogAnd, a, b) ->
      let ia, a = sub cx sc a and ib, b = sub cx sc b in
      let lift = lift_binop ~safe:false Op.LogAnd in
      fun ts ->
        tick ts ia;
        (match a ts with
        | R.V_scalar s when Scalar.is_zero s -> v_false
        | R.V_scalar _ ->
            tick ts ib;
            if truth (b ts) then v_true else v_false
        | va ->
            tick ts ib;
            lift va (b ts))
  | Binop (Op.LogOr, a, b) ->
      let ia, a = sub cx sc a and ib, b = sub cx sc b in
      let lift = lift_binop ~safe:false Op.LogOr in
      fun ts ->
        tick ts ia;
        (match a ts with
        | R.V_scalar s when Scalar.is_true s -> v_true
        | R.V_scalar _ ->
            tick ts ib;
            if truth (b ts) then v_true else v_false
        | va ->
            tick ts ib;
            lift va (b ts))
  | Binop (Op.Comma, a, b) ->
      let ia, a = sub cx sc a and ib, b = sub cx sc b in
      fun ts ->
        tick ts ia;
        let va = a ts in
        tick ts ib;
        let vb = b ts in
        (match ts.l.cfg.profile.Profile.comma with
        | Profile.Comma_second -> vb
        | Profile.Comma_first -> va)
  | Binop (op, a, b) when Op.is_comparison op && (mentions_group_id a || mentions_group_id b) ->
      let bin = cbinop cx sc ~safe:false op a b and log_not = lift_unop Op.LogNot in
      fun ts ->
        let v = bin ts in
        if ts.l.cfg.profile.Profile.group_id_cmp_invert then log_not v else v
  | Binop (op, a, b) -> cbinop cx sc ~safe:false op a b
  | Safe_binop (op, a, b) -> cbinop cx sc ~safe:true op a b
  | Safe_neg a ->
      let ia, a = sub cx sc a in
      fun ts ->
        tick ts ia;
        (match a ts with
        | R.V_scalar s -> R.V_scalar (Scalar.safe_neg s)
        | R.V_vector v -> R.V_vector (Vecval.map Scalar.safe_neg v)
        | _ -> raise (Rt_crash "safe_unary_minus on non-integer"))
  | Builtin (b, args) -> cbuiltin cx sc b args
  | Call (f, args) -> ccall cx sc f args
  | Cast (Ty.Scalar s, a) ->
      let ia, a = sub cx sc a in
      fun ts ->
        tick ts ia;
        (match a ts with
        | R.V_scalar x as v ->
            let y = Scalar.convert s x in
            if y == x then v else R.V_scalar y
        | _ -> raise (Rt_crash "invalid cast"))
  | Cast (t, a) ->
      let ia, a = sub cx sc a in
      fun ts ->
        tick ts ia;
        (match (t, a ts) with
        | Ty.Scalar s, R.V_scalar x -> R.V_scalar (Scalar.convert s x)
        | Ty.Vector (s, _), R.V_vector x -> R.V_vector (Vecval.convert s x)
        | Ty.Vector (s, l), R.V_scalar x ->
            R.V_vector (Vecval.splat s l (Scalar.convert s x))
        | Ty.Ptr _, (R.V_ptr _ as p) -> p
        | _ -> raise (Rt_crash "invalid cast"))
  | Cond (c, a, b) ->
      let ic, c = sub cx sc c and ia, a = sub cx sc a and ib, b = sub cx sc b in
      fun ts ->
        tick ts ic;
        if truth (c ts) then (
          tick ts ia;
          a ts)
        else (
          tick ts ib;
          b ts)
  | Swizzle (a, idxs) ->
      let ia, a = sub cx sc a in
      fun ts ->
        tick ts ia;
        (match a ts with
        | R.V_vector vv -> (
            match idxs with
            | [ i ] -> R.V_scalar (Vecval.get vv i)
            | _ -> (
                match Vecval.swizzle vv idxs with
                | Some w -> R.V_vector w
                | None -> raise (Rt_crash "invalid swizzle")))
        | _ -> raise (Rt_crash "swizzle of non-vector value"))
  | Addr_of a ->
      let ia, a = lsub cx sc a in
      fun ts ->
        tick ts ia;
        (match a ts with
        | R.L_cell c -> R.V_ptr (Some { R.target = c; pspace = c.R.space })
        | R.L_bytes _ | R.L_comp _ ->
            raise (Rt_crash "address of union member or vector component"))
  | Vec_lit (s, l, args) ->
      let args = List.map (sub cx sc) args in
      fun ts ->
        let comps =
          List.concat_map
            (fun (ia, a) ->
              tick ts ia;
              match a ts with
              | R.V_scalar x -> [ Scalar.convert s x ]
              | R.V_vector v ->
                  Array.to_list (Array.map (Scalar.convert s) (Vecval.components v))
              | _ -> raise (Rt_crash "vector literal component"))
            args
        in
        if List.length comps <> Ty.vlen_to_int l then
          raise (Rt_crash "vector literal arity");
        R.V_vector (Vecval.make s (Array.of_list comps))
  | Atomic (aop, p, args) -> catomic cx sc aop p args

and subs cx sc args = unzip_subs (List.map (sub cx sc) args)

and cbinop cx sc ~safe op a b : cexpr =
  let ia, a = sub cx sc a and ib, b = sub cx sc b in
  let sop = if safe then Scalar.safe_binop op else Scalar.binop op in
  let lift = lift_binop ~safe op in
  fun ts ->
    tick ts ib;
    let vb = b ts in
    tick ts ia;
    let va = a ts in
    match (va, vb) with
    | R.V_scalar x, R.V_scalar y -> R.V_scalar (sop x y)
    | _ -> lift va vb

(* two- and three-operand built-ins call their scalar function directly
   when every operand is a scalar; vectors and other arities go through
   [lift_builtin] *)
and cbuiltin cx sc b args : cexpr =
  match (List.map (sub cx sc) args, builtin2 b) with
  | [ (ix, x); (iy, y) ], Some f ->
      fun ts ->
        tick ts ix;
        let vx = x ts in
        tick ts iy;
        let vy = y ts in
        (match (vx, vy) with
        | R.V_scalar x, R.V_scalar y -> R.V_scalar (f x y)
        | _ -> lift_builtin b [ vx; vy ])
  | [ (ix, x); (il, lo); (ih, hi) ], _ when b = Op.Clamp || b = Op.Safe_clamp ->
      fun ts ->
        tick ts ix;
        let vx = x ts in
        tick ts il;
        let vl = lo ts in
        tick ts ih;
        let vh = hi ts in
        (match (vx, vl, vh) with
        | R.V_scalar x, R.V_scalar l, R.V_scalar h -> R.V_scalar (Scalar.clamp x l h)
        | _ -> lift_builtin b [ vx; vl; vh ])
  | args, _ ->
      let ids, args = unzip_subs args in
      fun ts -> lift_builtin b (Array.to_list (run_args ts ids args))

and ccall cx sc f args : cexpr =
  match List.assoc_opt f cx.funcs with
  | None -> fun _ -> raise (Rt_crash ("call to unknown function " ^ f))
  | Some fn ->
      let ids, args = subs cx sc args in
      let arity_ok = Array.length args = Array.length fn.cf_params in
      fun ts ->
        spend ts 1;
        let vargs = run_args ts ids args in
        let callee = Array.make fn.cf_slots dummy_cell in
        (* parameters bind pairwise, like List.map2, failing at the first
           unmatched one *)
        let n = min (Array.length vargs) (Array.length fn.cf_params) in
        for i = 0 to n - 1 do
          let c = R.alloc ts.l.ctx Ty.Private fn.cf_params.(i) in
          R.write ts.l.ctx (R.L_cell c) vargs.(i);
          callee.(i) <- c
        done;
        if not arity_ok then invalid_arg "List.map2";
        ts.call_depth <- ts.call_depth + 1;
        let saved_lost = ts.lost_writes in
        let caller = ts.fr in
        ts.fr <- callee;
        let flow = fn.cf_body ts in
        ts.fr <- caller;
        ts.call_depth <- ts.call_depth - 1;
        (* the Fig. 2(c) write-loss flag is scoped to the invocation that
           executed the barrier *)
        if ts.call_depth = 0 then ts.lost_writes <- saved_lost;
        match flow with
        | F_return (Some v) -> v
        | F_return None | F_normal ->
            (* missing return in non-void functions: zero value *)
            zero_of ts.l.ctx fn.cf_ret
        | F_break | F_continue -> raise (Rt_crash "break/continue escaped function")

and catomic cx sc aop p args : cexpr =
  let ip, p = sub cx sc p and ids, args = subs cx sc args in
  (* the read-modify-write's operator; the exchanges have none *)
  let rmw =
    match aop with
    | Op.A_inc | Op.A_add -> Scalar.binop Op.Add
    | Op.A_dec | Op.A_sub -> Scalar.binop Op.Sub
    | Op.A_and -> Scalar.binop Op.BitAnd
    | Op.A_or -> Scalar.binop Op.BitOr
    | Op.A_xor -> Scalar.binop Op.BitXor
    | Op.A_min -> Scalar.min_v
    | Op.A_max -> Scalar.max_v
    | Op.A_xchg | Op.A_cmpxchg -> Scalar.binop Op.Comma
  in
  fun ts ->
    tick ts ip;
    let ptr = as_pointer "atomic" (p ts) in
    let cell = ptr.R.target in
    let lv = R.L_cell cell in
    ts.tally.t_atomics <- ts.tally.t_atomics + 1;
    (* an atomic's result is its place in the schedule *)
    if ts.l.wit.live then refute ts;
    record_access ts lv Race.Write ~atomic:true;
    let old = as_scalar "atomic" (R.read ts.l.ctx lv) in
    let ty = old.Scalar.ty in
    let operand i =
      if i >= Array.length args then failwith "nth";
      tick ts ids.(i);
      Scalar.convert ty (as_scalar "atomic" (args.(i) ts))
    in
    let newv =
      match aop with
      | Op.A_inc | Op.A_dec -> rmw old (Scalar.one ty)
      | Op.A_add | Op.A_sub | Op.A_min | Op.A_max | Op.A_and | Op.A_or | Op.A_xor ->
          rmw old (operand 0)
      | Op.A_xchg -> operand 0
      | Op.A_cmpxchg -> if Scalar.equal old (operand 0) then operand 1 else old
    in
    R.write ts.l.ctx lv (R.V_scalar (Scalar.convert ty newv));
    R.V_scalar old

and clval cx sc (e : expr) : clval =
  match e with
  | Var v -> (
      match resolve cx sc v with
      | Slot i ->
          shared cx.places i (fun () -> fun ts ->
              ts.via_ptr <- false;
              R.L_cell (Array.unsafe_get ts.fr i))
      | Free k ->
          fun ts ->
            let c = free_cell ts k v in
            ts.via_ptr <- false;
            R.L_cell c)
  | Field (a, f) -> (
      let ia, a = lsub cx sc a and cands = field_cands cx f in
      let generic ts =
        tick ts ia;
        field_lv ts cands f (a ts)
      in
      match chain_base cx sc e with
      | Some b ->
          fun ts ->
            let m = base_cell ts b in
            if m == dummy_cell then generic ts
            else (
              reach ts b;
              R.L_cell m)
      | None -> generic)
  | Arrow (a, f) ->
      let ia, a = sub cx sc a and cands = field_cands cx f in
      fun ts ->
        tick ts ia;
        let p = as_pointer "->" (a ts) in
        let lv = field_lv ts cands f (R.L_cell p.R.target) in
        ts.via_ptr <- true;
        lv
  | Deref a ->
      let ia, a = sub cx sc a in
      fun ts ->
        tick ts ia;
        let lv = deref_lv ts (a ts) in
        ts.via_ptr <- true;
        lv
  | Index (a, i) -> (
      let ii, i = sub cx sc i in
      let rest = cindexed cx sc a in
      match chain_base cx sc a with
      | Some b ->
          let ia = Costwalk.expr_slot cx.index a in
          fun ts ->
            tick ts ii;
            let idx = as_int "index" (i ts) in
            let c = element (base_cell ts b) idx in
            if c == dummy_cell then rest ts idx
            else (
              tick ts ia;
              reach ts b;
              R.L_cell c)
      | None ->
          fun ts ->
            tick ts ii;
            rest ts (as_int "index" (i ts)))
  | Swizzle (a, [ i ]) ->
      let ia, a = lsub cx sc a in
      fun ts ->
        tick ts ia;
        (match a ts with
        | R.L_cell c -> R.L_comp (c, i)
        | _ -> raise (Rt_crash "swizzle lvalue through union"))
  | _ -> fun _ -> raise (Rt_crash ("not an lvalue: " ^ Pp.expr_to_string e))

(* [a[idx]] once the index is known: all an Index node does after
   evaluating its index *)
and cindexed cx sc a : thread_state -> int -> R.lvalue =
  let base : clval =
    if is_lvalue_shaped a then
      let ia, a = lsub cx sc a in
      fun ts ->
        tick ts ia;
        a ts
    else
      let ia, a = sub cx sc a in
      fun ts ->
        tick ts ia;
        let p = as_pointer "[]" (a ts) in
        ts.via_ptr <- true;
        R.L_cell p.R.target
  in
  fun ts idx ->
    match base ts with
    | R.L_cell { R.content = R.C_ptr _; _ } as ptr ->
        (* pointer variable: a[i] = *(a + i) *)
        let p = as_pointer "[]" (read_lv ts ptr) in
        let lv = index_lv ts (R.L_cell p.R.target) idx in
        ts.via_ptr <- true;
        lv
    | b -> index_lv ts b idx

and cinit cx sc = function
  | I_expr e ->
      let id, e = sub cx sc e in
      CI_expr (id, e)
  | I_list is -> CI_list (Array.of_list (List.map (cinit cx sc) is))

(* a statement, and the scope the statements after it see *)
and cstmt cx sc (s : stmt) : cstmt * scope =
  let same c = (c, sc) in
  match s with
  | Decl d -> (
      match d.dspace with
      | Ty.Local ->
          (* one allocation per group, shared by its threads *)
          let k = intern cx.locals d.dname in
          let sc', slot = bind sc d.dname in
          ( (fun ts ->
              let c =
                match ts.grp.shared.(k) with
                | Some c -> c
                | None ->
                    let c = R.alloc ts.l.ctx Ty.Local d.dty in
                    ts.grp.shared.(k) <- Some c;
                    c
              in
              ts.fr.(slot) <- c;
              F_normal),
            sc' )
      | sp ->
          let init = Option.map (cinit cx sc) d.dinit in
          let sc', slot = bind sc d.dname in
          ( (fun ts ->
              let c = R.alloc ts.l.ctx sp d.dty in
              (match init with Some i -> init_cell ts c i | None -> ());
              ts.fr.(slot) <- c;
              F_normal),
            sc' ))
  | Assign (lhs, A_simple, rhs) ->
      let il, l = lsub cx sc lhs and ir, r = sub cx sc rhs in
      same (fun ts ->
          tick ts il;
          let lv = l ts in
          let via_ptr = ts.via_ptr in
          tick ts ir;
          let v = r ts in
          if not (write_is_lost ts ~via_ptr) then write_lv ts lv v;
          F_normal)
  | Assign (lhs, A_op op, rhs) ->
      let il, l = lsub cx sc lhs and ir, r = sub cx sc rhs in
      let lift = lift_binop ~safe:false op in
      same (fun ts ->
          tick ts il;
          let lv = l ts in
          let via_ptr = ts.via_ptr in
          let old = read_lv ts lv in
          tick ts ir;
          let v = lift old (r ts) in
          if not (write_is_lost ts ~via_ptr) then write_lv ts lv v;
          F_normal)
  | Expr e ->
      let ie, e = sub cx sc e in
      same (fun ts ->
          tick ts ie;
          ignore (e ts : R.value);
          F_normal)
  | If (c, b1, b2) ->
      let ic, c = sub cx sc c and b1 = cblock cx sc b1 and b2 = cblock cx sc b2 in
      same (fun ts ->
          tick ts ic;
          if truth (c ts) then b1 ts else b2 ts)
  | For f -> same (scoped sc (fun () -> cfor cx sc f))
  | While (c, body) ->
      let ic, c = sub cx sc c and body = cblock cx sc body in
      same (fun ts ->
          ts.loop_iters <- 0 :: ts.loop_iters;
          let rec loop () =
            spend ts 1;
            tick ts ic;
            if truth (c ts) then (
              let fl = body ts in
              bump_iter ts;
              match fl with
              | F_normal | F_continue -> loop ()
              | F_break -> F_normal
              | F_return _ as r -> r)
            else F_normal
          in
          let fl = loop () in
          ts.loop_iters <- List.tl ts.loop_iters;
          fl)
  | Break -> same (fun _ -> F_break)
  | Continue -> same (fun _ -> F_continue)
  | Return None -> same (fun _ -> F_return None)
  | Return (Some e) ->
      let ie, e = sub cx sc e in
      same (fun ts ->
          tick ts ie;
          F_return (Some (e ts)))
  | Barrier fence ->
      let site = cx.n_barriers in
      cx.n_barriers <- site + 1;
      same (fun ts ->
          exec_barrier ts site fence;
          F_normal)
  | Block b -> same (cblock cx sc b)
  | Emi { emi_lo; emi_hi; emi_body; _ } ->
      (* if (dead[hi] < dead[lo]) { body } — false under the standard host
         initialisation dead[j] = j, true when the host inverts dead; the
         guard reads are synthesised nodes, ticked in synthetic slots *)
      let rd i =
        let id, e = sub cx sc (Index (Var "dead", const_of_int i)) in
        fun ts ->
          tick ts id;
          as_scalar "dead" (e ts)
      in
      let lo = rd emi_lo and hi = rd emi_hi and body = cblock cx sc emi_body in
      let lt = Scalar.binop Op.Lt in
      same (fun ts ->
          let vlo = lo ts in
          let vhi = hi ts in
          if Scalar.is_true (lt vhi vlo) then body ts
          else F_normal)

(* runs its statements, each charged and ticked *)
and cblock cx sc (b : block) : cstmt =
  let rec go sc = function
    | [] -> []
    | s :: rest ->
        let c, sc' = cstmt cx sc s in
        (Costwalk.stmt_slot cx.index s, c) :: go sc' rest
  in
  match scoped sc (fun () -> go sc b) with
  | [] -> fun _ -> F_normal
  | [ (id, s) ] -> fun ts -> run_stmt ts id s
  | ss ->
      let ids = Array.of_list (List.map fst ss) and ss = Array.of_list (List.map snd ss) in
      run_block ids ss

and cfor cx sc (f : for_loop) : cstmt =
  let has_barrier = block_contains_barrier f.f_body in
  (* Fig. 2(d): the loop initialiser's store participates in condition
     evaluation but is never committed — model: run it, then restore the
     overwritten value once the loop completes. *)
  let init, sc =
    match f.f_init with
    | None -> (None, sc)
    | Some s ->
        let lost_lhs =
          match s with
          | Assign (lhs, _, _) when has_barrier -> Some (lsub cx sc lhs)
          | _ -> None
        in
        let c, sc' = cstmt cx sc s in
        (Some (Costwalk.stmt_slot cx.index s, c, lost_lhs), sc')
  in
  let cond = Option.map (sub cx sc) f.f_cond in
  let update =
    Option.map (fun s -> (Costwalk.stmt_slot cx.index s, fst (cstmt cx sc s))) f.f_update
  in
  let body = cblock cx sc f.f_body in
  fun ts ->
    let lb = ts.l.cfg.profile.Profile.loop_barrier in
    let body_has_barrier = lb <> Profile.Lb_ok && has_barrier in
    if body_has_barrier && lb = Profile.Lb_crash then
      raise (Rt_crash "segmentation fault (barrier inside loop)");
    let lose_init = body_has_barrier && lb = Profile.Lb_lose_init && ts.l_lin > 0 in
    let restore =
      match init with
      | None -> None
      | Some (id, s, Some (il, lhs)) when lose_init ->
          tick ts il;
          let lv = lhs ts in
          witness_only ts lv Race.Read;
          let old = R.read ts.l.ctx lv in
          ignore (run_stmt ts id s : flow);
          Some (lv, old)
      | Some (id, s, _) ->
          ignore (run_stmt ts id s : flow);
          None
    in
    ts.loop_iters <- 0 :: ts.loop_iters;
    let rec loop () =
      spend ts 1;
      let continue_loop =
        match cond with
        | None -> true
        | Some (ic, c) ->
            tick ts ic;
            truth (c ts)
      in
      if not continue_loop then F_normal
      else
        let fl = body ts in
        bump_iter ts;
        match fl with
        | F_normal | F_continue ->
            (match update with
            | None -> ()
            | Some (id, s) -> ignore (run_stmt ts id s : flow));
            loop ()
        | F_break -> F_normal
        | F_return _ as r -> r
    in
    let fl = loop () in
    ts.loop_iters <- List.tl ts.loop_iters;
    (match restore with
    | Some (lv, old) ->
        witness_only ts lv Race.Write;
        R.write ts.l.ctx lv old
    | None -> ());
    fl


let cfunc_shell (fn : func) =
  {
    cf_ret = fn.ret;
    cf_params = Array.of_list (List.map snd fn.params);
    cf_slots = 0;
    cf_body = (fun _ -> F_normal);
  }

(* parameters take the first slots; the first of two equal names wins,
   like the tree-walker's association list *)
let compile_body cx (fn : func) (cf : cfunc) =
  let n = List.length fn.params in
  let sc =
    { vars = List.mapi (fun i (p, _) -> (p, i)) fn.params; next = ref n; high = ref n }
  in
  let body = cblock cx sc fn.body in
  cf.cf_body <- body;
  cf.cf_slots <- !(sc.high)

let compile (p : program) : compiled =
  let tyenv = tyenv_of_program p in
  let aggs =
    List.filter_map
      (fun (a : Ty.aggregate) ->
        match Ty.find_aggregate_opt tyenv a.aname with
        | Some a' when a' == a -> Some a
        | _ -> None)
      p.aggregates
  in
  let funcs = List.map (fun (fn : func) -> (fn.fname, cfunc_shell fn)) p.funcs in
  let index = Costwalk.index p in
  let cx =
    {
      index;
      funcs;
      aggs;
      free_ids = Hashtbl.create 8;
      locals = Hashtbl.create 4;
      fields = Hashtbl.create 16;
      consts = Hashtbl.create 64;
      readers = Hashtbl.create 32;
      places = Hashtbl.create 32;
      free_readers = Hashtbl.create 8;
      n_barriers = 0;
    }
  in
  List.iter2 (fun (fn : func) (_, cf) -> compile_body cx fn cf) p.funcs funcs;
  let kernel = cfunc_shell p.kernel in
  compile_body cx p.kernel kernel;
  let free_names = Array.make (Hashtbl.length cx.free_ids) "" in
  Hashtbl.iter (fun name k -> free_names.(k) <- name) cx.free_ids;
  {
    source = p;
    kernel;
    free_names;
    n_locals = Hashtbl.length cx.locals;
    n_ticks = Costwalk.size index;
    names = Memo.make (fun () -> Costwalk.build p);
  }

let constructs (c : compiled) counts =
  Costwalk.constructs (Memo.force c.names) counts

(* ------------------------------------------------------------------ *)
(* Group execution                                                     *)
(* ------------------------------------------------------------------ *)

let same_rendezvous (a : barrier_info) (b : barrier_info) =
  a.site = b.site && a.iters = b.iters

let run_thread_body (code : compiled) ts : unit =
  match code.kernel.cf_body ts with
  | F_normal | F_return None -> ()
  | F_return (Some _) -> ()
  | F_break | F_continue -> raise (Rt_crash "break/continue escaped kernel")

let start_thread code ts : thread_status =
  Effect.Deep.match_with
    (fun () ->
      run_thread_body code ts;
      Done)
    ()
    {
      retc = Fun.id;
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Br info ->
              Some
                (fun (k : (a, thread_status) Effect.Deep.continuation) ->
                  At_barrier (info, k))
          | _ -> None);
    }

(* kernel parameters are pointers to the launch buffers *)
let kernel_frame (code : compiled) (l : launch) : frame =
  let fr = Array.make code.kernel.cf_slots dummy_cell in
  List.iteri
    (fun i (pname, pty) ->
      match l.params.(i) with
      | Some buf ->
          let c = R.alloc l.ctx Ty.Private pty in
          R.write l.ctx (R.L_cell c)
            (R.V_ptr (Some { R.target = buf; pspace = buf.R.space }));
          fr.(i) <- c
      | None -> raise (Rt_crash ("missing buffer for parameter " ^ pname)))
    code.source.kernel.params;
  fr

let run_group (code : compiled) (l : launch) tally ~profiling counts g =
  let threads = Ndrange.threads_of_group l.nd g in
  let n = List.length threads in
  let grp =
    {
      g;
      shared = Array.make code.n_locals None;
      epoch_local = 0;
      epoch_global = 0;
    }
  in
  let states =
    List.map
      (fun th ->
        {
          th;
          t_lin = Ndrange.t_linear l.nd th;
          l_lin = Ndrange.l_linear l.nd th;
          l;
          grp;
          tally;
          profiling;
          counts;
          fuel = l.cfg.fuel;
          loop_iters = [];
          call_depth = 0;
          lost_writes = false;
          barrier_seen = false;
          via_ptr = false;
          fr = [||];
        })
      threads
  in
  (* runnable.(i) = what to do next for thread i *)
  let runnable =
    Array.of_list (List.map (fun ts -> `Start ts) states)
  in
  let statuses : thread_status option array = Array.make n None in
  let epoch = ref 0 in
  let cleanup () =
    Array.iter
      (function
        | Some (At_barrier (_, k)) -> (
            (* unwinding a parked fiber can only legitimately raise the
               injected Exit or a VM exception from the unwind path; let
               Out_of_memory / Stack_overflow and friends surface instead
               of being swallowed into a bogus "clean" cleanup *)
            try ignore (Effect.Deep.discontinue k Stdlib.Exit)
            with Stdlib.Exit | Rt_crash _ | Fuel_exhausted | Divergence _ -> ())
        | _ -> ())
      statuses
  in
  try
    let finished = ref false in
    while not !finished do
      let order = Sched.order l.cfg.schedule ~epoch:!epoch n in
      Array.iter
        (fun i ->
          match runnable.(i) with
          | `Start ts ->
              ts.fr <- kernel_frame code l;
              statuses.(i) <- Some (start_thread code ts)
          | `Resume k ->
              (* the continuation is consumed by [continue] even when the
                 fiber raises (fuel exhaustion, VM crash): clear the slot
                 first so [cleanup] never discontinues a resumed one *)
              statuses.(i) <- None;
              statuses.(i) <- Some (Effect.Deep.continue k ())
          | `Done -> ())
        order;
      (* classify the rendezvous *)
      let dones = ref 0 and barriers = ref [] in
      Array.iteri
        (fun i st ->
          match st with
          | Some Done -> incr dones
          | Some (At_barrier (info, k)) -> barriers := (i, info, k) :: !barriers
          | None -> assert false)
        statuses;
      match (!dones, !barriers) with
      | d, [] when d = n -> finished := true
      | _, [] -> assert false
      | d, _ when d > 0 ->
          raise
            (Divergence
               "barrier divergence: some threads finished while others wait \
                at a barrier")
      | _, ((_, info0, _) :: _ as bs) ->
          if
            l.cfg.check_divergence
            && not (List.for_all (fun (_, i, _) -> same_rendezvous info0 i) bs)
          then
            raise
              (Divergence
                 "barrier divergence: threads arrived at different barriers \
                  or iterations");
          (* epoch bump according to the fence *)
          (match info0.fence with
          | Op.F_local -> grp.epoch_local <- grp.epoch_local + 1
          | Op.F_global -> grp.epoch_global <- grp.epoch_global + 1
          | Op.F_both ->
              grp.epoch_local <- grp.epoch_local + 1;
              grp.epoch_global <- grp.epoch_global + 1);
          incr epoch;
          List.iter (fun (i, _, k) -> runnable.(i) <- `Resume k) bs;
          Array.iteri
            (fun i st ->
              match st with Some Done -> runnable.(i) <- `Done | _ -> ())
            statuses
    done
  with e ->
    cleanup ();
    raise e

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

let scalar_of_pointee (t : Ty.t) =
  match t with
  | Ty.Ptr (_, Ty.Scalar s) -> s
  | Ty.Ptr (_, Ty.Vector (s, _)) -> s
  | _ -> { Ty.width = Ty.W32; sign = Ty.Signed }

let setup_buffers (prog : program) (tc : testcase) ctx nd =
  List.map
    (fun (name, spec) ->
      let pty =
        match List.assoc_opt name prog.kernel.params with
        | Some t -> t
        | None -> Ty.Ptr (Ty.Global, Ty.int)
      in
      let elem = scalar_of_pointee pty in
      let data =
        match spec with
        | Buf_out -> Array.make (Ndrange.n_linear nd) 0L
        | Buf_zero sz -> Array.make (max sz 1) 0L
        | Buf_data d -> Array.copy d
        | Buf_dead inverted ->
            let d = prog.dead_size in
            Array.init d (fun j ->
                Int64.of_int (if inverted then d - 1 - j else j))
      in
      (name, R.alloc_scalar_buffer ctx Ty.Global elem data))
    tc.buffers

let output_of_buffers bufs =
  String.concat "; "
    (List.map
       (fun (name, vals) ->
         Printf.sprintf "%s: %s" name
           (String.concat ","
              (Array.to_list (Array.map Scalar.to_string vals))))
       bufs)

let exec_with wit ?(config = default_config) ?(profile = false) (code : compiled)
    (tc : testcase) : run_result =
  let prog = code.source in
  let race = Race.create () in
  let tally = { t_steps = 0; t_barriers = 0; t_atomics = 0; t_race_checks = 0 } in
  let counts = if profile then Array.make code.n_ticks 0 else [||] in
  let result outcome =
    {
      outcome;
      races = Race.races race;
      stats =
        {
          steps = tally.t_steps;
          barriers = tally.t_barriers;
          atomics = tally.t_atomics;
          race_checks = tally.t_race_checks;
          prof = [];
        };
      ticks = counts;
    }
  in
  match
    let nd = Ndrange.make ~global:tc.global_size ~local:tc.local_size in
    let ctx = R.alloc_ctx ~tyenv:(tyenv_of_program prog) ~layout:config.layout () in
    let buffers = setup_buffers prog tc ctx nd in
    let const_cells =
      List.map
        (fun (ca : const_array) ->
          if Array.length ca.ca_data = 1 then
            ( ca.ca_name,
              R.alloc_scalar_buffer ctx Ty.Constant ca.ca_elem ca.ca_data.(0) )
          else
            (ca.ca_name, R.alloc_matrix_buffer ctx Ty.Constant ca.ca_elem ca.ca_data))
        prog.constant_arrays
    in
    let named = buffers @ const_cells in
    let l =
      {
        cfg = config;
        ctx;
        nd;
        free = Array.map (fun name -> List.assoc_opt name named) code.free_names;
        params =
          Array.of_list
            (List.map (fun (pname, _) -> List.assoc_opt pname named) prog.kernel.params);
        race;
        wit;
        watching = config.detect_races || wit.live;
      }
    in
    List.iter
      (fun g -> run_group code l tally ~profiling:profile counts g)
      (Ndrange.groups nd);
    let observed =
      List.map
        (fun name ->
          match List.assoc_opt name named with
          | Some c -> (name, R.scalar_buffer_contents c)
          | None -> (name, [||]))
        tc.observe
    in
    output_of_buffers observed
  with
  | out ->
      let races = Race.races race in
      if config.detect_races && races <> [] then
        result (Outcome.Ub (Race.race_to_string (List.hd races)))
      else result (Outcome.Success out)
  | exception Rt_crash m -> result (Outcome.Crash m)
  | exception Fuel_exhausted -> result Outcome.Timeout
  | exception Divergence m -> result (Outcome.Ub m)
  | exception Invalid_argument m -> result (Outcome.Crash ("runtime error: " ^ m))

let exec ?config ?profile code tc =
  exec_with { live = false; slots = [||] } ?config ?profile code tc

let exec_witnessed ?config ?profile code tc =
  let wit = { live = true; slots = [||] } in
  let r = exec_with wit ?config ?profile code tc in
  (r, wit.live && Outcome.is_computed r.outcome)

let run ?config (tc : testcase) = exec ?config (compile tc.prog) tc
let run_outcome ?config tc = (run ?config tc).outcome
