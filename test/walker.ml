open Ast
module R = Rt_value

(* The tree-walking interpreter the compiled engine in lib/ocl_vm/interp.ml
   replaced, kept as its differential oracle (test_engine.ml): it
   evaluates the AST directly, looks names up in an association-list
   environment, and ticks the cost profile by physical node identity.
   It shares the engine's config, stats and result types, so the two
   are compared field for field.

   One rule differs on purpose: a barrier's rendezvous site is its
   statement's physical identity, where the engine numbers each barrier
   occurrence. They disagree only when one barrier value appears twice
   in a program and threads reach different occurrences, which no input
   of the oracle test does. *)

type config = Interp.config = {
  fuel : int;
  schedule : Sched.t;
  detect_races : bool;
  check_divergence : bool;
  layout : Layout.policy;
  profile : Profile.t;
}

type stats = Interp.stats = {
  steps : int;
  barriers : int;
  atomics : int;
  race_checks : int;
  prof : Costprof.cell list;
}

type run_result = Interp.run_result = {
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

type launch = {
  cfg : config;
  ctx : R.alloc_ctx;
  prog : program;
  nd : Ndrange.t;
  buffers : (string * R.cell) list;
  race : Race.t;
  tally : tally;
  costs : Costwalk.index;
  counts : int array;
}

type group_state = {
  g : int;
  shared_decls : (string, R.cell) Hashtbl.t;
  mutable epoch_local : int;
  mutable epoch_global : int;
}

type thread_state = {
  th : Ndrange.thread;
  l : launch;
  grp : group_state;
  mutable fuel : int;
  mutable loop_iters : int list;
  mutable call_depth : int;
  mutable lost_writes : bool;  (* Pwb_callee_barrier armed *)
  mutable barrier_seen : bool; (* Pwb_after_barrier armed *)
}

type barrier_info = { site : stmt; iters : int list; fence : Op.fence }

type _ Effect.t += Br : barrier_info -> unit Effect.t

type thread_status =
  | Done
  | At_barrier of barrier_info * (unit, thread_status) Effect.Deep.continuation

(* environment: innermost binding first *)
type env = (string * R.cell) list

type flow = F_normal | F_break | F_continue | F_return of R.value option

let bump ts slot = ts.l.counts.(slot) <- ts.l.counts.(slot) + 1
let tick_expr ts e = bump ts (Costwalk.expr_slot ts.l.costs e)
let tick_stmt ts s = bump ts (Costwalk.stmt_slot ts.l.costs s)

let spend ts n =
  ts.l.tally.t_steps <- ts.l.tally.t_steps + n;
  ts.fuel <- ts.fuel - n;
  if ts.fuel <= 0 then raise Fuel_exhausted

(* ------------------------------------------------------------------ *)
(* Race recording                                                      *)
(* ------------------------------------------------------------------ *)

let record_access ts lv kind ~atomic =
  if ts.l.cfg.detect_races then begin
    let space = R.lvalue_space lv in
    match space with
    | Ty.Local | Ty.Global ->
        ts.l.tally.t_race_checks <- ts.l.tally.t_race_checks + 1;
        let epoch =
          match space with
          | Ty.Local -> ts.grp.epoch_local
          | _ -> ts.grp.epoch_global
        in
        Race.record ts.l.race ~loc:(R.base_loc lv)
          ~thread:(Ndrange.t_linear ts.l.nd ts.th)
          ~group:ts.grp.g ~kind ~atomic ~epoch ~space
    | Ty.Private | Ty.Constant -> ()
  end

let read_lv ts lv =
  record_access ts lv Race.Read ~atomic:false;
  R.read ts.l.ctx lv

let write_lv ts lv v =
  record_access ts lv Race.Write ~atomic:false;
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

let lift_unop op (v : R.value) : R.value =
  let f =
    match op with
    | Op.Neg -> Scalar.neg
    | Op.BitNot -> Scalar.bit_not
    | Op.LogNot -> Scalar.log_not
  in
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

let lift_binop ~safe op (a : R.value) (b : R.value) : R.value =
  let sop = if safe then Scalar.safe_binop op else Scalar.binop op in
  match (a, b) with
  | R.V_scalar x, R.V_scalar y -> R.V_scalar (sop x y)
  | R.V_vector x, R.V_vector y ->
      if Op.is_comparison op || Op.is_shortcircuit op then
        R.V_vector (Vecval.binop op x y)
      else R.V_vector (Vecval.map2 sop x y)
  | R.V_vector x, R.V_scalar y ->
      let y' = Vecval.splat (Vecval.elem_ty x) (Vecval.vlen x) y in
      if Op.is_comparison op || Op.is_shortcircuit op then
        R.V_vector (Vecval.binop op x y')
      else R.V_vector (Vecval.map2 sop x y')
  | R.V_scalar x, R.V_vector y ->
      let x' = Vecval.splat (Vecval.elem_ty y) (Vecval.vlen y) x in
      if Op.is_comparison op || Op.is_shortcircuit op then
        R.V_vector (Vecval.binop op x' y)
      else R.V_vector (Vecval.map2 sop x' y)
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

let builtin_scalar (b : Op.builtin) (args : Scalar.t list) =
  match (b, args) with
  | (Op.Clamp | Op.Safe_clamp), [ x; lo; hi ] -> Scalar.clamp x lo hi
  | Op.Rotate, [ x; y ] -> Scalar.rotate x y
  | Op.Min, [ x; y ] -> Scalar.min_v x y
  | Op.Max, [ x; y ] -> Scalar.max_v x y
  | Op.Abs, [ x ] -> Scalar.abs_v x
  | Op.Add_sat, [ x; y ] -> Scalar.add_sat x y
  | Op.Sub_sat, [ x; y ] -> Scalar.sub_sat x y
  | Op.Hadd, [ x; y ] -> Scalar.hadd x y
  | Op.Mul_hi, [ x; y ] -> Scalar.mul_hi x y
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

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                               *)
(* ------------------------------------------------------------------ *)

let rec eval ts (env : env) (e : expr) : R.value =
  (* lvalue-shaped reads delegate to eval_lvalue on the same node,
     which ticks it there — skip here to avoid double counting *)
  (match e with
  | Field _ | Arrow _ | Index _ | Deref _ -> ()
  | _ -> tick_expr ts e);
  match e with
  | Const c -> R.V_scalar (Scalar.make c.cty c.value)
  | Var v -> read_lv ts (lvalue_of_var ts env v)
  | Thread_id k ->
      let ty =
        match k with
        | Op.Global_linear_id | Op.Local_linear_id | Op.Group_linear_id
        | Op.Local_linear_size | Op.Global_linear_size ->
            { Ty.width = Ty.W32; sign = Ty.Unsigned }
        | _ -> { Ty.width = Ty.W64; sign = Ty.Unsigned }
      in
      R.V_scalar (Scalar.make ty (Ndrange.id_value ts.l.nd ts.th k))
  | Unop (op, a) -> lift_unop op (eval ts env a)
  | Binop (Op.LogAnd, a, b) -> (
      match eval ts env a with
      | R.V_scalar s when Scalar.is_zero s ->
          R.V_scalar (Scalar.zero Ty.int_scalar)
      | R.V_scalar _ ->
          R.V_scalar
            (if truth (eval ts env b) then Scalar.one Ty.int_scalar
             else Scalar.zero Ty.int_scalar)
      | va -> lift_binop ~safe:false Op.LogAnd va (eval ts env b))
  | Binop (Op.LogOr, a, b) -> (
      match eval ts env a with
      | R.V_scalar s when Scalar.is_true s ->
          R.V_scalar (Scalar.one Ty.int_scalar)
      | R.V_scalar _ ->
          R.V_scalar
            (if truth (eval ts env b) then Scalar.one Ty.int_scalar
             else Scalar.zero Ty.int_scalar)
      | va -> lift_binop ~safe:false Op.LogOr va (eval ts env b))
  | Binop (Op.Comma, a, b) -> (
      let va = eval ts env a in
      let vb = eval ts env b in
      match ts.l.cfg.profile.Profile.comma with
      | Profile.Comma_second -> vb
      | Profile.Comma_first -> va)
  | Binop (op, a, b) when Op.is_comparison op ->
      let v = lift_binop ~safe:false op (eval ts env a) (eval ts env b) in
      if
        ts.l.cfg.profile.Profile.group_id_cmp_invert
        && (mentions_group_id a || mentions_group_id b)
      then lift_unop Op.LogNot v
      else v
  | Binop (op, a, b) -> lift_binop ~safe:false op (eval ts env a) (eval ts env b)
  | Safe_binop (op, a, b) ->
      lift_binop ~safe:true op (eval ts env a) (eval ts env b)
  | Safe_neg a -> (
      match eval ts env a with
      | R.V_scalar s -> R.V_scalar (Scalar.safe_neg s)
      | R.V_vector v -> R.V_vector (Vecval.map Scalar.safe_neg v)
      | _ -> raise (Rt_crash "safe_unary_minus on non-integer"))
  | Builtin (b, args) -> lift_builtin b (List.map (eval ts env) args)
  | Call (f, args) -> eval_call ts env f args
  | Cast (t, a) -> (
      let v = eval ts env a in
      match (t, v) with
      | Ty.Scalar s, R.V_scalar x -> R.V_scalar (Scalar.convert s x)
      | Ty.Vector (s, _), R.V_vector x -> R.V_vector (Vecval.convert s x)
      | Ty.Vector (s, l), R.V_scalar x ->
          R.V_vector (Vecval.splat s l (Scalar.convert s x))
      | Ty.Ptr _, (R.V_ptr _ as p) -> p
      | _ -> raise (Rt_crash "invalid cast"))
  | Cond (c, a, b) ->
      if truth (eval ts env c) then eval ts env a else eval ts env b
  | Swizzle (a, idxs) -> (
      match eval ts env a with
      | R.V_vector vv -> (
          match idxs with
          | [ i ] -> R.V_scalar (Vecval.get vv i)
          | _ -> (
              match Vecval.swizzle vv idxs with
              | Some w -> R.V_vector w
              | None -> raise (Rt_crash "invalid swizzle")))
      | _ -> raise (Rt_crash "swizzle of non-vector value"))
  | Field _ | Arrow _ | Index _ | Deref _ ->
      let lv, _ = eval_lvalue ts env e in
      read_lv ts lv
  | Addr_of a -> (
      let lv, _ = eval_lvalue ts env a in
      match lv with
      | R.L_cell c -> R.V_ptr (Some { R.target = c; pspace = c.R.space })
      | R.L_bytes _ | R.L_comp _ ->
          raise (Rt_crash "address of union member or vector component"))
  | Vec_lit (s, l, args) ->
      let comps =
        List.concat_map
          (fun a ->
            match eval ts env a with
            | R.V_scalar x -> [ Scalar.convert s x ]
            | R.V_vector v ->
                Array.to_list (Array.map (Scalar.convert s) (Vecval.components v))
            | _ -> raise (Rt_crash "vector literal component"))
          args
      in
      if List.length comps <> Ty.vlen_to_int l then
        raise (Rt_crash "vector literal arity");
      R.V_vector (Vecval.make s (Array.of_list comps))
  | Atomic (aop, p, args) -> eval_atomic ts env aop p args

and lvalue_of_var ts env v : R.lvalue =
  match List.assoc_opt v env with
  | Some c -> R.L_cell c
  | None -> (
      match List.assoc_opt v ts.l.buffers with
      | Some c -> R.L_cell c
      | None -> raise (Rt_crash ("unbound variable " ^ v)))

(* returns (lvalue, reached-through-a-pointer) *)
and eval_lvalue ts env (e : expr) : R.lvalue * bool =
  tick_expr ts e;
  match e with
  | Var v -> (lvalue_of_var ts env v, false)
  | Field (a, f) ->
      let lv, vp = eval_lvalue ts env a in
      (R.cell_field ts.l.ctx lv f, vp)
  | Arrow (a, f) ->
      let p = as_pointer "->" (eval ts env a) in
      (R.cell_field ts.l.ctx (R.L_cell p.R.target) f, true)
  | Deref a -> (
      let p = as_pointer "*" (eval ts env a) in
      match p.R.target.R.content with
      | R.C_array _ -> (
          match R.cell_index ts.l.ctx (R.L_cell p.R.target) 0 with
          | Ok lv -> (lv, true)
          | Error m -> raise (Rt_crash m))
      | _ -> (R.L_cell p.R.target, true))
  | Index (a, i) -> (
      let idx = as_int "index" (eval ts env i) in
      let base, vp =
        match a with
        | Var _ | Field (_, _) | Index (_, _) | Arrow (_, _) | Deref _ ->
            eval_lvalue ts env a
        | _ ->
            let p = as_pointer "[]" (eval ts env a) in
            (R.L_cell p.R.target, true)
      in
      match base with
      | R.L_cell { R.content = R.C_ptr _; _ } ->
          (* pointer variable: a[i] = *(a + i) *)
          let p = as_pointer "[]" (read_lv ts base) in
          let arr = R.L_cell p.R.target in
          (match R.cell_index ts.l.ctx arr idx with
          | Ok lv -> (lv, true)
          | Error m -> raise (Rt_crash m))
      | _ -> (
          match R.cell_index ts.l.ctx base idx with
          | Ok lv -> (lv, vp)
          | Error m -> raise (Rt_crash m)))
  | Swizzle (a, [ i ]) -> (
      let lv, vp = eval_lvalue ts env a in
      match lv with
      | R.L_cell c -> (R.L_comp (c, i), vp)
      | _ -> raise (Rt_crash "swizzle lvalue through union"))
  | _ -> raise (Rt_crash ("not an lvalue: " ^ Pp.expr_to_string e))

and eval_call ts env f args : R.value =
  let fn =
    match List.find_opt (fun (fn : func) -> String.equal fn.fname f) ts.l.prog.funcs with
    | Some fn -> fn
    | None -> raise (Rt_crash ("call to unknown function " ^ f))
  in
  spend ts 1;
  let vargs = List.map (eval ts env) args in
  let callee_env =
    List.map2
      (fun (pname, pty) v ->
        let c = R.alloc ts.l.ctx Ty.Private pty in
        R.write ts.l.ctx (R.L_cell c) v;
        (pname, c))
      fn.params vargs
  in
  ts.call_depth <- ts.call_depth + 1;
  let saved_lost = ts.lost_writes in
  let flow = exec_block ts callee_env fn.body in
  ts.call_depth <- ts.call_depth - 1;
  (* the Fig. 2(c) write-loss flag is scoped to the invocation that executed
     the barrier *)
  if ts.call_depth = 0 then ts.lost_writes <- saved_lost;
  match flow with
  | F_return (Some v) -> v
  | F_return None | F_normal ->
      (* missing return in non-void functions: zero value *)
      (match fn.ret with
      | Ty.Void -> R.V_scalar (Scalar.zero Ty.int_scalar)
      | Ty.Scalar s -> R.V_scalar (Scalar.zero s)
      | Ty.Vector (s, l) -> R.V_vector (Vecval.splat s l (Scalar.zero s))
      | Ty.Ptr _ -> R.V_ptr None
      | t -> R.V_agg (R.alloc ts.l.ctx Ty.Private t))
  | F_break | F_continue -> raise (Rt_crash "break/continue escaped function")

and eval_atomic ts env aop p args : R.value =
  let ptr = as_pointer "atomic" (eval ts env p) in
  let cell = ptr.R.target in
  let lv = R.L_cell cell in
  ts.l.tally.t_atomics <- ts.l.tally.t_atomics + 1;
  record_access ts lv Race.Write ~atomic:true;
  let old = as_scalar "atomic" (R.read ts.l.ctx lv) in
  let ty = old.Scalar.ty in
  let operand i = Scalar.convert ty (as_scalar "atomic" (eval ts env (List.nth args i))) in
  let newv =
    match aop with
    | Op.A_inc -> Scalar.binop Op.Add old (Scalar.one ty)
    | Op.A_dec -> Scalar.binop Op.Sub old (Scalar.one ty)
    | Op.A_add -> Scalar.binop Op.Add old (operand 0)
    | Op.A_sub -> Scalar.binop Op.Sub old (operand 0)
    | Op.A_min -> Scalar.min_v old (operand 0)
    | Op.A_max -> Scalar.max_v old (operand 0)
    | Op.A_and -> Scalar.binop Op.BitAnd old (operand 0)
    | Op.A_or -> Scalar.binop Op.BitOr old (operand 0)
    | Op.A_xor -> Scalar.binop Op.BitXor old (operand 0)
    | Op.A_xchg -> operand 0
    | Op.A_cmpxchg ->
        if Scalar.equal old (operand 0) then operand 1 else old
  in
  R.write ts.l.ctx lv (R.V_scalar (Scalar.convert ty newv));
  R.V_scalar old

(* ------------------------------------------------------------------ *)
(* Initialisers (with the struct/union quirks)                         *)
(* ------------------------------------------------------------------ *)

and init_cell ts env (c : R.cell) (i : init) =
  let ctx = ts.l.ctx in
  let profile = ts.l.cfg.profile in
  match (c.R.content, i) with
  | _, I_expr e -> write_lv ts (R.L_cell c) (eval ts env e)
  | R.C_struct (n, fields), I_list is ->
      let agg = Ty.find_aggregate (R.tyenv_of ctx) n in
      let char_first = Layout.struct_is_char_first (R.tyenv_of ctx) agg in
      List.iteri
        (fun k ik ->
          if k < Array.length fields then
            if
              profile.Profile.struct_init_char_first_zero && char_first && k > 0
            then () (* Fig. 1(a): later fields read as zero *)
            else init_cell ts env fields.(k) ik)
        is
  | R.C_union (n, bytes), I_list [ i0 ] -> (
      let agg = Ty.find_aggregate (R.tyenv_of ctx) n in
      match profile.Profile.union_init with
      | Profile.Ui_correct -> (
          match agg.fields with
          | f0 :: _ -> init_cell_via_bytes ts env c 0 f0.Ty.fty i0
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
              | f0 :: _ -> init_cell_via_bytes ts env c 0 f0.Ty.fty i0
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
                | I_expr e -> Some e
                | I_list (x :: _) -> scalar_init x
                | I_list [] -> None
              in
              match scalar_init i0 with
              | Some e ->
                  init_cell_via_bytes ts env c 0 leaf_ty (I_expr e)
              | None -> ())))
  | R.C_union (_, _), I_list _ ->
      raise (Rt_crash "union initialiser must have one element")
  | R.C_array (_, cells), I_list is ->
      List.iteri
        (fun k ik -> if k < Array.length cells then init_cell ts env cells.(k) ik)
        is
  | R.C_vector old, I_list is ->
      let elem = Vecval.elem_ty old in
      let comps =
        List.map
          (fun ik ->
            match ik with
            | I_expr e -> Scalar.convert elem (as_scalar "vector init" (eval ts env e))
            | I_list _ -> raise (Rt_crash "nested vector initialiser"))
          is
      in
      write_lv ts (R.L_cell c) (R.V_vector (Vecval.make elem (Array.of_list comps)))
  | _, I_list _ -> raise (Rt_crash "brace initialiser for non-aggregate")

and init_cell_via_bytes ts env c off ty i =
  (* initialise a union member: build the value then write it through the
     byte window *)
  match i with
  | I_expr e -> write_lv ts (R.L_bytes (c, off, ty)) (eval ts env e)
  | I_list _ ->
      let tmp = R.alloc ts.l.ctx Ty.Private ty in
      init_cell ts env tmp i;
      write_lv ts (R.L_bytes (c, off, ty)) (R.read ts.l.ctx (R.L_cell tmp))

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and exec_block ts env stmts : flow =
  let rec go env = function
    | [] -> F_normal
    | s :: rest -> (
        match exec_stmt ts env s with
        | `Env env' -> go env' rest
        | `Flow F_normal -> go env rest
        | `Flow f -> f)
  in
  go env stmts

and exec_stmt ts env (s : stmt) : [ `Env of env | `Flow of flow ] =
  spend ts 1;
  tick_stmt ts s;
  match s with
  | Decl d ->
      let cell =
        match d.dspace with
        | Ty.Local -> (
            (* one allocation per group, shared by its threads *)
            match Hashtbl.find_opt ts.grp.shared_decls d.dname with
            | Some c -> c
            | None ->
                let c = R.alloc ts.l.ctx Ty.Local d.dty in
                Hashtbl.add ts.grp.shared_decls d.dname c;
                c)
        | sp ->
            let c = R.alloc ts.l.ctx sp d.dty in
            (match d.dinit with Some i -> init_cell ts env c i | None -> ());
            c
      in
      `Env ((d.dname, cell) :: env)
  | Assign (lhs, aop, rhs) ->
      let lv, via_ptr = eval_lvalue ts env lhs in
      let v =
        match aop with
        | A_simple -> eval ts env rhs
        | A_op op ->
            let old = read_lv ts lv in
            lift_binop ~safe:false op old (eval ts env rhs)
      in
      if write_is_lost ts ~via_ptr then `Flow F_normal
      else begin
        write_lv ts lv v;
        `Flow F_normal
      end
  | Expr e ->
      let (_ : R.value) = eval ts env e in
      `Flow F_normal
  | If (c, b1, b2) ->
      let branch = if truth (eval ts env c) then b1 else b2 in
      `Flow (exec_block ts env branch)
  | For f -> `Flow (exec_for ts env f)
  | While (c, body) ->
      ts.loop_iters <- 0 :: ts.loop_iters;
      let rec loop () =
        spend ts 1;
        if truth (eval ts env c) then (
          let fl = exec_block ts env body in
          bump_iter ts;
          match fl with
          | F_normal | F_continue -> loop ()
          | F_break -> F_normal
          | F_return _ as r -> r)
        else F_normal
      in
      let fl = loop () in
      ts.loop_iters <- List.tl ts.loop_iters;
      `Flow fl
  | Break -> `Flow F_break
  | Continue -> `Flow F_continue
  | Return None -> `Flow (F_return None)
  | Return (Some e) -> `Flow (F_return (Some (eval ts env e)))
  | Barrier fence ->
      exec_barrier ts s fence;
      `Flow F_normal
  | Block b -> `Flow (exec_block ts env b)
  | Emi { emi_lo; emi_hi; emi_body; _ } ->
      (* if (dead[hi] < dead[lo]) { body } — false under the standard host
         initialisation dead[j] = j, true when the host inverts dead *)
      let rd i =
        as_scalar "dead" (eval ts env (Index (Var "dead", const_of_int i)))
      in
      let guard = Scalar.is_true (Scalar.binop Op.Lt (rd emi_hi) (rd emi_lo)) in
      if guard then `Flow (exec_block ts env emi_body) else `Flow F_normal

and write_is_lost ts ~via_ptr =
  via_ptr
  &&
  match ts.l.cfg.profile.Profile.pointer_write_bug with
  | Profile.Pwb_none -> false
  | Profile.Pwb_callee_barrier _ -> ts.lost_writes && ts.call_depth > 0
  | Profile.Pwb_after_barrier -> ts.barrier_seen && ts.call_depth > 0

and bump_iter ts =
  match ts.loop_iters with
  | n :: rest -> ts.loop_iters <- (n + 1) :: rest
  | [] -> ()

and exec_for ts env (f : for_loop) : flow =
  let lb = ts.l.cfg.profile.Profile.loop_barrier in
  let body_has_barrier =
    (lb <> Profile.Lb_ok) && block_contains_barrier f.f_body
  in
  if body_has_barrier && lb = Profile.Lb_crash then
    raise (Rt_crash "segmentation fault (barrier inside loop)");
  let lose_init =
    body_has_barrier
    && lb = Profile.Lb_lose_init
    && Ndrange.l_linear ts.l.nd ts.th > 0
  in
  (* Fig. 2(d): the loop initialiser's store participates in condition
     evaluation but is never committed — model: run it, then restore the
     overwritten value once the loop completes. *)
  let restore = ref None in
  let env =
    match f.f_init with
    | None -> env
    | Some (Assign (lhs, _, _) as s) when lose_init ->
        let lv, _ = eval_lvalue ts env lhs in
        let old = R.read ts.l.ctx lv in
        restore := Some (lv, old);
        (match exec_stmt ts env s with `Env e -> e | `Flow _ -> env)
    | Some s -> (
        match exec_stmt ts env s with `Env e -> e | `Flow _ -> env)
  in
  ts.loop_iters <- 0 :: ts.loop_iters;
  let rec loop () =
    spend ts 1;
    let continue_loop =
      match f.f_cond with None -> true | Some c -> truth (eval ts env c)
    in
    if not continue_loop then F_normal
    else
      let fl = exec_block ts env f.f_body in
      bump_iter ts;
      match fl with
      | F_normal | F_continue ->
          (match f.f_update with
          | None -> ()
          | Some s -> ignore (exec_stmt ts env s));
          loop ()
      | F_break -> F_normal
      | F_return _ as r -> r
  in
  let fl = loop () in
  ts.loop_iters <- List.tl ts.loop_iters;
  (match !restore with
  | Some (lv, old) -> R.write ts.l.ctx lv old
  | None -> ());
  fl

and exec_barrier ts site fence =
  ts.l.tally.t_barriers <- ts.l.tally.t_barriers + 1;
  (match ts.l.cfg.profile.Profile.pointer_write_bug with
  | Profile.Pwb_callee_barrier { crash } when ts.call_depth > 0 ->
      if crash then raise (Rt_crash "segmentation fault (barrier in callee)");
      if Ndrange.l_linear ts.l.nd ts.th > 0 then ts.lost_writes <- true
  | Profile.Pwb_after_barrier -> ts.barrier_seen <- true
  | _ -> ());
  Effect.perform (Br { site; iters = ts.loop_iters; fence })

(* ------------------------------------------------------------------ *)
(* Group execution                                                     *)
(* ------------------------------------------------------------------ *)

let same_rendezvous (a : barrier_info) (b : barrier_info) =
  a.site == b.site && a.iters = b.iters

let run_thread_body ts env : unit =
  let flow = exec_block ts env ts.l.prog.kernel.body in
  match flow with
  | F_normal | F_return None -> ()
  | F_return (Some _) -> ()
  | F_break | F_continue -> raise (Rt_crash "break/continue escaped kernel")

let start_thread ts env : thread_status =
  Effect.Deep.match_with
    (fun () ->
      run_thread_body ts env;
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

let run_group (l : launch) g =
  let threads = Ndrange.threads_of_group l.nd g in
  let n = List.length threads in
  let grp = { g; shared_decls = Hashtbl.create 8; epoch_local = 0; epoch_global = 0 } in
  let states =
    List.map
      (fun th ->
        {
          th;
          l;
          grp;
          fuel = l.cfg.fuel;
          loop_iters = [];
          call_depth = 0;
          lost_writes = false;
          barrier_seen = false;
        })
      threads
  in
  let kernel_env ts =
    ignore ts;
    (* kernel parameters are pointers to the launch buffers; constant
       arrays are bound as array cells *)
    let param_env =
      List.map
        (fun (pname, pty) ->
          match List.assoc_opt pname l.buffers with
          | Some buf ->
              let c = R.alloc l.ctx Ty.Private pty in
              R.write l.ctx (R.L_cell c)
                (R.V_ptr (Some { R.target = buf; pspace = buf.R.space }));
              (pname, c)
          | None -> raise (Rt_crash ("missing buffer for parameter " ^ pname)))
        l.prog.kernel.params
    in
    param_env
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
  let states_arr = Array.of_list states in
  try
    let finished = ref false in
    while not !finished do
      let order = Sched.order l.cfg.schedule ~epoch:!epoch n in
      Array.iter
        (fun i ->
          match runnable.(i) with
          | `Start ts ->
              let env = kernel_env ts in
              statuses.(i) <- Some (start_thread ts env)
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
      | d, bs when d > 0 ->
          ignore bs;
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
    done;
    ignore states_arr
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

let setup_buffers (tc : testcase) ctx nd =
  List.map
    (fun (name, spec) ->
      let pty =
        match List.assoc_opt name tc.prog.kernel.params with
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
            let d = tc.prog.dead_size in
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

let run ?(config = Interp.default_config) (tc : testcase) : run_result =
  let race = Race.create () in
  let tally = { t_steps = 0; t_barriers = 0; t_atomics = 0; t_race_checks = 0 } in
  let costs = Costwalk.index tc.prog in
  let counts = Array.make (Costwalk.size costs) 0 in
  let stats () =
    {
      steps = tally.t_steps;
      barriers = tally.t_barriers;
      atomics = tally.t_atomics;
      race_checks = tally.t_race_checks;
      prof = [];
    }
  in
  match
    let nd = Ndrange.make ~global:tc.global_size ~local:tc.local_size in
    let tyenv = tyenv_of_program tc.prog in
    let ctx = R.alloc_ctx ~tyenv ~layout:config.layout () in
    let buffers = setup_buffers tc ctx nd in
    let const_cells =
      List.map
        (fun (ca : const_array) ->
          if Array.length ca.ca_data = 1 then
            ( ca.ca_name,
              R.alloc_scalar_buffer ctx Ty.Constant ca.ca_elem ca.ca_data.(0) )
          else
            (ca.ca_name, R.alloc_matrix_buffer ctx Ty.Constant ca.ca_elem ca.ca_data))
        tc.prog.constant_arrays
    in
    let l =
      {
        cfg = config;
        ctx;
        prog = tc.prog;
        nd;
        buffers = buffers @ const_cells;
        race;
        tally;
        costs;
        counts;
      }
    in
    List.iter (fun g -> run_group l g) (Ndrange.groups nd);
    let observed =
      List.map
        (fun name ->
          match List.assoc_opt name l.buffers with
          | Some c -> (name, R.scalar_buffer_contents c)
          | None -> (name, [||]))
        tc.observe
    in
    output_of_buffers observed
  with
  | out ->
      let races = Race.races race in
      if config.detect_races && races <> [] then
        {
          outcome = Outcome.Ub (Race.race_to_string (List.hd races));
          races;
          stats = stats (); ticks = counts;
        }
      else { outcome = Outcome.Success out; races; stats = stats (); ticks = counts }
  | exception Rt_crash m ->
      { outcome = Outcome.Crash m; races = Race.races race; stats = stats (); ticks = counts }
  | exception Fuel_exhausted ->
      { outcome = Outcome.Timeout; races = Race.races race; stats = stats (); ticks = counts }
  | exception Divergence m ->
      { outcome = Outcome.Ub m; races = Race.races race; stats = stats (); ticks = counts }
  | exception Invalid_argument m ->
      {
        outcome = Outcome.Crash ("runtime error: " ^ m);
        races = Race.races race;
        stats = stats (); ticks = counts;
      }

