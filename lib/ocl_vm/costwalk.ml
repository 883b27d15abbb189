open Ast

(* Node identity is physical: the compiler looks up the very program
   value [build] walked, so (==) lookups hit. Structural hashing keeps
   physically distinct but equal nodes in the same bucket, where (==)
   disambiguates. *)
module Etbl = Hashtbl.Make (struct
  type t = expr

  let equal = ( == )
  let hash = Hashtbl.hash
end)

module Stbl = Hashtbl.Make (struct
  type t = stmt

  let equal = ( == )
  let hash = Hashtbl.hash
end)

(* slots [0, n_static) are the program's nodes; one synthetic slot per
   constructor family follows, in [expr_kinds] then [stmt_kinds] order.
   A slot's path is built once, and every decoded cell shares it. *)
type t = {
  kinds : int array;  (* index into [families] *)
  paths : string array;
  n_static : int;
}

type index = { n : int; expr_ids : int Etbl.t; stmt_ids : int Stbl.t }

let expr_kinds =
  [| "const"; "var"; "thread_id"; "unop"; "binop"; "safe_binop"; "safe_neg";
     "builtin"; "call"; "cast"; "cond"; "field"; "arrow"; "index"; "deref";
     "addr_of"; "vec_lit"; "swizzle"; "atomic" |]

let stmt_kinds =
  [| "decl"; "assign"; "expr_stmt"; "if"; "for"; "while"; "break";
     "continue"; "return"; "barrier"; "block"; "emi" |]

let expr_kind_index = function
  | Const _ -> 0
  | Var _ -> 1
  | Thread_id _ -> 2
  | Unop _ -> 3
  | Binop _ -> 4
  | Safe_binop _ -> 5
  | Safe_neg _ -> 6
  | Builtin _ -> 7
  | Call _ -> 8
  | Cast _ -> 9
  | Cond _ -> 10
  | Field _ -> 11
  | Arrow _ -> 12
  | Index _ -> 13
  | Deref _ -> 14
  | Addr_of _ -> 15
  | Vec_lit _ -> 16
  | Swizzle _ -> 17
  | Atomic _ -> 18

let stmt_kind_index = function
  | Decl _ -> 0
  | Assign _ -> 1
  | Expr _ -> 2
  | If _ -> 3
  | For _ -> 4
  | While _ -> 5
  | Break -> 6
  | Continue -> 7
  | Return _ -> 8
  | Barrier _ -> 9
  | Block _ -> 10
  | Emi _ -> 11

(* every family's name, by [kinds] index: expression families first *)
let families = Array.append expr_kinds stmt_kinds
let n_expr_kinds = Array.length expr_kinds

(* One deterministic preorder walk numbering each distinct node; [reg
   kind parent] is told each one and returns its slot. Returns the
   identity tables. *)
let walk (p : program) ~bound reg =
  let expr_ids = Etbl.create (bound / 2) in
  let stmt_ids = Stbl.create 64 in
  let rec walk_expr parent e =
    if not (Etbl.mem expr_ids e) then begin
      let id = reg (expr_kind_index e) parent in
      Etbl.add expr_ids e id;
      match e with
      | Const _ | Var _ | Thread_id _ -> ()
      | Unop (_, a) | Safe_neg a | Cast (_, a) | Deref a | Addr_of a
      | Field (a, _) | Arrow (a, _) | Swizzle (a, _) ->
          walk_expr id a
      | Binop (_, a, b) | Safe_binop (_, a, b) | Index (a, b) ->
          walk_expr id a;
          walk_expr id b
      | Cond (a, b, c) ->
          walk_expr id a;
          walk_expr id b;
          walk_expr id c
      | Builtin (_, args) | Call (_, args) | Vec_lit (_, _, args) ->
          List.iter (walk_expr id) args
      | Atomic (_, ptr, args) ->
          walk_expr id ptr;
          List.iter (walk_expr id) args
    end
  in
  let rec walk_init parent = function
    | I_expr e -> walk_expr parent e
    | I_list is -> List.iter (walk_init parent) is
  in
  let rec walk_stmt parent s =
    if not (Stbl.mem stmt_ids s) then begin
      let id = reg (n_expr_kinds + stmt_kind_index s) parent in
      Stbl.add stmt_ids s id;
      match s with
      | Decl { dinit = Some i; _ } -> walk_init id i
      | Decl { dinit = None; _ } | Break | Continue | Return None | Barrier _
        ->
          ()
      | Assign (l, _, r) ->
          walk_expr id l;
          walk_expr id r
      | Expr e | Return (Some e) -> walk_expr id e
      | If (c, b1, b2) ->
          walk_expr id c;
          List.iter (walk_stmt id) b1;
          List.iter (walk_stmt id) b2
      | For { f_init; f_cond; f_update; f_body } ->
          Option.iter (walk_stmt id) f_init;
          Option.iter (walk_expr id) f_cond;
          Option.iter (walk_stmt id) f_update;
          List.iter (walk_stmt id) f_body
      | While (c, b) ->
          walk_expr id c;
          List.iter (walk_stmt id) b
      | Block b -> List.iter (walk_stmt id) b
      | Emi { emi_body; _ } -> List.iter (walk_stmt id) emi_body
    end
  in
  List.iteri
    (fun i (f : func) -> List.iter (walk_stmt (-1 - i)) f.body)
    (p.funcs @ [ p.kernel ]);
  (expr_ids, stmt_ids)

let counter () =
  let next = ref 0 in
  ( next,
    fun _ _ ->
      let id = !next in
      incr next;
      id )

let index (p : program) =
  let next, reg = counter () in
  let expr_ids, stmt_ids = walk p ~bound:(expr_count p) reg in
  { n = !next; expr_ids; stmt_ids }

let build (p : program) =
  (* an upper bound on the slots, so nothing is resized *)
  let bound = expr_count p + stmt_count p in
  let kinds = Array.make bound 0 and parents = Array.make bound 0 in
  let next, count = counter () in
  let reg kind parent =
    let id = count kind parent in
    kinds.(id) <- kind;
    parents.(id) <- parent;
    id
  in
  ignore (walk p ~bound reg);
  let n = !next in
  let frames =
    Array.of_list
      (List.map (fun (f : func) -> "fn:" ^ f.fname) p.funcs
      @ [ "kernel:" ^ p.kernel.fname ])
  in
  let kinds =
    Array.init (n + Array.length families) (fun i -> if i < n then kinds.(i) else i - n)
  in
  (* preorder numbers a parent before its children: its path, or the
     root frame [-1 - f] it hangs below, is ready first *)
  let paths = Array.make (Array.length kinds) "" in
  Array.iteri
    (fun slot kind ->
      paths.(slot) <-
        (if slot >= n then "<synthetic>"
         else
           let parent = parents.(slot) in
           if parent < 0 then frames.(-1 - parent) else paths.(parent))
        ^ ";" ^ families.(kind))
    kinds;
  { kinds; paths; n_static = n }

let size ix = ix.n + Array.length families

let expr_slot ix e =
  match Etbl.find_opt ix.expr_ids e with
  | Some id -> id
  | None -> ix.n + expr_kind_index e

let stmt_slot ix s =
  match Stbl.find_opt ix.stmt_ids s with
  | Some id -> id
  | None -> ix.n + n_expr_kinds + stmt_kind_index s

let ticks counts = Array.fold_left ( + ) 0 counts

let constructs t counts =
  let acc = ref [] in
  for slot = Array.length counts - 1 downto 0 do
    if counts.(slot) > 0 then
      acc :=
        {
          Costprof.kind = families.(t.kinds.(slot));
          loc = (if slot < t.n_static then slot else -1);
          path = t.paths.(slot);
          n = counts.(slot);
        }
        :: !acc
  done;
  List.sort
    (fun (a : Costprof.construct) b -> compare (a.loc, a.kind) (b.loc, b.kind))
    !acc
