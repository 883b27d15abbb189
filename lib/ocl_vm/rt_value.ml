type cell = { loc : int; space : Ty.space; mutable content : content }

and content =
  | C_scalar of Scalar.t
  | C_vector of Vecval.t
  | C_struct of string * cell array
  | C_union of string * Bytes.t
  | C_array of Ty.t * cell array
  | C_ptr of pointer option

and pointer = { target : cell; pspace : Ty.space }

type value =
  | V_scalar of Scalar.t
  | V_vector of Vecval.t
  | V_ptr of pointer option
  | V_agg of cell

type lvalue =
  | L_cell of cell
  | L_bytes of cell * int * Ty.t
  | L_comp of cell * int

type alloc_ctx = {
  tyenv : Ty.tyenv;
  layout : Layout.policy;
  mutable next_loc : int;
}

let alloc_ctx ~tyenv ~layout () = { tyenv; layout; next_loc = 0 }
let tyenv_of ctx = ctx.tyenv
let layout_of ctx = ctx.layout

let is_shared = function
  | Ty.Local | Ty.Global -> true
  | Ty.Private | Ty.Constant -> false

let fresh_loc ctx space =
  if is_shared space then (
    let l = ctx.next_loc in
    ctx.next_loc <- ctx.next_loc + 1;
    l)
  else -1

let rec alloc ctx space (t : Ty.t) : cell =
  let loc = fresh_loc ctx space in
  let content =
    match t with
    | Ty.Void -> invalid_arg "Rt_value.alloc: void"
    | Ty.Scalar s -> C_scalar (Scalar.zero s)
    | Ty.Vector (s, l) -> C_vector (Vecval.splat s l (Scalar.zero s))
    | Ty.Ptr _ -> C_ptr None
    | Ty.Arr (e, n) -> C_array (e, Array.init n (fun _ -> alloc ctx space e))
    | Ty.Named n -> (
        let agg = Ty.find_aggregate ctx.tyenv n in
        if agg.is_union then
          C_union (n, Bytes.make (Layout.sizeof ctx.layout ctx.tyenv t) '\000')
        else
          C_struct
            ( agg.aname,
              Array.of_list
                (List.map (fun (f : Ty.field) -> alloc ctx space f.fty) agg.fields)
            ))
  in
  { loc; space; content }

let alloc_scalar_buffer ctx space elem data =
  let loc = fresh_loc ctx space in
  let cells =
    Array.map
      (fun v ->
        { loc = fresh_loc ctx space; space; content = C_scalar (Scalar.make elem v) })
      data
  in
  { loc; space; content = C_array (Ty.Scalar elem, cells) }

let alloc_matrix_buffer ctx space elem rows =
  let loc = fresh_loc ctx space in
  let row_cells = Array.map (alloc_scalar_buffer ctx space elem) rows in
  let cols = if Array.length rows = 0 then 0 else Array.length rows.(0) in
  { loc; space; content = C_array (Ty.Arr (Ty.Scalar elem, cols), row_cells) }

let base_loc = function
  | L_cell c | L_bytes (c, _, _) | L_comp (c, _) -> c.loc

let lvalue_space = function
  | L_cell c | L_bytes (c, _, _) | L_comp (c, _) -> c.space

let rec deep_copy ctx (c : cell) : cell =
  let content =
    match c.content with
    | C_scalar s -> C_scalar s
    | C_vector v -> C_vector v
    | C_struct (n, fs) -> C_struct (n, Array.map (deep_copy ctx) fs)
    | C_union (n, b) -> C_union (n, Bytes.copy b)
    | C_array (t, es) -> C_array (t, Array.map (deep_copy ctx) es)
    | C_ptr p -> C_ptr p
  in
  { loc = -1; space = Ty.Private; content }

(* Copy [src]'s contents into [dst] preserving [dst]'s cell identities
   (aggregate assignment). *)
let rec copy_into ?(skip_arrays = false) (dst : cell) (src : cell) =
  match (dst.content, src.content) with
  | C_struct (_, df), C_struct (_, sf) when Array.length df = Array.length sf
    ->
      (* the Fig. 1(b) quirk: whole-struct assignment fails to copy
         array-typed members *)
      Array.iter2
        (fun d s ->
          match d.content with
          | C_array _ when skip_arrays -> ()
          | _ -> copy_into ~skip_arrays d s)
        df sf
  | C_array (_, de), C_array (_, se) when Array.length de = Array.length se ->
      Array.iter2 (fun d s -> copy_into ~skip_arrays d s) de se
  | C_union (n, db), C_union (m, sb)
    when String.equal n m && Bytes.length db = Bytes.length sb ->
      Bytes.blit sb 0 db 0 (Bytes.length sb)
  | (C_scalar _ | C_vector _ | C_ptr _), _ -> dst.content <- src.content
  | _ -> invalid_arg "Rt_value.copy_into: shape mismatch"

(* --- byte views (paths through unions) --- *)

let aggregate_of ctx name = Ty.find_aggregate ctx.tyenv name

(* Serialise a cell tree into [buf] at [off], using the context's layout. *)
let rec serialize ctx buf off (c : cell) =
  match c.content with
  | C_scalar s -> Bytes_repr.write buf off s
  | C_vector v -> Bytes_repr.write_vector buf off v
  | C_union (_, b) -> Bytes.blit b 0 buf off (Bytes.length b)
  | C_array (t, es) ->
      let esz = Layout.sizeof ctx.layout ctx.tyenv t in
      Array.iteri (fun i e -> serialize ctx buf (off + (i * esz)) e) es
  | C_struct (n, fs) ->
      let offs = Layout.field_offsets ctx.layout ctx.tyenv (aggregate_of ctx n) in
      List.iteri
        (fun i (_, foff) -> serialize ctx buf (off + foff) fs.(i))
        offs
  | C_ptr _ -> invalid_arg "Rt_value.serialize: pointer inside a union"

(* Materialise a private cell tree of type [t] from bytes. *)
let rec materialize ctx buf off (t : Ty.t) : cell =
  let content =
    match t with
    | Ty.Scalar s -> C_scalar (Bytes_repr.read buf off s)
    | Ty.Vector (s, l) -> C_vector (Bytes_repr.read_vector buf off s l)
    | Ty.Arr (e, n) ->
        let esz = Layout.sizeof ctx.layout ctx.tyenv e in
        C_array (e, Array.init n (fun i -> materialize ctx buf (off + (i * esz)) e))
    | Ty.Named n ->
        let agg = aggregate_of ctx n in
        if agg.is_union then (
          let sz = Layout.sizeof ctx.layout ctx.tyenv t in
          let b = Bytes.make sz '\000' in
          Bytes.blit buf off b 0 sz;
          C_union (n, b))
        else
          let offs = Layout.field_offsets ctx.layout ctx.tyenv agg in
          let fields = Array.of_list agg.fields in
          C_struct
            ( agg.aname,
              Array.of_list
                (List.mapi
                   (fun i (_, foff) ->
                     materialize ctx buf (off + foff) fields.(i).Ty.fty)
                   offs) )
    | Ty.Ptr _ | Ty.Void ->
        invalid_arg "Rt_value.materialize: pointer/void inside a union"
  in
  { loc = -1; space = Ty.Private; content }

(* --- reads and writes --- *)

let is_zero_scalar = function
  | V_scalar s -> Scalar.is_zero s
  | _ -> false

let read ctx (lv : lvalue) : value =
  match lv with
  | L_cell c -> (
      match c.content with
      | C_scalar s -> V_scalar s
      | C_vector v -> V_vector v
      | C_ptr p -> V_ptr p
      | C_struct _ | C_union _ | C_array _ -> V_agg (deep_copy ctx c))
  | L_comp (c, i) -> (
      match c.content with
      | C_vector v -> V_scalar (Vecval.get v i)
      | _ -> invalid_arg "Rt_value.read: component of non-vector")
  | L_bytes (c, off, t) -> (
      let buf =
        match c.content with
        | C_union (_, b) -> b
        | _ -> invalid_arg "Rt_value.read: byte view of non-union"
      in
      match t with
      | Ty.Scalar s -> V_scalar (Bytes_repr.read buf off s)
      | Ty.Vector (s, l) -> V_vector (Bytes_repr.read_vector buf off s l)
      | _ -> V_agg (materialize ctx buf off t))

let write ?(skip_arrays = false) ctx (lv : lvalue) (v : value) =
  match lv with
  | L_cell c -> (
      match (c.content, v) with
      | C_ptr _, V_scalar _ when is_zero_scalar v ->
          (* null pointer constant *)
          c.content <- C_ptr None
      | C_scalar old, V_scalar s -> c.content <- C_scalar (Scalar.convert old.Scalar.ty s)
      | C_scalar old, V_vector _ ->
          ignore old;
          invalid_arg "Rt_value.write: vector into scalar"
      | C_vector old, V_scalar s ->
          (* scalar splat on assignment *)
          c.content <-
            C_vector (Vecval.splat (Vecval.elem_ty old) (Vecval.vlen old) s)
      | C_vector old, V_vector nv ->
          c.content <- C_vector (Vecval.convert (Vecval.elem_ty old) nv)
      | C_ptr _, V_ptr p -> c.content <- C_ptr p
      | (C_struct _ | C_union _ | C_array _), V_agg src -> copy_into ~skip_arrays c src
      | _ -> invalid_arg "Rt_value.write: shape mismatch")
  | L_comp (c, i) -> (
      match (c.content, v) with
      | C_vector old, V_scalar s ->
          let comps = Vecval.components old in
          comps.(i) <- Scalar.convert (Vecval.elem_ty old) s;
          c.content <- C_vector (Vecval.make (Vecval.elem_ty old) comps)
      | _ -> invalid_arg "Rt_value.write: component write mismatch")
  | L_bytes (c, off, t) -> (
      let buf =
        match c.content with
        | C_union (_, b) -> b
        | _ -> invalid_arg "Rt_value.write: byte view of non-union"
      in
      match (t, v) with
      | Ty.Scalar s, V_scalar x -> Bytes_repr.write buf off (Scalar.convert s x)
      | Ty.Vector (s, _), V_vector x ->
          Bytes_repr.write_vector buf off (Vecval.convert s x)
      | _, V_agg src -> serialize ctx buf off src
      | _ -> invalid_arg "Rt_value.write: byte-view shape mismatch")

(* --- path navigation --- *)

let field_info ctx agg_name fname =
  let agg = aggregate_of ctx agg_name in
  let rec find i = function
    | [] -> invalid_arg ("Rt_value: no field " ^ fname ^ " in " ^ agg_name)
    | (f : Ty.field) :: _ when String.equal f.fname fname -> (i, f)
    | _ :: rest -> find (i + 1) rest
  in
  find 0 agg.fields

let cell_field ctx (lv : lvalue) fname : lvalue =
  match lv with
  | L_cell ({ content = C_struct (n, fs); _ } as _c) ->
      let i, _ = field_info ctx n fname in
      L_cell fs.(i)
  | L_cell ({ content = C_union (n, _); _ } as c) ->
      let _, f = field_info ctx n fname in
      let off = Layout.field_offset ctx.layout ctx.tyenv ~agg:n ~field:fname in
      L_bytes (c, off, f.fty)
  | L_bytes (c, off, Ty.Named n) ->
      let _, f = field_info ctx n fname in
      let foff = Layout.field_offset ctx.layout ctx.tyenv ~agg:n ~field:fname in
      L_bytes (c, off + foff, f.fty)
  | _ -> invalid_arg ("Rt_value.cell_field: bad base for ." ^ fname)

let cell_index ctx (lv : lvalue) i : (lvalue, string) result =
  let oob n =
    Error
      (Printf.sprintf "out-of-bounds access: index %d of array of size %d" i n)
  in
  match lv with
  | L_cell { content = C_array (_, es); _ } ->
      if i < 0 || i >= Array.length es then oob (Array.length es)
      else Ok (L_cell es.(i))
  | L_bytes (c, off, Ty.Arr (e, n)) ->
      if i < 0 || i >= n then oob n
      else
        let esz = Layout.sizeof ctx.layout ctx.tyenv e in
        Ok (L_bytes (c, off + (i * esz), e))
  | _ -> Error "indexing a non-array value"

let scalar_buffer_contents (c : cell) =
  match c.content with
  | C_array (_, es) ->
      Array.map
        (fun e ->
          match e.content with
          | C_scalar s -> s
          | _ -> invalid_arg "Rt_value.scalar_buffer_contents: non-scalar")
        es
  | _ -> invalid_arg "Rt_value.scalar_buffer_contents: non-array"
