type t = { elem : Ty.scalar; comps : Scalar.t array }

let make elem comps =
  (match Ty.vlen_of_int (Array.length comps) with
  | Some _ -> ()
  | None ->
      invalid_arg
        (Printf.sprintf "Vecval.make: invalid vector length %d"
           (Array.length comps)));
  { elem; comps = Array.map (Scalar.convert elem) comps }

let splat elem vl x =
  { elem; comps = Array.make (Ty.vlen_to_int vl) (Scalar.convert elem x) }

let elem_ty v = v.elem
let length v = Array.length v.comps

let vlen v =
  match Ty.vlen_of_int (Array.length v.comps) with
  | Some l -> l
  | None -> assert false

let get v i = v.comps.(i)
let components v = Array.copy v.comps

let swizzle v idxs =
  let n = List.length idxs in
  match Ty.vlen_of_int n with
  | None -> None
  | Some _ ->
      let comps = Array.of_list (List.map (fun i -> v.comps.(i)) idxs) in
      Some { elem = v.elem; comps }

let equal a b =
  a.elem = b.elem
  && Array.length a.comps = Array.length b.comps
  && Array.for_all2 Scalar.equal a.comps b.comps

let map f v = { elem = v.elem; comps = Array.map f v.comps }

let map2 f a b =
  if Array.length a.comps <> Array.length b.comps then
    invalid_arg "Vecval.map2: length mismatch";
  { elem = a.elem; comps = Array.map2 f a.comps b.comps }

let binop op =
  let sop = Scalar.binop op in
  if Op.is_comparison op then fun a b ->
    (* Vector comparisons yield 0 / all-ones in the signed type of the
       element width. *)
    let rty = { a.elem with Ty.sign = Ty.Signed } in
    let f x y =
      if Scalar.is_true (sop x y) then Scalar.make rty (-1L) else Scalar.zero rty
    in
    { elem = rty; comps = Array.map2 f a.comps b.comps }
  else fun a b ->
    let comps = Array.map2 sop a.comps b.comps in
    let elem = if Array.length comps > 0 then (comps.(0)).Scalar.ty else a.elem in
    { elem; comps = Array.map (Scalar.convert elem) comps }

let convert elem v = { elem; comps = Array.map (Scalar.convert elem) v.comps }

let to_string v =
  let comps = Array.to_list (Array.map Scalar.to_string v.comps) in
  Printf.sprintf "(%s%d)(%s)" (Ty.scalar_name v.elem) (Array.length v.comps)
    (String.concat ", " comps)

let pp fmt v = Format.pp_print_string fmt (to_string v)
