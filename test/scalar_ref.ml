(* The original Scalar: one generic [binop] that matches on the operator
   and recomputes the common type and both conversions at every call.
   Kept as test_scalar's oracle for the specialised lib/value/scalar.ml,
   with its own copy of the original usual arithmetic conversions;
   nothing outside the tests uses it. *)

type t = { v : int64; ty : Ty.scalar }

let mask_of_width : Ty.width -> int64 = function
  | Ty.W8 -> 0xFFL
  | Ty.W16 -> 0xFFFFL
  | Ty.W32 -> 0xFFFFFFFFL
  | Ty.W64 -> -1L

(* Normalise an arbitrary bit pattern to the representation invariant:
   sign-extended for signed types, zero-extended for unsigned. *)
let normalize (ty : Ty.scalar) bits =
  match ty.width with
  | Ty.W64 -> bits
  | w ->
      let n = Ty.bits w in
      let low = Int64.logand bits (mask_of_width w) in
      (match ty.sign with
      | Ty.Unsigned -> low
      | Ty.Signed ->
          let sign_bit = Int64.shift_left 1L (n - 1) in
          if Int64.logand low sign_bit = 0L then low
          else Int64.logor low (Int64.lognot (mask_of_width w)))

let make ty bits = { v = normalize ty bits; ty }
let of_int ty n = make ty (Int64.of_int n)
let to_int64 x = x.v
let ty x = x.ty
let zero ty = { v = 0L; ty }
let one ty = make ty 1L
let is_zero x = x.v = 0L
let is_true x = x.v <> 0L
let equal a b = a.ty = b.ty && a.v = b.v

let convert ty x = make ty x.v

let int_ty = Ty.int_scalar
let bool_result b = { v = (if b then 1L else 0L); ty = int_ty }
let promote = Ty.promote
(* Ty.usual_arith as it was, so the oracle does not share the changed one *)
let usual_arithmetic_conversion (a : Ty.scalar) (b : Ty.scalar) =
  let a = Ty.promote a and b = Ty.promote b in
  if Ty.bits a.width = Ty.bits b.width then
    if a.sign = Ty.Unsigned || b.sign = Ty.Unsigned then { a with sign = Ty.Unsigned }
    else a
  else if Ty.bits a.width > Ty.bits b.width then a
  else b

let is_signed x = x.ty.sign = Ty.Signed

let unsigned_lt a b = Int64.unsigned_compare a b < 0

let div_raw ~signed a b =
  if b = 0L then None
  else if signed && a = Int64.min_int && b = -1L then None
  else Some (if signed then Int64.div a b else Int64.unsigned_div a b)

let rem_raw ~signed a b =
  if b = 0L then None
  else if signed && a = Int64.min_int && b = -1L then Some 0L
  else Some (if signed then Int64.rem a b else Int64.unsigned_rem a b)

let compare_values a b =
  (* Precondition: operands already share a common type. *)
  if is_signed a then Int64.compare a.v b.v else Int64.unsigned_compare a.v b.v

let shift_amount_in_range ty y =
  let w = Int64.of_int (Ty.bits ty.Ty.width) in
  if y.ty.sign = Ty.Signed then y.v >= 0L && y.v < w else unsigned_lt y.v w

let binop (op : Op.binop) a b =
  match op with
  | Op.Comma -> b
  | Op.LogAnd -> bool_result (is_true a && is_true b)
  | Op.LogOr -> bool_result (is_true a || is_true b)
  | Op.Eq | Op.Ne | Op.Lt | Op.Gt | Op.Le | Op.Ge ->
      let common = usual_arithmetic_conversion a.ty b.ty in
      let a = convert common a and b = convert common b in
      let c = compare_values a b in
      bool_result
        (match op with
        | Op.Eq -> c = 0
        | Op.Ne -> c <> 0
        | Op.Lt -> c < 0
        | Op.Gt -> c > 0
        | Op.Le -> c <= 0
        | Op.Ge -> c >= 0
        | _ -> assert false)
  | Op.Shl | Op.Shr ->
      (* The left operand's promoted type is the result type; the shift
         count is reduced modulo the width to stay total. *)
      let rty = promote a.ty in
      let a' = convert rty a in
      let w = Ty.bits rty.width in
      let amt = Int64.to_int (Int64.logand b.v (Int64.of_int (w - 1))) in
      let amt = (amt mod w + w) mod w in
      (match op with
      | Op.Shl -> make rty (Int64.shift_left a'.v amt)
      | Op.Shr ->
          if rty.sign = Ty.Signed then make rty (Int64.shift_right a'.v amt)
          else
            let bits = Int64.logand a'.v (mask_of_width rty.width) in
            make rty (Int64.shift_right_logical bits amt)
      | _ -> assert false)
  | Op.Add | Op.Sub | Op.Mul | Op.Div | Op.Mod | Op.BitAnd | Op.BitOr
  | Op.BitXor ->
      let common = usual_arithmetic_conversion a.ty b.ty in
      let a = convert common a and b = convert common b in
      let signed = common.sign = Ty.Signed in
      let bits =
        match op with
        | Op.Add -> Int64.add a.v b.v
        | Op.Sub -> Int64.sub a.v b.v
        | Op.Mul -> Int64.mul a.v b.v
        | Op.Div -> (
            match div_raw ~signed a.v b.v with Some r -> r | None -> a.v)
        | Op.Mod -> (
            match rem_raw ~signed a.v b.v with Some r -> r | None -> a.v)
        | Op.BitAnd -> Int64.logand a.v b.v
        | Op.BitOr -> Int64.logor a.v b.v
        | Op.BitXor -> Int64.logxor a.v b.v
        | _ -> assert false
      in
      make common bits

let neg x =
  let rty = promote x.ty in
  make rty (Int64.neg (convert rty x).v)

let bit_not x =
  let rty = promote x.ty in
  make rty (Int64.lognot (convert rty x).v)

let log_not x = bool_result (is_zero x)

(* Signed overflow predicates on values already in a common signed type.
   Because narrower values are sign-extended into int64, overflow checks on
   the int64 result against the type's bounds are exact. *)
let fits ty v = v >= Ty.min_value ty && v <= Ty.max_value ty

let add_overflows ty a b =
  if ty.Ty.width = Ty.W64 then
    (* int64 arithmetic itself wraps: detect via sign rules. *)
    (a > 0L && b > 0L && Int64.add a b < 0L)
    || (a < 0L && b < 0L && Int64.add a b >= 0L)
  else not (fits ty (Int64.add a b))

let sub_overflows ty a b =
  if ty.Ty.width = Ty.W64 then
    (a >= 0L && b < 0L && Int64.sub a b < 0L)
    || (a < 0L && b > 0L && Int64.sub a b >= 0L)
  else not (fits ty (Int64.sub a b))

let mul_overflows ty a b =
  if a = 0L || b = 0L then false
  else if ty.Ty.width = Ty.W64 then
    let p = Int64.mul a b in
    Int64.div p b <> a || (a = -1L && b = Int64.min_int)
    || (b = -1L && a = Int64.min_int)
  else not (fits ty (Int64.mul a b))

let safe_binop (op : Op.binop) a b =
  match op with
  | Op.Add | Op.Sub | Op.Mul ->
      let common = usual_arithmetic_conversion a.ty b.ty in
      let a' = convert common a and b' = convert common b in
      if common.sign = Ty.Unsigned then binop op a' b'
      else
        let overflows =
          match op with
          | Op.Add -> add_overflows common a'.v b'.v
          | Op.Sub -> sub_overflows common a'.v b'.v
          | Op.Mul -> mul_overflows common a'.v b'.v
          | _ -> assert false
        in
        if overflows then a' else binop op a' b'
  | Op.Div | Op.Mod ->
      let common = usual_arithmetic_conversion a.ty b.ty in
      let a' = convert common a and b' = convert common b in
      let undefined =
        b'.v = 0L
        || (common.sign = Ty.Signed && a'.v = Ty.min_value common && b'.v = -1L)
      in
      if undefined then a' else binop op a' b'
  | Op.Shl ->
      let rty = promote a.ty in
      let a' = convert rty a in
      if
        (rty.sign = Ty.Signed && a'.v < 0L)
        || (not (shift_amount_in_range rty b))
        || rty.sign = Ty.Signed
           && b.v >= 0L
           && a'.v > Int64.shift_right (Ty.max_value rty) (Int64.to_int b.v)
      then a'
      else binop Op.Shl a' b
  | Op.Shr ->
      let rty = promote a.ty in
      let a' = convert rty a in
      if (rty.sign = Ty.Signed && a'.v < 0L) || not (shift_amount_in_range rty b)
      then a'
      else binop Op.Shr a' b
  | Op.BitAnd | Op.BitOr | Op.BitXor | Op.LogAnd | Op.LogOr | Op.Eq | Op.Ne
  | Op.Lt | Op.Gt | Op.Le | Op.Ge | Op.Comma ->
      binop op a b

let safe_neg x =
  let rty = promote x.ty in
  let x' = convert rty x in
  if rty.sign = Ty.Signed && x'.v = Ty.min_value rty then x' else neg x'

let rotate x y =
  let w = Ty.bits x.ty.width in
  let amt = Int64.to_int (Int64.logand y.v (Int64.of_int (w - 1))) in
  if amt = 0 then x
  else
    let bits = Int64.logand x.v (mask_of_width x.ty.width) in
    let rotated =
      Int64.logor (Int64.shift_left bits amt)
        (Int64.shift_right_logical bits (w - amt))
    in
    make x.ty rotated

let clamp x lo hi =
  (* safe_clamp semantics: undefined case (lo > hi) returns x. *)
  if compare_values (convert x.ty lo) (convert x.ty hi) > 0 then x
  else
    let lo = convert x.ty lo and hi = convert x.ty hi in
    if compare_values x lo < 0 then lo
    else if compare_values x hi > 0 then hi
    else x

let min_v a b = if compare_values a (convert a.ty b) <= 0 then a else convert a.ty b
let max_v a b = if compare_values a (convert a.ty b) >= 0 then a else convert a.ty b

let abs_v x =
  let uty = { x.ty with Ty.sign = Ty.Unsigned } in
  if is_signed x && x.v < 0L then make uty (Int64.neg x.v) else make uty x.v

let add_sat a b =
  let b = convert a.ty b in
  let sum = Int64.add a.v b.v in
  if a.ty.sign = Ty.Unsigned then
    if a.ty.width = Ty.W64 then
      if unsigned_lt sum a.v then make a.ty (-1L) else make a.ty sum
    else if sum > Ty.max_value a.ty then make a.ty (Ty.max_value a.ty)
    else make a.ty sum
  else if a.ty.width = Ty.W64 then
    if add_overflows a.ty a.v b.v then
      make a.ty (if a.v > 0L then Int64.max_int else Int64.min_int)
    else make a.ty sum
  else if sum > Ty.max_value a.ty then make a.ty (Ty.max_value a.ty)
  else if sum < Ty.min_value a.ty then make a.ty (Ty.min_value a.ty)
  else make a.ty sum

let sub_sat a b =
  let b = convert a.ty b in
  let diff = Int64.sub a.v b.v in
  if a.ty.sign = Ty.Unsigned then
    if unsigned_lt a.v b.v then zero a.ty else make a.ty diff
  else if a.ty.width = Ty.W64 then
    if sub_overflows a.ty a.v b.v then
      make a.ty (if a.v >= 0L then Int64.max_int else Int64.min_int)
    else make a.ty diff
  else if diff > Ty.max_value a.ty then make a.ty (Ty.max_value a.ty)
  else if diff < Ty.min_value a.ty then make a.ty (Ty.min_value a.ty)
  else make a.ty diff

let hadd a b =
  let b = convert a.ty b in
  (* (a >> 1) + (b >> 1) + (a & b & 1): exact for both signednesses, with
     signed >> rounding toward negative infinity as OpenCL requires. *)
  let shr1 v =
    if a.ty.sign = Ty.Signed then Int64.shift_right v 1
    else Int64.shift_right_logical (Int64.logand v (mask_of_width a.ty.width)) 1
  in
  let carry = Int64.logand (Int64.logand a.v b.v) 1L in
  make a.ty (Int64.add (Int64.add (shr1 a.v) (shr1 b.v)) carry)

(* High 64 bits of the unsigned 128-bit product, via 32-bit limbs. *)
let umul_hi64 a b =
  let mask32 = 0xFFFFFFFFL in
  let a0 = Int64.logand a mask32 and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b mask32 and b1 = Int64.shift_right_logical b 32 in
  let ll = Int64.mul a0 b0 in
  let lh = Int64.mul a0 b1 in
  let hl = Int64.mul a1 b0 in
  let hh = Int64.mul a1 b1 in
  let mid =
    Int64.add
      (Int64.add (Int64.logand lh mask32) (Int64.logand hl mask32))
      (Int64.shift_right_logical ll 32)
  in
  Int64.add
    (Int64.add hh (Int64.shift_right_logical mid 32))
    (Int64.add (Int64.shift_right_logical lh 32) (Int64.shift_right_logical hl 32))

let mul_hi a b =
  let b = convert a.ty b in
  match a.ty.width with
  | Ty.W8 | Ty.W16 | Ty.W32 ->
      let p = Int64.mul a.v b.v in
      make a.ty (Int64.shift_right p (Ty.bits a.ty.width))
  | Ty.W64 ->
      if a.ty.sign = Ty.Unsigned then make a.ty (umul_hi64 a.v b.v)
      else
        (* signed mulhi from unsigned mulhi: correct for the sign of each
           negative operand (standard identity). *)
        let u = umul_hi64 a.v b.v in
        let u = if a.v < 0L then Int64.sub u b.v else u in
        let u = if b.v < 0L then Int64.sub u a.v else u in
        make a.ty u

let to_string x =
  if x.ty.sign = Ty.Unsigned then
    if x.v >= 0L then Int64.to_string x.v else Printf.sprintf "%Lu" x.v
  else Int64.to_string x.v

let to_hex_string x =
  Printf.sprintf "0x%Lx" (Int64.logand x.v (mask_of_width x.ty.width))

let pp fmt x = Format.pp_print_string fmt (to_string x)
