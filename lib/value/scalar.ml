type t = { v : int64; ty : Ty.scalar }

(* [bits] in [ty]'s representation: the low bits, sign-extended when [ty]
   is signed and zero-extended when it is unsigned *)
let[@inline] norm (ty : Ty.scalar) bits =
  match ty.width with
  | Ty.W64 -> bits
  | Ty.W32 -> (
      match ty.sign with
      | Ty.Signed -> Int64.of_int32 (Int64.to_int32 bits)
      | Ty.Unsigned -> Int64.logand bits 0xFFFF_FFFFL)
  | Ty.W16 -> (
      match ty.sign with
      | Ty.Signed -> Int64.shift_right (Int64.shift_left bits 48) 48
      | Ty.Unsigned -> Int64.logand bits 0xFFFFL)
  | Ty.W8 -> (
      match ty.sign with
      | Ty.Signed -> Int64.shift_right (Int64.shift_left bits 56) 56
      | Ty.Unsigned -> Int64.logand bits 0xFFL)

let mask_of_width : Ty.width -> int64 = function
  | Ty.W8 -> 0xFFL
  | Ty.W16 -> 0xFFFFL
  | Ty.W32 -> 0xFFFF_FFFFL
  | Ty.W64 -> -1L

(* the type's bounds, as signed 64-bit values ([ulong]'s maximum is -1) *)
let[@inline] max_of (ty : Ty.scalar) =
  match (ty.width, ty.sign) with
  | Ty.W8, Ty.Signed -> 0x7FL
  | Ty.W8, Ty.Unsigned -> 0xFFL
  | Ty.W16, Ty.Signed -> 0x7FFFL
  | Ty.W16, Ty.Unsigned -> 0xFFFFL
  | Ty.W32, Ty.Signed -> 0x7FFF_FFFFL
  | Ty.W32, Ty.Unsigned -> 0xFFFF_FFFFL
  | Ty.W64, Ty.Signed -> Int64.max_int
  | Ty.W64, Ty.Unsigned -> -1L

let[@inline] min_of (ty : Ty.scalar) =
  match (ty.width, ty.sign) with
  | _, Ty.Unsigned -> 0L
  | Ty.W8, Ty.Signed -> -0x80L
  | Ty.W16, Ty.Signed -> -0x8000L
  | Ty.W32, Ty.Signed -> -0x8000_0000L
  | Ty.W64, Ty.Signed -> Int64.min_int

let[@inline] make ty bits = { v = norm ty bits; ty }
let[@inline] same_ty (a : Ty.scalar) (b : Ty.scalar) =
  a.width = b.width && a.sign = b.sign

let of_int ty n = make ty (Int64.of_int n)
let to_int64 x = x.v
let ty x = x.ty
let zero ty = { v = 0L; ty }
let one ty = { v = 1L; ty }
let is_zero x = x.v = 0L
let is_true x = x.v <> 0L
let equal a b = same_ty a.ty b.ty && a.v = b.v
let[@inline] convert ty x = if same_ty x.ty ty then x else make ty x.v

(* comparison and logical results: [int] 1 or 0 *)
let true_v = { v = 1L; ty = Ty.int_scalar }
let false_v = { v = 0L; ty = Ty.int_scalar }
let[@inline] bool_result b = if b then true_v else false_v

let usual_arithmetic_conversion = Ty.usual_arith
let[@inline] common a b = Ty.usual_arith a.ty b.ty
let[@inline] ult x y = Int64.sub x Int64.min_int < Int64.sub y Int64.min_int

(* [x < y] for two values of type [ty] *)
let[@inline] below (ty : Ty.scalar) x y =
  match ty.sign with Ty.Signed -> x < y | Ty.Unsigned -> ult x y

(* Plain operators, one function each. Addition, subtraction,
   multiplication and the bitwise operators give the same low bits
   whatever the operands' widths, so only their result is normalised.
   Every other operator sees its operands in their common type; a signed
   common type holds every value of both operand types, so there a
   value's bits are already its converted bits. *)

let add a b = make (common a b) (Int64.add a.v b.v)
let sub a b = make (common a b) (Int64.sub a.v b.v)
let mul a b = make (common a b) (Int64.mul a.v b.v)
let bit_and a b = make (common a b) (Int64.logand a.v b.v)
let bit_or a b = make (common a b) (Int64.logor a.v b.v)
let bit_xor a b = make (common a b) (Int64.logxor a.v b.v)

(* division or remainder by zero yields the dividend; so does the
   undefined [min / -1], whose quotient wraps back to [min] *)
let div a b =
  let ty = common a b in
  let x = norm ty a.v and y = norm ty b.v in
  if y = 0L then { v = x; ty }
  else
    match ty.sign with
    | Ty.Signed -> make ty (Int64.div x y)
    | Ty.Unsigned -> make ty (Int64.unsigned_div x y)

let rem a b =
  let ty = common a b in
  let x = norm ty a.v and y = norm ty b.v in
  if y = 0L then { v = x; ty }
  else
    match ty.sign with
    | Ty.Signed -> make ty (Int64.rem x y)
    | Ty.Unsigned -> make ty (Int64.unsigned_rem x y)

(* [a < b] and [a = b] in the operands' common type *)
let[@inline] less a b =
  let ty = common a b in
  below ty (norm ty a.v) (norm ty b.v)

let eq_common a b =
  let ty = common a b in
  norm ty a.v = norm ty b.v

let eq a b = bool_result (eq_common a b)
let ne a b = bool_result (not (eq_common a b))
let lt a b = bool_result (less a b)
let gt a b = bool_result (less b a)
let le a b = bool_result (not (less b a))
let ge a b = bool_result (not (less a b))
let log_and a b = bool_result (a.v <> 0L && b.v <> 0L)
let log_or a b = bool_result (a.v <> 0L || b.v <> 0L)
let comma _ b = b

(* Shifts take the left operand's promoted type, which keeps its value;
   the count is reduced modulo the width to stay total. *)
let[@inline] count_mask (ty : Ty.scalar) = if ty.width = Ty.W64 then 63 else 31

let[@inline] shl a b =
  let ty = Ty.promote a.ty in
  make ty (Int64.shift_left a.v (Int64.to_int b.v land count_mask ty))

let[@inline] shr a b =
  let ty = Ty.promote a.ty in
  let n = Int64.to_int b.v land count_mask ty in
  match ty.sign with
  | Ty.Signed -> make ty (Int64.shift_right a.v n)
  | Ty.Unsigned -> make ty (Int64.shift_right_logical a.v n)

let binop (op : Op.binop) =
  match op with
  | Op.Add -> add
  | Op.Sub -> sub
  | Op.Mul -> mul
  | Op.Div -> div
  | Op.Mod -> rem
  | Op.BitAnd -> bit_and
  | Op.BitOr -> bit_or
  | Op.BitXor -> bit_xor
  | Op.Shl -> shl
  | Op.Shr -> shr
  | Op.Eq -> eq
  | Op.Ne -> ne
  | Op.Lt -> lt
  | Op.Gt -> gt
  | Op.Le -> le
  | Op.Ge -> ge
  | Op.LogAnd -> log_and
  | Op.LogOr -> log_or
  | Op.Comma -> comma

let neg x =
  let ty = Ty.promote x.ty in
  make ty (Int64.neg x.v)

let bit_not x =
  let ty = Ty.promote x.ty in
  make ty (Int64.lognot x.v)

let log_not x = bool_result (x.v = 0L)

(* Signed overflow of [r = a op b] in a signed common type. [int64]
   arithmetic wraps, so [long] overflow shows in the signs; a narrower
   result overflows exactly when it is not its own normalisation. *)
let[@inline] add_overflows64 a b r = (a > 0L && b > 0L && r < 0L) || (a < 0L && b < 0L && r >= 0L)
let[@inline] sub_overflows64 a b r = (a >= 0L && b < 0L && r < 0L) || (a < 0L && b > 0L && r >= 0L)
let[@inline] overflows32 r = Int64.of_int32 (Int64.to_int32 r) <> r

(* The safe operators: when the plain operation is undefined, the result
   is the first operand converted to the common (or promoted) type. *)

let safe_add a b =
  let ty = common a b in
  let r = Int64.add a.v b.v in
  match ty.sign with
  | Ty.Unsigned -> make ty r
  | Ty.Signed ->
      let over =
        if ty.width = Ty.W64 then add_overflows64 a.v b.v r else overflows32 r
      in
      if over then convert ty a else { v = r; ty }

let safe_sub a b =
  let ty = common a b in
  let r = Int64.sub a.v b.v in
  match ty.sign with
  | Ty.Unsigned -> make ty r
  | Ty.Signed ->
      let over =
        if ty.width = Ty.W64 then sub_overflows64 a.v b.v r else overflows32 r
      in
      if over then convert ty a else { v = r; ty }

let safe_mul a b =
  let ty = common a b in
  let r = Int64.mul a.v b.v in
  match ty.sign with
  | Ty.Unsigned -> make ty r
  | Ty.Signed ->
      let over =
        if a.v = 0L || b.v = 0L then false
        else if ty.width = Ty.W64 then
          Int64.div r b.v <> a.v
          || (a.v = -1L && b.v = Int64.min_int)
          || (b.v = -1L && a.v = Int64.min_int)
        else overflows32 r
      in
      if over then convert ty a else { v = r; ty }

(* plain [div] already gives the safe fallbacks of [/]; [%] differs at
   [min % -1], where plain [rem] gives 0 *)
let safe_mod a b =
  let ty = common a b in
  if ty.sign = Ty.Signed && b.v = -1L && a.v = min_of ty then convert ty a
  else rem a b

(* A count outside [0, width) is undefined, and so are a negative signed
   left operand and a signed left shift that overflows; otherwise the
   plain shift gives the result. *)
let[@inline] count_in_range (ty : Ty.scalar) c =
  c >= 0L && c < (if ty.width = Ty.W64 then 64L else 32L)

let safe_shl a b =
  let ty = Ty.promote a.ty in
  if
    (not (count_in_range ty b.v))
    || ty.sign = Ty.Signed
       && (a.v < 0L || a.v > Int64.shift_right (max_of ty) (Int64.to_int b.v))
  then convert ty a
  else shl a b

let safe_shr a b =
  let ty = Ty.promote a.ty in
  if (not (count_in_range ty b.v)) || (ty.sign = Ty.Signed && a.v < 0L) then
    convert ty a
  else shr a b

let safe_binop (op : Op.binop) =
  match op with
  | Op.Add -> safe_add
  | Op.Sub -> safe_sub
  | Op.Mul -> safe_mul
  | Op.Div -> div
  | Op.Mod -> safe_mod
  | Op.Shl -> safe_shl
  | Op.Shr -> safe_shr
  | Op.BitAnd | Op.BitOr | Op.BitXor | Op.LogAnd | Op.LogOr | Op.Eq | Op.Ne
  | Op.Lt | Op.Gt | Op.Le | Op.Ge | Op.Comma ->
      binop op

let safe_neg x =
  let ty = Ty.promote x.ty in
  if ty.sign = Ty.Signed && x.v = min_of ty then convert ty x
  else make ty (Int64.neg x.v)

let rotate x y =
  let w = Ty.bits x.ty.width in
  let amt = Int64.to_int y.v land (w - 1) in
  if amt = 0 then x
  else
    let bits = Int64.logand x.v (mask_of_width x.ty.width) in
    make x.ty
      (Int64.logor (Int64.shift_left bits amt)
         (Int64.shift_right_logical bits (w - amt)))

let clamp x lo hi =
  (* safe_clamp semantics: undefined case (lo > hi) returns x. *)
  let lo = convert x.ty lo and hi = convert x.ty hi in
  if below x.ty hi.v lo.v then x
  else if below x.ty x.v lo.v then lo
  else if below x.ty hi.v x.v then hi
  else x

let min_v a b =
  let b = convert a.ty b in
  if below a.ty b.v a.v then b else a

let max_v a b =
  let b = convert a.ty b in
  if below a.ty a.v b.v then b else a

let abs_v x =
  match x.ty.sign with
  | Ty.Unsigned -> x
  | Ty.Signed ->
      let uty = { x.ty with Ty.sign = Ty.Unsigned } in
      make uty (if x.v < 0L then Int64.neg x.v else x.v)

let add_sat a b =
  let ty = a.ty in
  let b = convert ty b in
  let sum = Int64.add a.v b.v in
  match (ty.sign, ty.width) with
  | Ty.Unsigned, Ty.W64 -> if ult sum a.v then { v = -1L; ty } else { v = sum; ty }
  | Ty.Signed, Ty.W64 ->
      if add_overflows64 a.v b.v sum then
        { v = (if a.v > 0L then Int64.max_int else Int64.min_int); ty }
      else { v = sum; ty }
  | _ ->
      if sum > max_of ty then { v = max_of ty; ty }
      else if sum < min_of ty then { v = min_of ty; ty }
      else { v = sum; ty }

let sub_sat a b =
  let ty = a.ty in
  let b = convert ty b in
  let diff = Int64.sub a.v b.v in
  match (ty.sign, ty.width) with
  | Ty.Unsigned, _ -> if ult a.v b.v then { v = 0L; ty } else make ty diff
  | Ty.Signed, Ty.W64 ->
      if sub_overflows64 a.v b.v diff then
        { v = (if a.v >= 0L then Int64.max_int else Int64.min_int); ty }
      else { v = diff; ty }
  | Ty.Signed, _ ->
      if diff > max_of ty then { v = max_of ty; ty }
      else if diff < min_of ty then { v = min_of ty; ty }
      else { v = diff; ty }

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
