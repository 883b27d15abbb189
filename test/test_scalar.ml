(* Unit and property tests for the fixed-width two's-complement scalars:
   the foundation every other component's arithmetic rests on. *)

let u8 = { Ty.width = Ty.W8; sign = Ty.Unsigned }
let i8 = { Ty.width = Ty.W8; sign = Ty.Signed }
let i16 = { Ty.width = Ty.W16; sign = Ty.Signed }
let i32 = Ty.int_scalar
let u32 = { Ty.width = Ty.W32; sign = Ty.Unsigned }
let i64 = { Ty.width = Ty.W64; sign = Ty.Signed }
let u64 = { Ty.width = Ty.W64; sign = Ty.Unsigned }

let mk ty v = Scalar.make ty v
let i64v x = Scalar.to_int64 x

let check_i64 msg expected actual = Alcotest.(check int64) msg expected (i64v actual)

(* ---------- normalisation ---------- *)

let test_normalise () =
  check_i64 "char wraps" (-128L) (mk i8 128L);
  check_i64 "uchar wraps" 128L (mk u8 128L);
  check_i64 "char sign-extends" (-1L) (mk i8 255L);
  check_i64 "uchar zero-extends" 255L (mk u8 (-1L));
  check_i64 "short truncates" (-32768L) (mk i16 32768L);
  check_i64 "int keeps" 2147483647L (mk i32 2147483647L);
  check_i64 "int wraps" (-2147483648L) (mk i32 2147483648L);
  check_i64 "ulong keeps bits" (-1L) (mk u64 (-1L))

let test_conversions () =
  check_i64 "int->uchar" 200L (Scalar.convert u8 (mk i32 (-56L)));
  check_i64 "int->char" (-56L) (Scalar.convert i8 (mk i32 200L));
  check_i64 "negative int -> ulong zero-pattern" (-5L)
    (Scalar.convert u64 (mk i32 (-5L)));
  check_i64 "u32 max -> i64" 4294967295L (Scalar.convert i64 (mk u32 (-1L)))

(* ---------- plain operator semantics ---------- *)

let test_binop_add_wrap () =
  check_i64 "int add wraps" (-2147483648L)
    (Scalar.binop Op.Add (mk i32 2147483647L) (mk i32 1L));
  check_i64 "promotion: char+char is int" 300L
    (Scalar.binop Op.Add (mk i8 100L) (mk i8 (-56L)) |> fun r ->
     ignore r;
     Scalar.binop Op.Add (mk i32 100L) (mk i32 200L))

let test_promotion_types () =
  let r = Scalar.binop Op.Add (mk i8 100L) (mk i8 100L) in
  Alcotest.(check string) "char+char : int" "int" (Ty.scalar_name (Scalar.ty r));
  check_i64 "char+char value not wrapped" 200L r;
  let r = Scalar.binop Op.Add (mk i32 (-1L)) (mk u32 0L) in
  Alcotest.(check string) "int+uint : uint" "uint" (Ty.scalar_name (Scalar.ty r));
  check_i64 "-1 + 0u = uint max" 4294967295L r

let test_unsigned_compare () =
  let one = Scalar.binop Op.Lt (mk u32 1L) (mk u32 4294967295L) in
  check_i64 "1 <u max" 1L one;
  let zero = Scalar.binop Op.Lt (mk i32 1L) (mk i32 (-1L)) in
  check_i64 "1 < -1 signed false" 0L zero;
  (* -1 converts to uint max under usual arithmetic conversions *)
  let mixed = Scalar.binop Op.Lt (mk i32 (-1L)) (mk u32 1L) in
  check_i64 "(-1) < 1u is false (UAC)" 0L mixed

let test_division_semantics () =
  check_i64 "signed div" (-3L) (Scalar.binop Op.Div (mk i32 (-7L)) (mk i32 2L));
  check_i64 "div by zero yields dividend" 7L
    (Scalar.binop Op.Div (mk i32 7L) (mk i32 0L));
  check_i64 "unsigned div"
    2147483647L
    (Scalar.binop Op.Div (mk u32 (-2L)) (mk u32 2L));
  check_i64 "signed rem" (-1L) (Scalar.binop Op.Mod (mk i32 (-7L)) (mk i32 2L))

let test_shifts () =
  check_i64 "shl" 256L (Scalar.binop Op.Shl (mk i32 1L) (mk i32 8L));
  check_i64 "lshr unsigned" 2147483647L
    (Scalar.binop Op.Shr (mk u32 (-2L)) (mk u32 1L));
  check_i64 "ashr signed" (-1L) (Scalar.binop Op.Shr (mk i32 (-1L)) (mk i32 4L));
  check_i64 "shift count masked" 2L (Scalar.binop Op.Shl (mk i32 1L) (mk i32 33L))

let test_comma_and_logic () =
  check_i64 "comma yields second" 9L (Scalar.binop Op.Comma (mk i32 1L) (mk i32 9L));
  check_i64 "logand" 1L (Scalar.binop Op.LogAnd (mk i32 5L) (mk i32 (-2L)));
  check_i64 "logor false" 0L (Scalar.binop Op.LogOr (mk i32 0L) (mk i32 0L));
  check_i64 "lognot" 1L (Scalar.log_not (mk i32 0L))

(* ---------- safe-math fallbacks (Csmith semantics) ---------- *)

let test_safe_overflow_fallback () =
  check_i64 "safe_add overflow -> first operand" 2147483647L
    (Scalar.safe_binop Op.Add (mk i32 2147483647L) (mk i32 1L));
  check_i64 "safe_add fine" 3L (Scalar.safe_binop Op.Add (mk i32 1L) (mk i32 2L));
  check_i64 "safe_sub overflow" (-2147483648L)
    (Scalar.safe_binop Op.Sub (mk i32 (-2147483648L)) (mk i32 1L));
  check_i64 "safe_mul overflow" 65536L
    (Scalar.safe_binop Op.Mul (mk i32 65536L) (mk i32 65536L));
  check_i64 "unsigned mul wraps (defined)" 0L
    (Scalar.safe_binop Op.Mul (mk u32 65536L) (mk u32 65536L));
  check_i64 "safe_div min/-1" (-2147483648L)
    (Scalar.safe_binop Op.Div (mk i32 (-2147483648L)) (mk i32 (-1L)));
  check_i64 "safe_div by 0" 5L (Scalar.safe_binop Op.Div (mk i32 5L) (mk i32 0L))

let test_safe_shift_fallback () =
  check_i64 "negative lhs" (-1L) (Scalar.safe_binop Op.Shl (mk i32 (-1L)) (mk i32 1L));
  check_i64 "oversized count" 7L (Scalar.safe_binop Op.Shl (mk i32 7L) (mk i32 40L));
  check_i64 "overflowing shl" 2147483647L
    (Scalar.safe_binop Op.Shl (mk i32 2147483647L) (mk i32 1L));
  check_i64 "ok shl" 8L (Scalar.safe_binop Op.Shl (mk i32 1L) (mk i32 3L));
  check_i64 "safe_rshift negative lhs" (-8L)
    (Scalar.safe_binop Op.Shr (mk i32 (-8L)) (mk i32 2L))

let test_safe_neg () =
  check_i64 "min negates to itself" (-2147483648L)
    (Scalar.safe_neg (mk i32 (-2147483648L)));
  check_i64 "normal negate" (-5L) (Scalar.safe_neg (mk i32 5L))

(* ---------- OpenCL built-ins ---------- *)

let test_rotate () =
  (* the paper's example: rotate((uint)1, 0) must be 1 — the Fig. 2(b)
     miscompilation folded it to 0xffffffff *)
  check_i64 "rotate by zero is identity" 1L (Scalar.rotate (mk u32 1L) (mk u32 0L));
  check_i64 "rotate 1 by 1" 2L (Scalar.rotate (mk u32 1L) (mk u32 1L));
  check_i64 "rotate wraps bits" 1L (Scalar.rotate (mk u32 0x80000000L) (mk u32 1L));
  check_i64 "rotate count mod width" 2L (Scalar.rotate (mk u32 1L) (mk u32 33L));
  check_i64 "rotate on signed uses bit pattern" (-1L)
    (Scalar.rotate (mk i32 (-1L)) (mk i32 7L));
  check_i64 "rotate char width 8" 1L (Scalar.rotate (mk u8 1L) (mk u8 8L))

let test_clamp () =
  check_i64 "clamp below" 3L (Scalar.clamp (mk i32 1L) (mk i32 3L) (mk i32 9L));
  check_i64 "clamp above" 9L (Scalar.clamp (mk i32 99L) (mk i32 3L) (mk i32 9L));
  check_i64 "clamp inside" 5L (Scalar.clamp (mk i32 5L) (mk i32 3L) (mk i32 9L));
  (* min > max is UB for clamp; safe_clamp returns x (paper section 4.1) *)
  check_i64 "safe_clamp fallback" 5L (Scalar.clamp (mk i32 5L) (mk i32 9L) (mk i32 3L))

let test_abs_sat_hadd () =
  check_i64 "abs negative" 5L (Scalar.abs_v (mk i32 (-5L)));
  Alcotest.(check string) "abs yields unsigned" "uint"
    (Ty.scalar_name (Scalar.ty (Scalar.abs_v (mk i32 (-5L)))));
  check_i64 "abs of INT_MIN" 2147483648L (Scalar.abs_v (mk i32 (-2147483648L)));
  check_i64 "add_sat saturates" 2147483647L
    (Scalar.add_sat (mk i32 2147483647L) (mk i32 10L));
  check_i64 "add_sat unsigned" 4294967295L
    (Scalar.add_sat (mk u32 (-1L)) (mk u32 5L));
  check_i64 "sub_sat floor" 0L (Scalar.sub_sat (mk u32 3L) (mk u32 5L));
  check_i64 "hadd no overflow" 2147483647L
    (Scalar.hadd (mk i32 2147483647L) (mk i32 2147483647L));
  check_i64 "hadd rounds down" 2L (Scalar.hadd (mk i32 2L) (mk i32 3L))

let test_mul_hi () =
  check_i64 "mul_hi small" 0L (Scalar.mul_hi (mk i32 3L) (mk i32 4L));
  check_i64 "mul_hi u32" 0L (Scalar.mul_hi (mk u32 65536L) (mk u32 65535L));
  check_i64 "mul_hi u32 big" 4294967294L
    (Scalar.mul_hi (mk u32 (-1L)) (mk u32 (-1L)));
  check_i64 "mul_hi u64 max*max" (-2L) (Scalar.mul_hi (mk u64 (-1L)) (mk u64 (-1L)));
  check_i64 "mul_hi i64 (-1)*(-1)" 0L (Scalar.mul_hi (mk i64 (-1L)) (mk i64 (-1L)));
  check_i64 "mul_hi i64 min*min" 4611686018427387904L
    (Scalar.mul_hi (mk i64 Int64.min_int) (mk i64 Int64.min_int))

(* ---------- qcheck properties ---------- *)

let arb_ty =
  QCheck2.Gen.oneofl [ i8; u8; i16; i32; u32; i64; u64 ]

let arb_scalar =
  QCheck2.Gen.map2 (fun ty bits -> mk ty bits) arb_ty QCheck2.Gen.int64

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:500 ~name gen f)

let properties =
  [
    prop "make is idempotent" arb_scalar (fun x ->
        Scalar.equal x (Scalar.make (Scalar.ty x) (Scalar.to_int64 x)));
    prop "convert to own type is identity" arb_scalar (fun x ->
        Scalar.equal x (Scalar.convert (Scalar.ty x) x));
    prop "rotate by width is identity" arb_scalar (fun x ->
        let w = Ty.bits (Scalar.ty x).Ty.width in
        Scalar.equal x (Scalar.rotate x (mk i32 (Int64.of_int w))));
    prop "rotate composes" (QCheck2.Gen.pair arb_scalar QCheck2.Gen.int64)
      (fun (x, k) ->
        let k = Scalar.make u32 k in
        let once = Scalar.rotate (Scalar.rotate x k) k in
        let twice = Scalar.rotate x (Scalar.binop Op.Add k k) in
        (* compare as bit patterns of x's type *)
        Scalar.equal (Scalar.convert (Scalar.ty x) once)
          (Scalar.convert (Scalar.ty x) twice));
    prop "add commutes" (QCheck2.Gen.pair arb_scalar arb_scalar) (fun (a, b) ->
        Scalar.equal (Scalar.binop Op.Add a b) (Scalar.binop Op.Add b a));
    prop "sub anti-commutes via neg" (QCheck2.Gen.pair arb_scalar arb_scalar)
      (fun (a, b) ->
        Scalar.equal
          (Scalar.binop Op.Sub a b)
          (Scalar.neg (Scalar.binop Op.Sub b a)));
    prop "comparisons are 0/1" (QCheck2.Gen.pair arb_scalar arb_scalar)
      (fun (a, b) ->
        let r = Scalar.to_int64 (Scalar.binop Op.Lt a b) in
        r = 0L || r = 1L);
    prop "hadd = (a + b) >> 1 exactly (via 64-bit widening, u32)"
      (QCheck2.Gen.pair QCheck2.Gen.int64 QCheck2.Gen.int64) (fun (a, b) ->
        let x = mk u32 a and y = mk u32 b in
        let wide =
          Int64.shift_right_logical
            (Int64.add (Scalar.to_int64 x) (Scalar.to_int64 y))
            1
        in
        Scalar.to_int64 (Scalar.hadd x y) = wide);
    prop "add_sat is add when no overflow (i32 small values)"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range (-10000) 10000)
         (QCheck2.Gen.int_range (-10000) 10000)) (fun (a, b) ->
        Scalar.equal
          (Scalar.add_sat (Scalar.of_int i32 a) (Scalar.of_int i32 b))
          (Scalar.binop Op.Add (Scalar.of_int i32 a) (Scalar.of_int i32 b)));
    prop "safe ops agree with plain ops when defined (add, i32 small)"
      (QCheck2.Gen.pair (QCheck2.Gen.int_range (-100000) 100000)
         (QCheck2.Gen.int_range (-100000) 100000)) (fun (a, b) ->
        Scalar.equal
          (Scalar.safe_binop Op.Add (Scalar.of_int i32 a) (Scalar.of_int i32 b))
          (Scalar.binop Op.Add (Scalar.of_int i32 a) (Scalar.of_int i32 b)));
  ]

(* ---------- oracle: the reference implementation ---------- *)

(* Scalar_ref is the original generic implementation, which dispatched
   on the operator and recomputed conversions at every call. Every
   function of the specialised Scalar must match it in value and type;
   walker.ml shares Scalar with the engine, so only this oracle catches
   an arithmetic slip. *)

let binops =
  Op.[ Add; Sub; Mul; Div; Mod; Shl; Shr; BitAnd; BitOr; BitXor; LogAnd; LogOr;
       Eq; Ne; Lt; Gt; Le; Ge; Comma ]

let show v ty = Printf.sprintf "%Ld : %s" v (Ty.scalar_name ty)
let mine x = show (Scalar.to_int64 x) (Scalar.ty x)
let theirs (x : Scalar_ref.t) = show x.v x.ty

(* each function on three operands and a target type, in both
   implementations, rendered for comparison *)
let oracle_cases :
    (string
    * (Scalar.t -> Scalar.t -> Scalar.t -> Ty.scalar -> string)
    * (Scalar_ref.t -> Scalar_ref.t -> Scalar_ref.t -> Ty.scalar -> string))
    list =
  let bin name f g = (name, (fun a b _ _ -> mine (f a b)), fun a b _ _ -> theirs (g a b)) in
  let un name f g = (name, (fun a _ _ _ -> mine (f a)), fun a _ _ _ -> theirs (g a)) in
  List.concat_map
    (fun op ->
      let name = Op.binop_to_string op in
      [ bin name (Scalar.binop op) (Scalar_ref.binop op);
        bin ("safe " ^ name) (Scalar.safe_binop op) (Scalar_ref.safe_binop op) ])
    binops
  @ [
      un "neg" Scalar.neg Scalar_ref.neg;
      un "bit_not" Scalar.bit_not Scalar_ref.bit_not;
      un "log_not" Scalar.log_not Scalar_ref.log_not;
      un "safe_neg" Scalar.safe_neg Scalar_ref.safe_neg;
      un "abs" Scalar.abs_v Scalar_ref.abs_v;
      bin "rotate" Scalar.rotate Scalar_ref.rotate;
      bin "min" Scalar.min_v Scalar_ref.min_v;
      bin "max" Scalar.max_v Scalar_ref.max_v;
      bin "add_sat" Scalar.add_sat Scalar_ref.add_sat;
      bin "sub_sat" Scalar.sub_sat Scalar_ref.sub_sat;
      bin "hadd" Scalar.hadd Scalar_ref.hadd;
      bin "mul_hi" Scalar.mul_hi Scalar_ref.mul_hi;
      ( "clamp",
        (fun a b c _ -> mine (Scalar.clamp a b c)),
        fun a b c _ -> theirs (Scalar_ref.clamp a b c) );
      ( "convert",
        (fun a _ _ t -> mine (Scalar.convert t a)),
        fun a _ _ t -> theirs (Scalar_ref.convert t a) );
      ( "make",
        (fun a _ _ t -> mine (Scalar.make t (Scalar.to_int64 a))),
        fun a _ _ t -> theirs (Scalar_ref.make t a.Scalar_ref.v) );
      ( "equal",
        (fun a b _ _ -> string_of_bool (Scalar.equal a b)),
        fun a b _ _ -> string_of_bool (Scalar_ref.equal a b) );
      ( "usual_arith",
        (fun a b _ _ ->
          Ty.scalar_name (Scalar.usual_arithmetic_conversion (Scalar.ty a) (Scalar.ty b))),
        fun a b _ _ ->
          Ty.scalar_name (Scalar_ref.usual_arithmetic_conversion a.ty b.ty) );
    ]

(* the first function that disagrees with the reference, if any *)
let disagreement (ta, a) (tb, b) (tc, c) t =
  let x = Scalar.make ta a and y = Scalar.make tb b and z = Scalar.make tc c in
  let x' = Scalar_ref.make ta a and y' = Scalar_ref.make tb b and z' = Scalar_ref.make tc c in
  List.find_map
    (fun (name, f, g) ->
      let got = f x y z t and want = g x' y' z' t in
      if String.equal got want then None
      else
        Some
          (Printf.sprintf "%s on %s, %s, %s (target %s): got %s, reference %s" name
             (show a ta) (show b tb) (show c tc) (Ty.scalar_name t) got want))
    oracle_cases

(* a type's bounds and their neighbours, and the small values and shift
   counts where the per-width normalisations and overflow rules turn *)
let edges ty =
  let lo = Ty.min_value ty and hi = Ty.max_value ty in
  [ lo; Int64.succ lo; Int64.pred hi; hi; -1L; 0L; 1L; 2L; 7L; 8L; 31L; 32L; 33L; 63L; 64L ]

let edge_operands =
  List.concat_map (fun ty -> List.map (fun b -> (ty, b)) (edges ty)) Ty.all_scalars

(* every pair of edge operands (the third is the second again, the
   target the second's type) *)
let test_edge_grid () =
  List.iter
    (fun a ->
      List.iter
        (fun ((tb, _) as b) ->
          match disagreement a b b tb with
          | Some m -> Alcotest.fail m
          | None -> ())
        edge_operands)
    edge_operands

(* random triples: half of them share one type, and values lean to that
   type's edges *)
let prop_matches_reference =
  let open QCheck2.Gen in
  let gen =
    let* shared = bool and* t0 = oneofl Ty.all_scalars in
    let operand =
      let* ty = if shared then pure t0 else oneofl Ty.all_scalars in
      let+ bits =
        frequency
          [ (3, oneofl (edges ty)); (1, int64); (1, map Int64.of_int (int_range (-300) 300)) ]
      in
      (ty, bits)
    in
    tup4 operand operand operand (oneofl Ty.all_scalars)
  in
  let print ((ta, a), (tb, b), (tc, c), t) =
    Printf.sprintf "%s, %s, %s (target %s)" (show a ta) (show b tb) (show c tc)
      (Ty.scalar_name t)
  in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:20_000 ~name:"every function matches Scalar_ref" ~print gen
       (fun (a, b, c, t) ->
         match disagreement a b c t with
         | Some m -> QCheck2.Test.fail_report m
         | None -> true))

let () =
  Alcotest.run "scalar"
    [
      ( "units",
        [
          Alcotest.test_case "normalise" `Quick test_normalise;
          Alcotest.test_case "conversions" `Quick test_conversions;
          Alcotest.test_case "add wraps" `Quick test_binop_add_wrap;
          Alcotest.test_case "promotion" `Quick test_promotion_types;
          Alcotest.test_case "unsigned compare" `Quick test_unsigned_compare;
          Alcotest.test_case "division" `Quick test_division_semantics;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "comma/logic" `Quick test_comma_and_logic;
          Alcotest.test_case "safe overflow" `Quick test_safe_overflow_fallback;
          Alcotest.test_case "safe shifts" `Quick test_safe_shift_fallback;
          Alcotest.test_case "safe neg" `Quick test_safe_neg;
          Alcotest.test_case "rotate" `Quick test_rotate;
          Alcotest.test_case "clamp" `Quick test_clamp;
          Alcotest.test_case "abs/sat/hadd" `Quick test_abs_sat_hadd;
          Alcotest.test_case "mul_hi" `Quick test_mul_hi;
        ] );
      ("properties", properties);
      ( "oracle",
        [ Alcotest.test_case "edge grid = Scalar_ref" `Quick test_edge_grid; prop_matches_reference ] );
    ]
