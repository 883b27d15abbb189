type width = W8 | W16 | W32 | W64
type sign = Signed | Unsigned

type scalar = { width : width; sign : sign }

type vlen = V2 | V4 | V8 | V16

type space = Private | Local | Global | Constant

type t =
  | Void
  | Scalar of scalar
  | Vector of scalar * vlen
  | Named of string
  | Ptr of space * t
  | Arr of t * int

type field = { fname : string; fty : t; fvolatile : bool }

type aggregate = { aname : string; fields : field list; is_union : bool }

module String_map = Map.Make (String)

type tyenv = aggregate String_map.t

let char = Scalar { width = W8; sign = Signed }
let uchar = Scalar { width = W8; sign = Unsigned }
let short = Scalar { width = W16; sign = Signed }
let ushort = Scalar { width = W16; sign = Unsigned }
let int = Scalar { width = W32; sign = Signed }
let uint = Scalar { width = W32; sign = Unsigned }
let long = Scalar { width = W64; sign = Signed }
let ulong = Scalar { width = W64; sign = Unsigned }
let size_t = ulong

let all_scalars =
  [ { width = W8; sign = Signed }; { width = W8; sign = Unsigned };
    { width = W16; sign = Signed }; { width = W16; sign = Unsigned };
    { width = W32; sign = Signed }; { width = W32; sign = Unsigned };
    { width = W64; sign = Signed }; { width = W64; sign = Unsigned } ]

let all_vlens = [ V2; V4; V8; V16 ]

let vlen_to_int = function V2 -> 2 | V4 -> 4 | V8 -> 8 | V16 -> 16

let vlen_of_int = function
  | 2 -> Some V2
  | 4 -> Some V4
  | 8 -> Some V8
  | 16 -> Some V16
  | _ -> None

let bits = function W8 -> 8 | W16 -> 16 | W32 -> 32 | W64 -> 64
let bytes_of_width = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

let tyenv_of_list aggs =
  List.fold_left (fun m a -> String_map.add a.aname a m) String_map.empty aggs

let tyenv_aggregates env = List.map snd (String_map.bindings env)
let find_aggregate env name = String_map.find name env
let find_aggregate_opt env name = String_map.find_opt name env

let is_integer = function Scalar _ -> true | _ -> false
let is_vector = function Vector _ -> true | _ -> false
let is_pointer = function Ptr _ -> true | _ -> false

let is_aggregate env = function
  | Named n -> String_map.mem n env
  | Void | Scalar _ | Vector _ | Ptr _ | Arr _ -> false

let scalar_of = function
  | Scalar s | Vector (s, _) -> Some s
  | Void | Named _ | Ptr _ | Arr _ -> None

let rec equal a b =
  match (a, b) with
  | Void, Void -> true
  | Scalar x, Scalar y -> x = y
  | Vector (x, m), Vector (y, n) -> x = y && m = n
  | Named x, Named y -> String.equal x y
  | Ptr (s, x), Ptr (t, y) -> s = t && equal x y
  | Arr (x, m), Arr (y, n) -> m = n && equal x y
  | (Void | Scalar _ | Vector _ | Named _ | Ptr _ | Arr _), _ -> false

let compare = Stdlib.compare

let scalar_name { width; sign } =
  match (sign, width) with
  | Signed, W8 -> "char"
  | Unsigned, W8 -> "uchar"
  | Signed, W16 -> "short"
  | Unsigned, W16 -> "ushort"
  | Signed, W32 -> "int"
  | Unsigned, W32 -> "uint"
  | Signed, W64 -> "long"
  | Unsigned, W64 -> "ulong"

let space_to_string = function
  | Private -> "private"
  | Local -> "local"
  | Global -> "global"
  | Constant -> "constant"

let rec to_string = function
  | Void -> "void"
  | Scalar s -> scalar_name s
  | Vector (s, l) -> scalar_name s ^ string_of_int (vlen_to_int l)
  | Named n -> n
  | Ptr (Private, t) -> to_string t ^ "*"
  | Ptr (sp, t) -> space_to_string sp ^ " " ^ to_string t ^ "*"
  | Arr (t, n) -> Printf.sprintf "%s[%d]" (to_string t) n

let pp fmt t = Format.pp_print_string fmt (to_string t)
let pp_space fmt s = Format.pp_print_string fmt (space_to_string s)

let int_scalar = { width = W32; sign = Signed }

let promote (s : scalar) =
  match s.width with W8 | W16 -> int_scalar | W32 | W64 -> s

(* returns one of its promoted inputs: after promotion both are [int],
   [uint], [long] or [ulong], so the wider or, at equal width, the
   unsigned one is the result *)
let usual_arith a b =
  let a = promote a and b = promote b in
  if a.width = b.width then if a.sign = Unsigned then a else b
  else if a.width = W64 then a
  else b

let min_value { width; sign } =
  match sign with
  | Unsigned -> 0L
  | Signed -> Int64.neg (Int64.shift_left 1L (bits width - 1))

let max_value { width; sign } =
  match sign with
  | Signed -> Int64.sub (Int64.shift_left 1L (bits width - 1)) 1L
  | Unsigned ->
      if width = W64 then -1L
      else Int64.sub (Int64.shift_left 1L (bits width)) 1L
