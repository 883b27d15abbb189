(** Exact two's-complement fixed-width integers.

    OpenCL C mandates fixed widths and a two's-complement representation for
    signed integers (paper section 3.1), so bit-level operations such as
    [rotate] are well-defined on signed data. A scalar value carries its
    OpenCL type; the representation invariant is that [v] is the
    sign-extension (signed) or zero-extension (unsigned) of the value's low
    bits, with [ulong] values occupying the full [int64] range interpreted
    unsigned. All operations below are total: plain C operators get their
    wrap-around result even where C99 leaves them undefined (the undefined
    cases are excluded by construction in generated programs; see
    {!Minicl.Validate}), and the [safe_*] family implements the Csmith
    fallback conventions exactly. *)

type t = private { v : int64; ty : Ty.scalar }

val make : Ty.scalar -> int64 -> t
(** [make ty bits] normalises [bits] to [ty]'s width and signedness. *)

val of_int : Ty.scalar -> int -> t
val to_int64 : t -> int64
val ty : t -> Ty.scalar

val zero : Ty.scalar -> t
val one : Ty.scalar -> t

val is_zero : t -> bool
val is_true : t -> bool
(** C truth value: non-zero. *)

val equal : t -> t -> bool

val convert : Ty.scalar -> t -> t
(** C integer conversion (truncate / extend, then reinterpret). *)

(** {1 Plain C operators (wrap-around totalisation)} *)

val neg : t -> t
val bit_not : t -> t
val log_not : t -> t
(** [!x]: [int] 0 or 1. *)

val binop : Op.binop -> t -> t -> t
(** Applies usual arithmetic conversions to the operands first; comparisons
    and logical operators yield [int] 0/1. [Comma] yields the second operand.
    Division/modulo by zero yields the dividend (matching the [safe_]
    fallback so the totalisation is consistent); shift amounts are taken
    modulo the width.

    The operator is dispatched on when [binop op] is applied: the partial
    application returns the function for [op] alone, so a caller that
    applies one operator many times binds [binop op] once. *)

val usual_arithmetic_conversion : Ty.scalar -> Ty.scalar -> Ty.scalar
(** C99 usual arithmetic conversions restricted to the 8 OpenCL integer
    scalar types (everything narrower than [int] promotes to [int]). *)

(** {1 Csmith safe-math semantics} *)

val safe_binop : Op.binop -> t -> t -> t
(** Total semantics of the [safe_add]/[safe_sub]/.../[safe_rshift] macros:
    when the plain operation would be undefined (signed overflow, division
    by zero, [INT_MIN / -1], negative or oversized shift, left-shift
    overflow), the result is the (converted) first operand. Operators
    without undefined behaviour defer to {!binop}. Like {!binop}, it
    dispatches on the operator when partially applied. *)

val safe_neg : t -> t
(** [safe_unary_minus]: the minimum signed value negates to itself. *)

(** {1 OpenCL built-ins (scalar versions; lifted to vectors in {!Vecval})} *)

val rotate : t -> t -> t
(** Left-rotate [x] by [y] bits; the count is reduced modulo the width, so
    the operation is total (paper section 3.1). *)

val clamp : t -> t -> t -> t
(** [clamp x lo hi]; undefined when [lo > hi] — this implementation then
    returns [x], which is exactly the [safe_clamp] macro of section 4.1. *)

val min_v : t -> t -> t
val max_v : t -> t -> t
val abs_v : t -> t
(** [abs]: result has the unsigned type of the argument. *)

val add_sat : t -> t -> t
val sub_sat : t -> t -> t
val hadd : t -> t -> t
(** [(x + y) >> 1] computed without overflow. *)

val mul_hi : t -> t -> t
(** High half of the full-width product. *)

val to_string : t -> string
(** Decimal rendering (unsigned types render as unsigned). *)

val to_hex_string : t -> string
val pp : Format.formatter -> t -> unit
