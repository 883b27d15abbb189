(** Runtime memory model of the device simulator.

    Storage is a tree of mutable {!cell}s: scalars, vectors and pointers are
    leaf cells; structs and arrays are cells holding their member cells;
    unions are byte-backed so that reads through one member reinterpret the
    bytes stored through another (this is where byte-level bugs like the
    NVIDIA union-initialisation miscompilation of Fig. 2(a) live). A pointer
    value is a reference to a cell plus the memory space it came from.

    Every cell in {e shared} (local or global) memory carries a unique
    location id used by the {!Race} detector; private cells carry [-1]. *)

type cell = private {
  loc : int;
  space : Ty.space;
  mutable content : content;
}

and content =
  | C_scalar of Scalar.t
  | C_vector of Vecval.t
  | C_struct of string * cell array
      (** the aggregate's own [aname] (so a name test can compare physically
          first), field cells *)
  | C_union of string * Bytes.t
  | C_array of Ty.t * cell array  (** element type, element cells *)
  | C_ptr of pointer option  (** [None] = null / uninitialised *)

and pointer = { target : cell; pspace : Ty.space }

(** Expression values. Aggregates are represented by detached cell trees
    (produced by deep copy on reads, consumed by deep copy on writes). *)
type value =
  | V_scalar of Scalar.t
  | V_vector of Vecval.t
  | V_ptr of pointer option
  | V_agg of cell

(** An lvalue: either a whole cell, a typed byte window into a union cell
    (for access paths that traverse a union member), or a single component
    of a vector cell. *)
type lvalue =
  | L_cell of cell
  | L_bytes of cell * int * Ty.t  (** union cell, byte offset, viewed type *)
  | L_comp of cell * int  (** vector cell, component index *)

type alloc_ctx
(** Allocation context: aggregate environment, layout policy (used for union
    member offsets and sizes) and the shared-location id generator. *)

val alloc_ctx :
  tyenv:Ty.tyenv -> layout:Layout.policy -> unit -> alloc_ctx

val tyenv_of : alloc_ctx -> Ty.tyenv
val layout_of : alloc_ctx -> Layout.policy

val alloc : alloc_ctx -> Ty.space -> Ty.t -> cell
(** Fresh zero-initialised storage of the given type. Shared-space cells
    (and their sub-cells) receive fresh location ids. *)

val alloc_scalar_buffer : alloc_ctx -> Ty.space -> Ty.scalar -> int64 array -> cell
(** A C_array of scalar cells initialised from host data. *)

val alloc_matrix_buffer :
  alloc_ctx -> Ty.space -> Ty.scalar -> int64 array array -> cell
(** A 2-D array of scalar cells (used for the BARRIER-mode [__constant]
    permutation tables). *)

val base_loc : lvalue -> int
(** Location id for race recording ([-1] if private). *)

val lvalue_space : lvalue -> Ty.space

val read : alloc_ctx -> lvalue -> value
(** Aggregate reads deep-copy. Union-window reads deserialise. *)

val write : ?skip_arrays:bool -> alloc_ctx -> lvalue -> value -> unit
(** Aggregate writes deep-copy into the destination, preserving destination
    location ids. Union-window writes serialise. Writing a zero scalar into
    a pointer cell stores a null pointer (C's null pointer constant).
    [skip_arrays] implements the Fig. 1(b) vendor quirk: whole-struct
    copies do not copy array-typed members.
    @raise Invalid_argument on a type mismatch (cannot happen for programs
    accepted by {!Typecheck}). *)

val cell_field : alloc_ctx -> lvalue -> string -> lvalue
(** Field selection, entering byte-view mode at union boundaries. *)

val cell_index : alloc_ctx -> lvalue -> int -> (lvalue, string) result
(** Array element selection with bounds checking; [Error] describes the
    out-of-bounds access (a runtime crash). *)

val scalar_buffer_contents : cell -> Scalar.t array
(** Contents of a [C_array] of scalar cells (for printing results). *)

val deep_copy : alloc_ctx -> cell -> cell
(** Detached private copy (used for aggregate rvalues). *)
