(** Dense row-major matrices of floats. Sized operations assert dimension
    compatibility; indices are 0-based. *)

type t = { rows : int; cols : int; data : float array }

val make : int -> int -> float -> t
val init : int -> int -> (int -> int -> float) -> t
val zeros : int -> int -> t
val identity : int -> t
val diag : Vec.t -> t
val of_rows : Vec.t array -> t
val of_cols : Vec.t array -> t
val copy : t -> t

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val dims : t -> int * int

val row : t -> int -> Vec.t
val col : t -> int -> Vec.t
val set_row : t -> int -> Vec.t -> unit
val set_col : t -> int -> Vec.t -> unit

val transpose : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val matmul : t -> t -> t
val mv : t -> Vec.t -> Vec.t
(** Matrix-vector product. *)

val tmv : t -> Vec.t -> Vec.t
(** [tmv a x] is [transpose a * x] without forming the transpose. *)

val mv_into : t -> Vec.t -> Vec.t -> unit
(** [mv_into a x y] writes [a * x] into [y], bit-identical to {!mv}.
    Rows are taken four at a time, so four independent sums share each
    load of [x]; every y_i is still a_i0·x_0 + a_i1·x_1 + … added from
    +0.0 in column order, the same bits as a one-row-at-a-time loop. *)

val tmv_into : t -> Vec.t -> Vec.t -> unit
(** [tmv_into a x y] writes [transpose a * x] into [y], bit-identical to
    {!tmv}. Each y_j starts at +0.0 and adds a_ij·x_i for i ascending,
    skipping x_i = 0. From six columns on, columns are taken six at a time
    with the rows innermost, each y_j summed in a register; narrower
    matrices take the row-outer loop. Both do the same operations in the
    same order, so the same bits. *)

val gram : t -> t
(** [gram a] is [aᵀa]. *)

val map : (float -> float) -> t -> t
val trace : t -> float
val frobenius : t -> float
val is_symmetric : ?tol:float -> t -> bool
val max_abs : t -> float

val hcat : t -> t -> t
val vcat : t -> t -> t

val approx_equal : ?tol:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
