(** Convex quadratic programming:

    minimize ½ xᵀ H x + gᵀ x
    subject to  C x = d   (equalities)
    and         A x ≥ b   (inequalities)

    Equality-only problems are solved directly through the KKT system;
    problems with inequalities use a primal-dual interior-point method
    (infeasible-start path following with a Mehrotra-style centering
    parameter), which is robust to the heavy degeneracy of "function ≥ 0 on
    a fine grid" constraint sets. [H] must be symmetric positive definite
    (the deconvolution problem guarantees this through the λ-regularizer).

    The interior-point method allocates one workspace per solve — the
    iterate, the residuals, the step, the reduced matrix H + AᵀS⁻¹ZA and
    the (n + m_eq)² KKT matrix with its pivots — and each pass only writes
    into it: the reduced system is accumulated and the KKT matrix
    assembled and LU-factored in place, so a pass allocates a few boxed
    floats and nothing that grows with the problem. Its results ([x],
    [active], [iterations], [kkt_residual], [status], and when it raises
    {!Infeasible}) are bit-identical to the earlier loop that allocated
    fresh matrices every pass.

    Its O(m·n²) and O(m·n) kernels — the reduced matrix ({!reduced_into})
    and the A/Aᵀ products ({!Numerics.Mat.mv_into},
    {!Numerics.Mat.tmv_into}) — are register-blocked from six columns on:
    each entry is summed in a register instead of through a load and a
    store per multiply-add, with the same floating-point operations in the
    same order, so the blocking leaves every bit unchanged. Narrower
    matrices, and the sparse rows of A (such as the identity of a
    grid-solver problem), keep the row-outer loops, which are faster
    there. *)

open Numerics

type problem = {
  h : Mat.t;  (** n × n, symmetric positive definite *)
  g : Vec.t;  (** linear term, length n *)
  c_eq : Mat.t option;  (** equality constraint rows *)
  d_eq : Vec.t option;
  a_ineq : Mat.t option;  (** inequality constraint rows (≥) *)
  b_ineq : Vec.t option;
}

type status =
  | Converged  (** all KKT tolerances met *)
  | Stalled  (** iteration cap reached first — the iterate is best-effort *)

type solution = {
  x : Vec.t;
  active : int list;  (** inequality constraints essentially active at the solution *)
  iterations : int;
  kkt_residual : float;  (** infinity norm of the stationarity residual *)
  status : status;
}

type warm_start = {
  x0 : Vec.t;  (** initial primal point, length n *)
  active0 : int list;  (** inequality rows believed active at the solution *)
}
(** Warm-start hint for the interior-point method — typically the spectral
    unconstrained solution at the same λ ({!Spectral.solution}), or the
    previous solution and active set when sweeping neighboring λ values
    (the robust cascade's escalation retries). Affects only the starting
    iterate: slacks are read off [x0] (floored away from the boundary) and
    duals are placed on the central path at a small μ₀, so a good hint
    saves the early centering iterations while a poor one degrades to the
    cold-start trajectory. Ignored by direct equality-only solves. *)

exception Infeasible of string

val unconstrained : Mat.t -> Vec.t -> Vec.t
(** Minimizer of the pure quadratic: solves [H x = −g]. *)

val solve_equality : Mat.t -> Vec.t -> c:Mat.t -> d:Vec.t -> Vec.t * Vec.t
(** Equality-constrained minimizer via the KKT system; returns
    [(x, multipliers)]. *)

val reduced_into : h:Mat.t -> a:Mat.t -> w:Vec.t -> Mat.t -> unit
(** [reduced_into ~h ~a ~w h_aug] writes H + Σᵢ wᵢ aᵢaᵢᵀ, the
    interior-point reduced matrix H + AᵀWA with W = diag [w], into
    [h_aug] (n × n, not [h] itself). Each entry starts from H[p,q] and adds
    [(w.(i) *. a_ip) *. a_iq] for i ascending, skipping rows where
    a_ip = 0 — the row-outer loop's order — and allocates nothing. From
    six columns on, a pair of rows of [h_aug] with more than two rows of
    [a] between its first and last nonzero is summed in 2 × 6 register
    blocks with those rows innermost; other pairs, and matrices narrower
    than six columns, take the row-outer loop. Either way the bits are
    those of the row-outer loop. *)

val solve :
  ?warm_start:warm_start ->
  ?on_iteration:(int -> unit) ->
  ?tol:float ->
  ?max_iter:int ->
  ?fail_on_stall:bool ->
  problem ->
  solution
(** Full solve. [tol] bounds both the complementarity measure and the
    scaled KKT residuals at termination (default 1e-9); [max_iter] defaults
    to 100 interior-point steps. When the iteration cap is reached without
    convergence, raises {!Infeasible} if [fail_on_stall] (the default), and
    otherwise returns the last iterate with [status = Stalled] so callers
    (e.g. the robust degradation cascade) can distinguish "converged" from
    "gave up" and react.

    [on_iteration] is invoked with the 1-based iteration count at the top
    of every interior-point pass (and once, with [1], for direct
    equality-only solves) before any work for that pass is done. It may
    raise to abort the solve — the hook for external deadline/budget
    enforcement without this module depending on any policy layer. *)
