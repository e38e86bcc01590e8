(** The physical constraints of paper §2.3 and §3.2, expressed as linear
    functionals of the spline coefficients α.

    - Division conservation (2.3, item 2): transcript numbers are conserved
      across division, R(1) = R(0) + R(φ_sst) per cell; averaged over
      p(φ_sst) this is ∫w(φ)f(φ)dφ = 0 with
      w(φ) = δ(1−φ) − 0.4·δ(φ) − 0.6·p(φ).
    - Rate continuity (3.2, eqs. 12–19): the transcript-count rate of change
      is continuous across division, R'(1) = R'(0) + R'(φ_sst); averaged:
      ∫w1 f dφ = ∫w2 f' dφ with w1 = β0 δ(1−φ) − β0 δ(φ) − β(φ)p(φ) and
      w2 = 0.4 δ(φ) + 0.6 p(φ) − δ(1−φ), β(φ) = 0.4/(1−φ).
    - Positivity (2.3, item 1): f_α(φ) ≥ 0, imposed on a grid.

    Dirac terms are evaluated analytically on basis functions; the
    p(φ)-weighted integrals use composite Simpson quadrature (2000 panels)
    on the ±10σ support window of p. Each row tabulates the nodes, and p
    and β at the nodes, once, so each integral is a weighted sum over the
    table, in {!Numerics.Integrate.simpson}'s order of operations —
    bit-identical to quadratures of the same integrands.

    Every function here raises {!Robust.Error.Error} ([Invalid_input] on
    field ["params"]) when the support window is empty, e.g. for
    [cv_sst = 0] or non-finite params. *)

open Numerics

val density_integral : Cellpop.Params.t -> (float -> float) -> float
(** ∫₀¹ h(φ)·p(φ) dφ with p the Gaussian density of φ_sst. *)

val beta0 : Cellpop.Params.t -> float
(** β₀ = ∫β(φ)p(φ)dφ (paper eq. 14). *)

val conservation_row : Cellpop.Params.t -> Spline.Basis.t -> Vec.t
(** Row vector c with c·α = 0 ⇔ f_α(1) − 0.4·f_α(0) − 0.6·∫p f_α = 0. *)

val rate_continuity_row : Cellpop.Params.t -> Spline.Basis.t -> Vec.t
(** Row vector c with c·α = 0 ⇔ paper eq. 17 (moved to one side):
    β₀f(1) − β₀f(0) − ∫βpf − 0.4f'(0) − 0.6∫pf' + f'(1) = 0. *)

val equality_rows :
  conservation:bool -> rate_continuity:bool -> Cellpop.Params.t -> Spline.Basis.t -> Mat.t option
(** The enabled equality rows, conservation first; [None] when both are
    off (params are then never read). *)

val positivity_rows : Spline.Basis.t -> grid:Vec.t -> Mat.t
(** Inequality rows Ψ(φ_g) for f_α(φ_g) ≥ 0. *)

val residual_conservation : Cellpop.Params.t -> Spline.Basis.t -> Vec.t -> float
(** The conservation functional evaluated at coefficients α (should be ~0
    for a constrained estimate). *)

val residual_rate_continuity : Cellpop.Params.t -> Spline.Basis.t -> Vec.t -> float
