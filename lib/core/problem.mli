(** A fully specified deconvolution problem: data, kernel, representation
    and which physical constraints to enforce.

    A problem splits into a {e model} — kernel, basis, params, constraint
    flags and everything derived from them — and the {e data}
    (measurements, sigmas). The derived matrices are assembled once, by
    {!template}, and shared by every problem made from it with
    {!with_data} or a record update of [measurements]/[sigmas] (batch
    genes, bootstrap resamples, input repair). Changing the kernel, basis,
    params or a flag must go through {!template} or {!create}: a record
    update of those fields would leave the derived matrices stale. *)

open Numerics

type t = {
  kernel : Cellpop.Kernel.t;  (** Q(φ, t) on the measurement times *)
  basis : Spline.Basis.t;  (** representation of f (paper eq. 4) *)
  measurements : Vec.t;  (** G(t_m) *)
  sigmas : Vec.t;  (** per-measurement standard deviations σ_m *)
  params : Cellpop.Params.t;  (** population model behind the constraints *)
  use_positivity : bool;
  use_conservation : bool;
  use_rate_continuity : bool;
  design : Mat.t;
      (** forward matrix A·Ψ, assembled once by {!template} — prefer the
          {!design} accessor *)
  penalty : Mat.t;
      (** roughness penalty Ω, assembled once by {!template} — prefer the
          {!penalty} accessor *)
  equality_rows : Mat.t option;
      (** eq. 12–19 equality rows C with Cα = 0, assembled once by
          {!template}: the division-conservation row, then the
          rate-continuity row, each present only when its flag is on;
          [None] when both are off *)
  positivity_rows : Mat.t option;
      (** positivity rows Ψ(φ_g) with Ψα ≥ 0 on the kernel's phase grid
          plus the endpoints φ = 0 and φ = 1, assembled once by
          {!template}; [None] when [use_positivity] is off *)
}

val template :
  ?use_positivity:bool ->
  ?use_conservation:bool ->
  ?use_rate_continuity:bool ->
  kernel:Cellpop.Kernel.t ->
  basis:Spline.Basis.t ->
  params:Cellpop.Params.t ->
  unit ->
  t
(** The model without data: every derived matrix assembled, measurements
    all zero and sigmas all one until {!with_data} supplies them. The
    constraint rows are built inside a ["problem.constraints"] span.
    Raises {!Robust.Error.Error} ([Invalid_input] on ["params"]) when the
    params leave the φ_sst density no support (see {!Constraints}). *)

val with_data : ?sigmas:Vec.t -> t -> Vec.t -> t
(** [with_data ?sigmas t measurements] is [t] with new data and the same
    model — a record update, no assembly. [sigmas] default to all-ones
    (unweighted fit). Dimension compatibility with the kernel's times is
    checked; a mismatch raises {!Robust.Error.Error} ([Invalid_input] on
    ["measurements"] or ["sigmas"]). *)

val create :
  ?use_positivity:bool ->
  ?use_conservation:bool ->
  ?use_rate_continuity:bool ->
  ?sigmas:Vec.t ->
  kernel:Cellpop.Kernel.t ->
  basis:Spline.Basis.t ->
  measurements:Vec.t ->
  params:Cellpop.Params.t ->
  unit ->
  t
(** [with_data ?sigmas (template ...) measurements]. All constraints
    default to on (the paper's full method). Errors are those of
    {!template} and {!with_data}, so the typed-error contract holds from
    the very first entry point. *)

val num_measurements : t -> int

val validate : t -> (unit, Robust.Error.t) result
(** Pre-solve validation: kernel well-formed (finite Q, sorted non-negative
    times, every row of mass ≈ 1), measurements finite, sigmas finite and
    strictly positive. Turns what used to be deep-in-the-stack crashes or
    silent NaN propagation into an early structured error; the robust
    solver calls this (after input repair) before touching the QP. *)

val weights : t -> Vec.t
(** 1/σ_m² — the weights of the data-fidelity term in eq. 5. *)

val design : t -> Mat.t
(** Forward matrix A·Ψ from coefficients to predicted measurements.
    Precomputed by {!template}: every λ candidate, fold and bootstrap
    replicate reads the same assembly instead of re-integrating the
    kernel against the basis. *)

val penalty : t -> Mat.t
(** Roughness penalty Ω for the basis. Precomputed by {!template}. *)
