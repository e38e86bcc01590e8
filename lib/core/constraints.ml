open Numerics

(* p(φ_sst) is tightly concentrated (σ ≈ 0.02 around 0.15). Integrating
   only over its ±10σ support window (clipped inside (0,1)) both resolves
   the peak sharply and keeps integrands such as β(φ) = 0.4/(1−φ) — which
   blows up at φ = 1 where p is already zero — finite. *)
let quadrature_panels = 2000

(* Relative growth rate of the stalked segment: the (1 − st) = 0.4 of the
   final volume still to be grown, spread over the remaining phase. *)
let beta phi = (1.0 -. Cellpop.Params.st_volume_fraction) /. (1.0 -. phi)

(* Everything the p-weighted integrals need that depends on params alone,
   tabulated once: the composite-Simpson nodes of the support window, p
   and β at each node. Every row entry is then a weighted sum over these
   arrays instead of a fresh quadrature that re-evaluates the density. *)
type table = { step : float; nodes : Vec.t; density : Vec.t; beta : Vec.t }

let table (params : Cellpop.Params.t) =
  let mu = params.Cellpop.Params.mu_sst in
  let sigma = Cellpop.Params.sst_std params in
  let a = Float.max 0.0 (mu -. (10.0 *. sigma)) in
  let b = Float.min (1.0 -. 1e-9) (mu +. (10.0 *. sigma)) in
  (* Also false for NaN params. Rows are assembled once per model, outside
     any per-gene fault-isolation boundary, so this must be typed. *)
  if not (b > a) then
    Robust.Error.raise_error
      (Robust.Error.Invalid_input
         {
           field = "params";
           why =
             Printf.sprintf "phi_sst support window [%g, %g] is empty (mu_sst %g, cv_sst %g)" a
               b mu params.Cellpop.Params.cv_sst;
         });
  let n = quadrature_panels in
  let step = (b -. a) /. float_of_int n in
  (* Node i as Integrate.simpson computes it: the endpoints exactly, the
     interior ones as a + h·i. *)
  let nodes =
    Array.init (n + 1) (fun i ->
        if i = 0 then a else if i = n then b else a +. (step *. float_of_int i))
  in
  {
    step;
    nodes;
    density = Array.map (Cellpop.Params.sst_density params) nodes;
    beta = Array.map beta nodes;
  }

(* Σ w_i·f_i·h/3 in exactly Integrate.simpson's order of operations, with
   [integrand i] the integrand at node i — so the rows are bit-identical to
   quadratures of the same integrands. *)
let simpson t integrand =
  let n = Array.length t.nodes - 1 in
  let acc = ref (integrand 0 +. integrand n) in
  for i = 1 to n - 1 do
    let coeff = if i mod 2 = 1 then 4.0 else 2.0 in
    acc := !acc +. (coeff *. integrand i)
  done;
  !acc *. t.step /. 3.0

(* ∫ h·p dφ for h given by its values at the nodes. *)
let weighted t h = simpson t (fun i -> h.(i) *. t.density.(i))

let density_integral params h =
  let t = table params in
  weighted t (Array.map h t.nodes)

let beta0 params =
  let t = table params in
  weighted t t.beta

let conservation_row params (basis : Spline.Basis.t) =
  let t = table params in
  let sw = Cellpop.Params.sw_volume_fraction in
  let st = Cellpop.Params.st_volume_fraction in
  Array.init basis.Spline.Basis.size (fun i ->
      let psi = basis.Spline.Basis.eval i in
      psi 1.0 -. (sw *. psi 0.0) -. (st *. weighted t (Array.map psi t.nodes)))

let rate_continuity_row params (basis : Spline.Basis.t) =
  let t = table params in
  let sw = Cellpop.Params.sw_volume_fraction in
  let st = Cellpop.Params.st_volume_fraction in
  let b0 = weighted t t.beta in
  Array.init basis.Spline.Basis.size (fun i ->
      let psi = basis.Spline.Basis.eval i in
      let psi' = basis.Spline.Basis.deriv i in
      let psi_at = Array.map psi t.nodes in
      (b0 *. psi 1.0) -. (b0 *. psi 0.0)
      -. simpson t (fun k -> t.beta.(k) *. psi_at.(k) *. t.density.(k))
      -. (sw *. psi' 0.0)
      -. (st *. weighted t (Array.map psi' t.nodes))
      +. psi' 1.0)

let equality_rows ~conservation ~rate_continuity params basis =
  match
    (if conservation then [ conservation_row params basis ] else [])
    @ if rate_continuity then [ rate_continuity_row params basis ] else []
  with
  | [] -> None
  | rows -> Some (Mat.of_rows (Array.of_list rows))

let positivity_rows basis ~grid = Spline.Basis.design basis grid

let residual_conservation params basis alpha =
  Vec.dot (conservation_row params basis) alpha

let residual_rate_continuity params basis alpha =
  Vec.dot (rate_continuity_row params basis) alpha
