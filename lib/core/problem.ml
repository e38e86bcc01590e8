open Numerics

type t = {
  kernel : Cellpop.Kernel.t;
  basis : Spline.Basis.t;
  measurements : Vec.t;
  sigmas : Vec.t;
  params : Cellpop.Params.t;
  use_positivity : bool;
  use_conservation : bool;
  use_rate_continuity : bool;
  design : Mat.t;
  penalty : Mat.t;
  equality_rows : Mat.t option;
  positivity_rows : Mat.t option;
}

let with_data ?sigmas t measurements =
  let n_m = Array.length measurements in
  if Array.length t.kernel.Cellpop.Kernel.times <> n_m then
    Robust.Error.raise_error
      (Robust.Error.Invalid_input
         {
           field = "measurements";
           why =
             Printf.sprintf "%d measurements but kernel has %d times" n_m
               (Array.length t.kernel.Cellpop.Kernel.times);
         });
  let sigmas =
    match sigmas with
    | Some s ->
      if Array.length s <> n_m then
        Robust.Error.raise_error
          (Robust.Error.Invalid_input
             {
               field = "sigmas";
               why =
                 Printf.sprintf "%d sigmas for %d measurements" (Array.length s) n_m;
             });
      (* Sigma positivity/finiteness is deliberately NOT asserted here:
         [validate] reports it as a typed error, and the robust solver can
         repair it. *)
      s
    | None -> Vec.ones n_m
  in
  { t with measurements; sigmas }

let template ?(use_positivity = true) ?(use_conservation = true) ?(use_rate_continuity = true)
    ~kernel ~basis ~params () =
  let n_t = Array.length kernel.Cellpop.Kernel.times in
  (* Every model invariant is assembled here, once, and only here: the
     matrices depend on (kernel, basis, params, flags), never on the data,
     and are shared by every record update that swaps measurements/sigmas
     (batch genes, bootstrap resamples, input repair). *)
  let equality_rows, positivity_rows =
    Obs.Span.with_ "problem.constraints" (fun sp ->
        Obs.Span.set_int sp "basis_size" basis.Spline.Basis.size;
        let equality =
          Constraints.equality_rows ~conservation:use_conservation
            ~rate_continuity:use_rate_continuity params basis
        in
        let positivity =
          if use_positivity then
            (* Include the interval endpoints: the conservation constraints
               act on f(0) and f(1), which lie outside the bin-center grid. *)
            let grid = Vec.concat [ [| 0.0 |]; kernel.Cellpop.Kernel.phases; [| 1.0 |] ] in
            Some (Constraints.positivity_rows basis ~grid)
          else None
        in
        (equality, positivity))
  in
  {
    kernel;
    basis;
    measurements = Vec.zeros n_t;
    sigmas = Vec.ones n_t;
    params;
    use_positivity;
    use_conservation;
    use_rate_continuity;
    design = Forward.matrix_basis kernel basis;
    penalty = Spline.Penalty.second_derivative basis;
    equality_rows;
    positivity_rows;
  }

let create ?use_positivity ?use_conservation ?use_rate_continuity ?sigmas ~kernel ~basis
    ~measurements ~params () =
  with_data ?sigmas
    (template ?use_positivity ?use_conservation ?use_rate_continuity ~kernel ~basis ~params ())
    measurements

let num_measurements t = Array.length t.measurements

let validate t =
  let ( let* ) = Result.bind in
  let* () = Robust.Validate.kernel t.kernel in
  let* () =
    if t.basis.Spline.Basis.size < 2 then
      Error
        (Robust.Error.Invalid_input
           { field = "basis"; why = "fewer than 2 basis functions" })
    else Ok ()
  in
  let* () = Robust.Validate.finite ~stage:"measurements" t.measurements in
  Robust.Validate.sigmas t.sigmas

let weights t = Array.map (fun s -> 1.0 /. (s *. s)) t.sigmas

let design t = t.design

let penalty t = t.penalty
