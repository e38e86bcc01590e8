open Numerics

type estimate = {
  alpha : Vec.t;
  profile : Vec.t;
  fitted : Vec.t;
  lambda : float;
  cost : float;
  data_misfit : float;
  roughness : float;
  active_positivity : int;
  qp_iterations : int;
}

(* Quadratic form pieces of eq. 5:
   C(α) = (g − Aα)ᵀ W (g − Aα) + λ αᵀ Ω α
        = αᵀ(AᵀWA + λΩ)α − 2(AᵀWg)ᵀα + const,
   i.e. QP with H = 2(AᵀWA + λΩ), linear term −2AᵀWg. An optional ridge
   (the cascade's escalating floor) adds ridge·I inside the parentheses. *)
let quadratic_pieces ?(ridge = 0.0) problem lambda =
  let a = Problem.design problem in
  let w = Problem.weights problem in
  let omega = Problem.penalty problem in
  let normal = Optimize.Ridge.normal_matrix ~a ~weights:w ~penalty:omega ~lambda in
  if ridge > 0.0 then
    for i = 0 to normal.Mat.rows - 1 do
      Mat.set normal i i (Mat.get normal i i +. ridge)
    done;
  let h = Mat.scale 2.0 normal in
  let wg = Vec.mul w problem.Problem.measurements in
  let g_lin = Vec.scale (-2.0) (Mat.tmv a wg) in
  (a, w, omega, h, g_lin)

let finish problem lambda a w omega (alpha : Vec.t) iterations active =
  let fitted = Mat.mv a alpha in
  let residuals = Vec.sub problem.Problem.measurements fitted in
  let data_misfit =
    let acc = ref 0.0 in
    Array.iteri (fun i r -> acc := !acc +. (w.(i) *. r *. r)) residuals;
    !acc
  in
  let roughness = Vec.dot alpha (Mat.mv omega alpha) in
  let profile =
    Spline.Basis.combine_many problem.Problem.basis alpha
      problem.Problem.kernel.Cellpop.Kernel.phases
  in
  {
    alpha;
    profile;
    fitted;
    lambda;
    cost = data_misfit +. (lambda *. roughness);
    data_misfit;
    roughness;
    active_positivity = active;
    qp_iterations = iterations;
  }

(* Interior-point iteration cap of the raw [solve], and the cascade's
   default. *)
let default_qp_max_iter = 100

(* The full constrained solve, returning the raw QP solution alongside the
   estimate so the cascade can distinguish "converged" from "gave up" and
   reuse the iterate + active set to warm-start the next retry. *)
let solve_constrained ?warm_start ?on_iteration ?(ridge = 0.0) ?(tol = 1e-9)
    ?(max_iter = default_qp_max_iter) ?(fail_on_stall = true) ~lambda problem =
  Obs.Span.with_ "solver.constrained" (fun sp ->
      Obs.Span.set_float sp "lambda" lambda;
      Obs.Span.set_float sp "ridge" ridge;
      let a, w, omega, h, g_lin = quadratic_pieces ~ridge problem lambda in
      (* The constraint rows are model invariants, assembled once by
         Problem.template; only the zero right-hand sides are made here. *)
      let zeros = Option.map (fun (c : Mat.t) -> Vec.zeros c.Mat.rows) in
      let c_eq = problem.Problem.equality_rows in
      let a_ineq = problem.Problem.positivity_rows in
      let d_eq = zeros c_eq and b_ineq = zeros a_ineq in
      let qp = { Optimize.Qp.h; g = g_lin; c_eq; d_eq; a_ineq; b_ineq } in
      let solution =
        Optimize.Qp.solve ?warm_start ?on_iteration ~tol ~max_iter ~fail_on_stall qp
      in
      let est =
        finish problem lambda a w omega solution.Optimize.Qp.x solution.Optimize.Qp.iterations
          (List.length solution.Optimize.Qp.active)
      in
      Obs.Span.set_int sp "qp_iterations" est.qp_iterations;
      Obs.Span.set_int sp "active_positivity" est.active_positivity;
      Obs.Metrics.incr "solver.constrained_solves";
      Obs.Metrics.incr ~by:(float_of_int est.qp_iterations) "solver.qp_iterations";
      Obs.Metrics.observe "solver.active_positivity" (float_of_int est.active_positivity);
      (est, solution))

(* Spectral warm-start hint for the constrained QP at λ: the unconstrained
   minimizer read off the (cached) Demmler–Reinsch factorization. A failed
   factorization just means a cold start — the hint is an optimization,
   never a requirement. *)
let spectral_warm_start ?cache problem ~lambda =
  match
    let a = Problem.design problem in
    let w = Problem.weights problem in
    let omega = Problem.penalty problem in
    let fact = Optimize.Spectral.factorize_problem ?cache ~a ~weights:w ~penalty:omega () in
    let proj =
      Optimize.Spectral.project_data fact ~a ~weights:w ~b:problem.Problem.measurements
    in
    Optimize.Spectral.solution fact proj ~lambda
  with
  | x0 -> Some { Optimize.Qp.x0; active0 = [] }
  | exception Linalg.Singular _ -> None

let solve ?budget ?(lambda = 1e-4) ?ridge ?cache problem =
  let on_iteration = Option.map Robust.Budget.on_iteration budget in
  (* A caller-supplied factorization cache opts the solve into the spectral
     warm start: genes/replicates sharing one kernel pay for the
     factorization once and every subsequent QP starts from its own
     unconstrained spectral solution. Without a cache the solve is the
     cold-start path, unchanged. *)
  let warm_start =
    match cache with
    | None -> None
    | Some _ -> spectral_warm_start ?cache problem ~lambda
  in
  (* The boundary of the typed-error contract for the raw (non-cascade)
     entry point: internal numeric exceptions become Robust.Error here, so
     direct callers — Batch.solve_gene, Bootstrap.residual's replicate
     re-solves — never see a bare Singular/Infeasible. *)
  let max_iter = default_qp_max_iter in
  match fst (solve_constrained ?warm_start ?on_iteration ?ridge ~max_iter ~lambda problem) with
  | est -> est
  | exception Linalg.Singular _ ->
    Robust.Error.raise_error (Robust.Error.Ill_conditioned { cond = Float.infinity })
  | exception Optimize.Qp.Infeasible _ ->
    (* Infeasible is raised only at the iteration cap, so the cap is the
       number of passes the solve spent. *)
    Robust.Error.raise_error (Robust.Error.Qp_stalled { iterations = max_iter })

let solve_unconstrained ?(lambda = 1e-4) ?ridge ?spectral problem =
  match (spectral, ridge) with
  | Some (fact, proj), (None | Some 0.0) ->
    (* Demmler–Reinsch fast path: the unconstrained minimizer is a diagonal
       rescale in the factorization's basis. A ridge disqualifies it — the
       ridge perturbs the Gram side the factorization was built on. *)
    let a = Problem.design problem in
    let w = Problem.weights problem in
    let omega = Problem.penalty problem in
    let alpha = Optimize.Spectral.solution fact proj ~lambda in
    finish problem lambda a w omega alpha 0 0
  | _ ->
    let a, w, omega, h, g_lin = quadratic_pieces ?ridge problem lambda in
    let alpha = Optimize.Qp.unconstrained h g_lin in
    finish problem lambda a w omega alpha 0 0

let naive problem =
  (* λ chosen only to make the normal matrix invertible; relative to the
     data scale it is ~1e-12, so the fit is effectively unregularized. *)
  let scale = Float.max 1e-300 (Vec.norm_inf problem.Problem.measurements) in
  let lambda = 1e-12 *. scale *. scale in
  let a, w, omega, h, g_lin = quadratic_pieces problem lambda in
  let alpha = Optimize.Qp.unconstrained h g_lin in
  { (finish problem lambda a w omega alpha 0 0) with lambda = 0.0 }

let profile_on problem estimate grid =
  Spline.Basis.combine_many problem.Problem.basis estimate.alpha grid

(* ---------------- graceful degradation ---------------- *)

type policy = {
  max_retries : int;
  lambda_boost : float;
  ridge_floor : float;
  ridge_growth : float;
  condition_limit : float;
  qp_tol : float;
  qp_max_iter : int;
  enable_unconstrained : bool;
  enable_richardson_lucy : bool;
  repair_inputs : bool;
  rl_iterations : int;
}

let default_policy =
  {
    max_retries = 2;
    lambda_boost = 10.0;
    ridge_floor = 1e-8;
    ridge_growth = 100.0;
    (* κ ≈ 1e10 still leaves ~6 significant digits in double precision and
       shows up on routine noisy datasets; only precondition when a direct
       solve is genuinely at risk. *)
    condition_limit = 1e12;
    qp_tol = 1e-9;
    qp_max_iter = default_qp_max_iter;
    enable_unconstrained = true;
    enable_richardson_lucy = true;
    repair_inputs = true;
    rl_iterations = 200;
  }

(* Sigma that effectively removes a measurement from the fit (weight
   1/σ² ~ 1e-300) while staying finite and positive for validation. *)
let masking_sigma = 1e150

let repair_problem problem =
  let n = Array.length problem.Problem.measurements in
  let meas = Array.copy problem.Problem.measurements in
  let sig_ = Array.copy problem.Problem.sigmas in
  let good_sigma s = Float.is_finite s && s > 0.0 in
  let replacement =
    let good = List.filter good_sigma (Array.to_list sig_) in
    match List.sort Float.compare good with
    | [] -> 1.0
    | sorted -> List.nth sorted (List.length sorted / 2)
  in
  let floored = ref 0 and masked = ref 0 in
  for i = 0 to n - 1 do
    if not (good_sigma sig_.(i)) then begin
      sig_.(i) <- replacement;
      incr floored
    end;
    if not (Float.is_finite meas.(i)) then begin
      meas.(i) <- 0.0;
      sig_.(i) <- masking_sigma;
      incr masked
    end
  done;
  let repairs =
    (if !masked > 0 then
       [ { Robust.Report.action = "masked non-finite measurements"; count = !masked } ]
     else [])
    @
    if !floored > 0 then
      [ { Robust.Report.action = "replaced invalid sigmas"; count = !floored } ]
    else []
  in
  if repairs = [] then (problem, [])
  else ({ problem with Problem.measurements = meas; sigmas = sig_ }, repairs)

let finite_vec = Robust.Validate.all_finite

let finite_estimate e =
  finite_vec e.alpha && finite_vec e.profile && finite_vec e.fitted && Float.is_finite e.cost

(* Wrap the Richardson–Lucy grid estimate in the [estimate] record: project
   the grid profile onto the spline basis so [profile_on] keeps working,
   and recompute the cost pieces against the (repaired) measurements. *)
let estimate_of_richardson_lucy problem lambda (rl : Richardson_lucy.result) =
  let basis = problem.Problem.basis in
  let phases = problem.Problem.kernel.Cellpop.Kernel.phases in
  let alpha =
    match Linalg.qr_lstsq (Spline.Basis.design basis phases) rl.Richardson_lucy.profile with
    | alpha -> alpha
    | exception Linalg.Singular _ -> Vec.zeros basis.Spline.Basis.size
  in
  let w = Problem.weights problem in
  let residuals = Vec.sub problem.Problem.measurements rl.Richardson_lucy.fitted in
  let data_misfit =
    let acc = ref 0.0 in
    Array.iteri (fun i r -> acc := !acc +. (w.(i) *. r *. r)) residuals;
    !acc
  in
  let omega = Problem.penalty problem in
  let roughness = Vec.dot alpha (Mat.mv omega alpha) in
  {
    alpha;
    profile = rl.Richardson_lucy.profile;
    fitted = rl.Richardson_lucy.fitted;
    lambda;
    cost = data_misfit +. (lambda *. roughness);
    data_misfit;
    roughness;
    active_positivity = 0;
    qp_iterations = rl.Richardson_lucy.iterations;
  }

let solve_robust_validated ?cache ~policy ~budget ~lambda problem =
  let attempts = ref [] in
  (* One budget covers the whole cascade: iterations spent by an attempt
     that failed still count against the later stages, and a blown budget
     (non-recoverable by construction) aborts the remaining stages. *)
  let on_iteration = Robust.Budget.on_iteration budget in
  let aborted = ref false in
  (* Attempt durations are wall-clock via Obs.Clock (never Sys.time, which
     is processor time and stands still while the process waits). *)
  let record ?(iters = 0) stage lam ridge t0 outcome =
    attempts :=
      {
        Robust.Report.stage;
        lambda = lam;
        ridge;
        seconds = Obs.Clock.now () -. t0;
        iterations = iters;
        outcome;
      }
      :: !attempts
  in
  (* Each cascade attempt is also a span on the observability stream, so a
     trace shows the same story as the Robust.Report — stage, retry index,
     regularization and outcome — with the QP spans nested inside. *)
  let attempt_span stage_name body =
    Obs.Span.with_ "solver.attempt" (fun sp ->
        Obs.Span.set_str sp "stage" stage_name;
        body sp)
  in
  let outcome_attr sp = function
    | Ok () -> Obs.Span.set_str sp "outcome" "ok"
    | Error e -> Obs.Span.set_str sp "outcome" (Robust.Error.to_string e)
  in
  let problem', repairs =
    if policy.repair_inputs then repair_problem problem else (problem, [])
  in
  let t_validate = Obs.Clock.now () in
  match Problem.validate problem' with
  | Error e ->
    record Robust.Report.Validation lambda 0.0 t_validate (Error e);
    Error e
  | Ok () ->
    let problem = problem' in
    let repaired = repairs <> [] in
    (* Condition estimate of the penalized normal matrix at the entry λ:
       both a diagnostic and the trigger for a preemptive ridge floor. *)
    let normal =
      Optimize.Ridge.normal_matrix ~a:(Problem.design problem)
        ~weights:(Problem.weights problem) ~penalty:(Problem.penalty problem) ~lambda
    in
    let h_scale = Float.max 1e-300 (Mat.max_abs normal) in
    (* Only [Linalg.Singular] means "no usable estimate"; anything else
       (e.g. a non-square matrix) is a programming error and propagates. *)
    let condition =
      match Linalg.condition_spd normal with
      | c -> Some c
      | exception Linalg.Singular _ -> None
    in
    (match condition with
    | Some c -> Obs.Metrics.set "solver.condition" c
    | None -> ());
    let precondition_ridge =
      match condition with
      | Some c when c > policy.condition_limit -> policy.ridge_floor *. h_scale
      | _ -> 0.0
    in
    let report stage degradation =
      {
        Robust.Report.attempts = List.rev !attempts;
        condition;
        repairs;
        degradation;
        solved_by = stage;
      }
    in
    let last_error = ref (Robust.Error.Non_finite { stage = "solver" }) in
    let result = ref None in
    (* Warm-start state for stage 1: seeded from the spectral unconstrained
       solution when a factorization cache is in play, then replaced by the
       previous attempt's iterate + active set across the escalation
       retries (neighboring λ share their active faces). *)
    let warm =
      ref (match cache with None -> None | Some _ -> spectral_warm_start ?cache problem ~lambda)
    in
    (* Stage 1: constrained QP with bounded retry — escalating λ boost and
       ridge floor over the regularization strength. *)
    let k = ref 0 in
    while !result = None && (not !aborted) && !k <= policy.max_retries do
      let lam = lambda *. (policy.lambda_boost ** float_of_int !k) in
      let ridge =
        if !k = 0 then precondition_ridge
        else
          Float.max precondition_ridge (policy.ridge_floor *. h_scale)
          *. (policy.ridge_growth ** float_of_int (!k - 1))
      in
      attempt_span "constrained_qp" (fun sp ->
          Obs.Span.set_int sp "retry" !k;
          Obs.Span.set_float sp "lambda" lam;
          Obs.Span.set_float sp "ridge" ridge;
          let record ?iters stage l r t0 outcome =
            outcome_attr sp outcome;
            record ?iters stage l r t0 outcome
          in
          let t0 = Obs.Clock.now () in
          match
            solve_constrained ?warm_start:!warm ~on_iteration ~ridge ~tol:policy.qp_tol
              ~max_iter:policy.qp_max_iter ~fail_on_stall:false ~lambda:lam problem
          with
      | exception Robust.Error.Error e ->
        record Robust.Report.Constrained_qp lam ridge t0 (Error e);
        last_error := e;
        if not (Robust.Error.recoverable e) then aborted := true
      | exception Linalg.Singular _ ->
        let e =
          Robust.Error.Ill_conditioned
            { cond = Option.value condition ~default:Float.infinity }
        in
        record Robust.Report.Constrained_qp lam ridge t0 (Error e);
        last_error := e
      | exception Optimize.Qp.Infeasible _ ->
        let e = Robust.Error.Qp_stalled { iterations = policy.qp_max_iter } in
        record ~iters:policy.qp_max_iter Robust.Report.Constrained_qp lam ridge t0 (Error e);
        last_error := e
      | est, ({ Optimize.Qp.status = Optimize.Qp.Stalled; _ } as sol) ->
        (* The stalled iterate is still the best point seen at this λ —
           reuse it (and its active set) to start the boosted retry. *)
        if finite_vec sol.Optimize.Qp.x then
          warm := Some { Optimize.Qp.x0 = sol.Optimize.Qp.x; active0 = sol.Optimize.Qp.active };
        let e = Robust.Error.Qp_stalled { iterations = est.qp_iterations } in
        record ~iters:est.qp_iterations Robust.Report.Constrained_qp lam ridge t0 (Error e);
        last_error := e
      | est, { Optimize.Qp.status = Optimize.Qp.Converged; _ } ->
        if finite_estimate est then begin
          record ~iters:est.qp_iterations Robust.Report.Constrained_qp lam ridge t0 (Ok ());
          let degradation =
            if !k = 0 && (not repaired) && Float.equal precondition_ridge 0.0 then 0
            else 1
          in
          result := Some (est, report Robust.Report.Constrained_qp degradation)
        end
        else begin
          let e = Robust.Error.Non_finite { stage = "constrained QP solution" } in
          record ~iters:est.qp_iterations Robust.Report.Constrained_qp lam ridge t0 (Error e);
          last_error := e
        end);
      incr k
    done;
    (* Stage 2: unconstrained smoothing spline at the most-boosted
       regularization. *)
    if !result = None && (not !aborted) && policy.enable_unconstrained then begin
      let lam = lambda *. (policy.lambda_boost ** float_of_int policy.max_retries) in
      let ridge =
        Float.max precondition_ridge
          (policy.ridge_floor *. h_scale
          *. (policy.ridge_growth ** float_of_int (Stdlib.max 0 (policy.max_retries - 1))))
      in
      attempt_span "unconstrained" (fun sp ->
          Obs.Span.set_float sp "lambda" lam;
          Obs.Span.set_float sp "ridge" ridge;
          let record ?iters stage l r t0 outcome =
            outcome_attr sp outcome;
            record ?iters stage l r t0 outcome
          in
          let t0 = Obs.Clock.now () in
          match
            Robust.Budget.check budget;
            solve_unconstrained ~lambda:lam ~ridge problem
          with
          | exception Robust.Error.Error e ->
            record Robust.Report.Unconstrained lam ridge t0 (Error e);
            last_error := e;
            if not (Robust.Error.recoverable e) then aborted := true
          | exception Linalg.Singular _ ->
        let e =
          Robust.Error.Ill_conditioned
            { cond = Option.value condition ~default:Float.infinity }
        in
        record Robust.Report.Unconstrained lam ridge t0 (Error e);
        last_error := e
      | est ->
        if finite_estimate est then begin
          record ~iters:est.qp_iterations Robust.Report.Unconstrained lam ridge t0 (Ok ());
          result := Some (est, report Robust.Report.Unconstrained 2)
        end
        else begin
          let e = Robust.Error.Non_finite { stage = "unconstrained solution" } in
          record Robust.Report.Unconstrained lam ridge t0 (Error e);
          last_error := e
        end)
    end;
    (* Stage 3: Richardson–Lucy on the raw grid — positivity-preserving and
       factorization-free, the fallback of last resort. *)
    if !result = None && (not !aborted) && policy.enable_richardson_lucy then begin
      attempt_span "richardson_lucy" (fun sp ->
          Obs.Span.set_float sp "lambda" lambda;
          let record ?iters stage l r t0 outcome =
            outcome_attr sp outcome;
            record ?iters stage l r t0 outcome
          in
          let t0 = Obs.Clock.now () in
          let measurements =
            Array.map (fun g -> Float.max 0.0 g) problem.Problem.measurements
          in
          match
            Richardson_lucy.deconvolve ~on_iteration ~iterations:policy.rl_iterations
              problem.Problem.kernel ~measurements ()
          with
      | exception Robust.Error.Error e ->
        record Robust.Report.Richardson_lucy lambda 0.0 t0 (Error e);
        last_error := e
      (* lint: allow R2 — last cascade stage: any failure must become a typed
         error for the report; there is no later stage to re-raise to *)
      | exception _ ->
        let e = Robust.Error.Non_finite { stage = "Richardson-Lucy" } in
        record Robust.Report.Richardson_lucy lambda 0.0 t0 (Error e);
        last_error := e
      | rl ->
        let iters = rl.Richardson_lucy.iterations in
        let est = estimate_of_richardson_lucy problem lambda rl in
        if finite_estimate est then begin
          record ~iters Robust.Report.Richardson_lucy lambda 0.0 t0 (Ok ());
          result := Some (est, report Robust.Report.Richardson_lucy 3)
        end
        else begin
          let e = Robust.Error.Non_finite { stage = "Richardson-Lucy" } in
          record ~iters Robust.Report.Richardson_lucy lambda 0.0 t0 (Error e);
          last_error := e
        end)
    end;
    (match !result with
    | Some (est, rep) ->
      (* Per-solve quality record for the observatory. The statistics the
         cascade already owns (κ, RSS, constraint counts, attempt path)
         are passed through; edf and the residual tests are computed by
         Quality inside the Diag.enabled guard — with no sink this call
         is one branch. *)
      if Obs.Diag.enabled () then begin
        let cascade =
          String.concat ">"
            (List.map
               (fun (a : Robust.Report.attempt) ->
                 Robust.Report.stage_name a.Robust.Report.stage
                 ^ match a.Robust.Report.outcome with Ok () -> "" | Error _ -> "!")
               rep.Robust.Report.attempts)
        in
        Quality.emit_solve ~problem ~fitted:est.fitted ~lambda:est.lambda ~entry_lambda:lambda
          ~rss:est.data_misfit
          ~kappa:(Option.value condition ~default:Float.nan)
          ~degradation:rep.Robust.Report.degradation
          ~active_positivity:est.active_positivity ~qp_iterations:est.qp_iterations
          ~solved_by:(Robust.Report.stage_name rep.Robust.Report.solved_by)
          ~cascade ()
      end;
      Ok (est, rep)
    | None -> Error !last_error)

let solve_robust ?(policy = default_policy) ?budget ?(lambda = 1e-4) ?cache problem =
  Obs.Span.with_ "solver.solve_robust" (fun sp ->
      Obs.Span.set_float sp "lambda" lambda;
      let budget =
        match budget with Some b -> b | None -> Robust.Budget.unlimited ()
      in
      let result =
        if not (Float.is_finite lambda && lambda >= 0.0) then
          Error
            (Robust.Error.Invalid_input
               { field = "lambda"; why = Printf.sprintf "%g is not finite and >= 0" lambda })
        else solve_robust_validated ?cache ~policy ~budget ~lambda problem
      in
      (match result with
      | Ok (_, rep) ->
        Obs.Span.set_str sp "solved_by"
          (Robust.Report.stage_name rep.Robust.Report.solved_by);
        Obs.Span.set_int sp "degradation" rep.Robust.Report.degradation
      | Error e -> Obs.Span.set_str sp "outcome" (Robust.Error.to_string e));
      result)
