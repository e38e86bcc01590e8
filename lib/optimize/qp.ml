open Numerics

type problem = {
  h : Mat.t;
  g : Vec.t;
  c_eq : Mat.t option;
  d_eq : Vec.t option;
  a_ineq : Mat.t option;
  b_ineq : Vec.t option;
}

type status = Converged | Stalled

type solution = {
  x : Vec.t;
  active : int list;
  iterations : int;
  kkt_residual : float;
  status : status;
}

type warm_start = { x0 : Vec.t; active0 : int list }

exception Infeasible of string

let unconstrained h g = Linalg.solve_spd h (Vec.neg g)

(* Writes the KKT matrix [H Cᵀ; C 0] into [kkt], (n+m) × (n+m), every
   entry, so [kkt] may hold anything (the loop's previous LU factors). *)
let kkt_into h c kkt =
  let n = h.Mat.rows and m = c.Mat.rows in
  let nk = n + m in
  let hd = h.Mat.data and cd = c.Mat.data and kd = kkt.Mat.data in
  for i = 0 to n - 1 do
    Array.blit hd (i * n) kd (i * nk) n
  done;
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let cij = cd.((i * n) + j) in
      kd.(((n + i) * nk) + j) <- cij;
      kd.((j * nk) + n + i) <- cij
    done;
    Array.fill kd (((n + i) * nk) + n) m 0.0
  done

(* KKT system [H Cᵀ; C 0] [x; ν] = [−g; d]. *)
let solve_equality h g ~c ~d =
  let n = h.Mat.rows in
  let m = c.Mat.rows in
  assert (c.Mat.cols = n);
  assert (Array.length d = m);
  let kkt = Mat.zeros (n + m) (n + m) in
  kkt_into h c kkt;
  let rhs = Array.init (n + m) (fun i -> if i < n then -.g.(i) else d.(i - n)) in
  let sol = Linalg.solve_sym_indefinite kkt rhs in
  (Array.sub sol 0 n, Array.sub sol n m)

(* The one owner of the stationarity residual r = Hx + g − Cᵀy − Aᵀz:
   the interior-point loop's convergence test, every solve's final
   [kkt_residual] and the direct solves all go through here. [tmp]
   (length n) holds each transposed product. *)
let dual_residual_into problem x y z ~tmp r =
  Mat.mv_into problem.h x r;
  let g = problem.g in
  for i = 0 to Array.length r - 1 do
    r.(i) <- r.(i) +. g.(i)
  done;
  (match problem.c_eq with
  | Some c ->
    Mat.tmv_into c y tmp;
    Vec.axpy (-1.0) tmp r
  | None -> ());
  match problem.a_ineq with
  | Some a ->
    Mat.tmv_into a z tmp;
    Vec.axpy (-1.0) tmp r
  | None -> ()

(* The scale [kkt_residual] is reported against: the problem magnitude. *)
let stationarity_scale problem =
  Float.max 1.0 (Float.max (Vec.norm_inf problem.g) (Mat.max_abs problem.h))

let stationarity_residual problem x nu z =
  let n = problem.h.Mat.rows in
  let r = Vec.zeros n in
  dual_residual_into problem x nu z ~tmp:(Vec.zeros n) r;
  Vec.norm_inf r /. stationarity_scale problem

(* Rows p_lo..p_hi of H + Σᵢ wᵢ aᵢaᵢᵀ taken row-outer over the rows
   i_lo..i_hi of A, the only rows with a nonzero in those columns: H
   copied in, then each nonzero a_ip adds (wᵢ·a_ip)·a_iq to h_aug[p,q], a
   load and a store per multiply-add. *)
let reduced_rows hd ad w od n ~p_lo ~p_hi ~i_lo ~i_hi =
  Array.blit hd (p_lo * n) od (p_lo * n) ((p_hi - p_lo + 1) * n);
  for i = i_lo to i_hi do
    let wi = w.(i) and base = i * n in
    for p = p_lo to p_hi do
      let a_ip = ad.(base + p) in
      if not (Float.equal a_ip 0.0) then begin
        let wa = wi *. a_ip and prow = p * n in
        for q = 0 to n - 1 do
          od.(prow + q) <- od.(prow + q) +. (wa *. ad.(base + q))
        done
      end
    done
  done

(* The one owner of the reduced matrix H + Σᵢ wᵢ aᵢaᵢᵀ. Every entry
   starts from H[p,q] and adds (wᵢ·a_ip)·a_iq for i ascending, rows with
   a_ip = 0 skipped, so the bits do not depend on the path below.

   From six columns on, rows of h_aug go in pairs (p, p+1), and a pair
   visits only the rows of A from the first to the last with a nonzero
   in column p or p+1: the rows outside would be skipped for both. A pair
   with more than two such rows is accumulated in 2 × 6 register blocks
   with those rows innermost; a dimension that is not a multiple of the
   block ends with a block shifted back to finish at the last
   row/column, whose entries shared with the previous block are
   recomputed from H, so [h_aug] must not be [h]. A pair with at most two
   rows (the grid solver's identity A) and a matrix narrower than six
   columns take [reduced_rows], which is faster there. *)
let reduced_into ~h ~a ~w h_aug =
  let n = h.Mat.rows and m = a.Mat.rows in
  assert (h.Mat.cols = n && a.Mat.cols = n && Array.length w = m);
  assert (h_aug.Mat.rows = n && h_aug.Mat.cols = n);
  assert (n = 0 || h_aug.Mat.data != h.Mat.data);
  let hd = h.Mat.data and ad = a.Mat.data and od = h_aug.Mat.data in
  if n < 6 then reduced_rows hd ad w od n ~p_lo:0 ~p_hi:(n - 1) ~i_lo:0 ~i_hi:(m - 1)
  else begin
    let p = ref 0 in
    while !p < n do
      let p0 = if !p + 2 > n then n - 2 else !p in
      let lo = ref 0 and hi = ref (m - 1) in
      while !lo < m && Float.equal ad.((!lo * n) + p0) 0.0 && Float.equal ad.((!lo * n) + p0 + 1) 0.0 do
        incr lo
      done;
      while !hi > !lo && Float.equal ad.((!hi * n) + p0) 0.0 && Float.equal ad.((!hi * n) + p0 + 1) 0.0 do
        decr hi
      done;
      if !hi - !lo < 2 then reduced_rows hd ad w od n ~p_lo:p0 ~p_hi:(p0 + 1) ~i_lo:!lo ~i_hi:!hi
      else begin
        let q = ref 0 in
        while !q < n do
          let q0 = if !q + 6 > n then n - 6 else !q in
          let r0 = (p0 * n) + q0 in
          let r1 = r0 + n in
          let h00 = ref hd.(r0) and h01 = ref hd.(r0 + 1) and h02 = ref hd.(r0 + 2) in
          let h03 = ref hd.(r0 + 3) and h04 = ref hd.(r0 + 4) and h05 = ref hd.(r0 + 5) in
          let h10 = ref hd.(r1) and h11 = ref hd.(r1 + 1) and h12 = ref hd.(r1 + 2) in
          let h13 = ref hd.(r1 + 3) and h14 = ref hd.(r1 + 4) and h15 = ref hd.(r1 + 5) in
          for i = !lo to !hi do
            let base = i * n in
            let wi = w.(i) and b = base + q0 in
            let a0 = ad.(base + p0) in
            if not (Float.equal a0 0.0) then begin
              let wa = wi *. a0 in
              h00 := !h00 +. (wa *. ad.(b));
              h01 := !h01 +. (wa *. ad.(b + 1));
              h02 := !h02 +. (wa *. ad.(b + 2));
              h03 := !h03 +. (wa *. ad.(b + 3));
              h04 := !h04 +. (wa *. ad.(b + 4));
              h05 := !h05 +. (wa *. ad.(b + 5))
            end;
            let a1 = ad.(base + p0 + 1) in
            if not (Float.equal a1 0.0) then begin
              let wa = wi *. a1 in
              h10 := !h10 +. (wa *. ad.(b));
              h11 := !h11 +. (wa *. ad.(b + 1));
              h12 := !h12 +. (wa *. ad.(b + 2));
              h13 := !h13 +. (wa *. ad.(b + 3));
              h14 := !h14 +. (wa *. ad.(b + 4));
              h15 := !h15 +. (wa *. ad.(b + 5))
            end
          done;
          od.(r0) <- !h00;
          od.(r0 + 1) <- !h01;
          od.(r0 + 2) <- !h02;
          od.(r0 + 3) <- !h03;
          od.(r0 + 4) <- !h04;
          od.(r0 + 5) <- !h05;
          od.(r1) <- !h10;
          od.(r1 + 1) <- !h11;
          od.(r1 + 2) <- !h12;
          od.(r1 + 3) <- !h13;
          od.(r1 + 4) <- !h14;
          od.(r1 + 5) <- !h15;
          q := q0 + 6
        done
      end;
      p := p0 + 2
    done
  end

(* Infeasible-start primal-dual path following for the inequality case.
   [sp] is the enclosing qp.solve span: each pass of the main loop emits
   one "qp.iteration" point on it, so a trace replays the convergence
   trajectory and the point count equals [solution.iterations].

   Every buffer the loop touches is allocated once, below, before the
   first pass; a pass only writes into them, so its allocation does not
   grow with the problem size. Keep each operation and its order: the
   results must stay bit-identical to the reference loop the qp suite
   compares against (test/qp_reference.ml). *)
let solve_interior_point ~sp ~warm_start ~on_iteration ~tol ~max_iter ~fail_on_stall problem
    a b =
  let n = problem.h.Mat.rows in
  let m_ineq = a.Mat.rows in
  let n_eq = match problem.c_eq with Some c -> c.Mat.rows | None -> 0 in
  let d_eq = match problem.d_eq with Some d -> d | None -> [||] in
  let nk = n + n_eq in
  (* Iterate, residuals and step. *)
  let x = Vec.zeros n and y = Vec.zeros n_eq in
  let s = Vec.ones m_ineq and z = Vec.ones m_ineq in
  let r_dual = Vec.zeros n and r_eq = Vec.zeros n_eq and r_ineq = Vec.zeros m_ineq in
  let dx = Vec.zeros n and dy = Vec.zeros n_eq in
  let ds = Vec.zeros m_ineq and dz = Vec.zeros m_ineq in
  (* Scratch: S⁻¹Z, the weights σμS⁻¹e − z − S⁻¹Z·r_ineq, Aᵀ/Cᵀ products,
     the reduced matrix H + AᵀS⁻¹ZA, and the linear system it feeds. *)
  let s_inv_z = Vec.zeros m_ineq and corr = Vec.zeros m_ineq and tmp = Vec.zeros n in
  let h_aug = Mat.zeros n n in
  let kkt = Mat.zeros nk nk and pivots = Array.make nk 0 in
  let rhs = Vec.zeros nk and sol = Vec.zeros nk in
  (match warm_start with
  | None -> ()
  | Some w ->
    assert (Array.length w.x0 = n);
    let ax = Mat.mv a w.x0 in
    let hint_scale = Float.max 1.0 (Float.max (Vec.norm_inf b) (Vec.norm_inf ax)) in
    let violation = ref 0.0 in
    for i = 0 to m_ineq - 1 do
      violation := Float.max !violation (b.(i) -. ax.(i))
    done;
    (* Adopt only nearly feasible hints (ringing-level violations, ≤10% of
       the prediction scale). A badly infeasible x0 would pair tiny slacks
       with a large primal residual — the fraction-to-boundary rule then
       crawls, and the "warm" start costs more passes than the cold one it
       replaces. Rejection keeps the cold defaults, so a poor hint can
       never make a solve worse. *)
    if !violation <= 0.1 *. hint_scale then begin
      Obs.Span.set_bool sp "warm_adopted" true;
      (* Start at the supplied point with slacks read off it, floored away
         from the boundary, and duals on the central path at μ₀ = 0.1 —
         one decade into the cold start's μ schedule, far enough that a
         good hint saves the early centering passes, conservative enough
         that a mediocre one costs nothing. *)
      Array.blit w.x0 0 x 0 n;
      let slack_floor = 1e-2 *. hint_scale in
      let mu0 = 1e-1 in
      for i = 0 to m_ineq - 1 do
        s.(i) <- Float.max (ax.(i) -. b.(i)) slack_floor;
        z.(i) <- mu0 /. s.(i)
      done;
      (* Constraints the caller believes are active get a unit dual so the
         first step does not immediately walk off the active face. *)
      List.iter (fun i -> if i >= 0 && i < m_ineq then z.(i) <- Float.max z.(i) 1.0) w.active0
    end);
  let mf = float_of_int m_ineq in
  let duality_gap () = Vec.dot s z /. mf in
  let residuals () =
    (* r_dual = Hx + g − Cᵀy − Aᵀz; r_eq = Cx − d; r_ineq = Ax − s − b. *)
    dual_residual_into problem x y z ~tmp r_dual;
    (match problem.c_eq with
    | Some c ->
      Mat.mv_into c x r_eq;
      assert (Array.length d_eq = n_eq);
      for i = 0 to n_eq - 1 do
        r_eq.(i) <- r_eq.(i) -. d_eq.(i)
      done
    | None -> ());
    Mat.mv_into a x r_ineq;
    for i = 0 to m_ineq - 1 do
      r_ineq.(i) <- r_ineq.(i) -. s.(i) -. b.(i)
    done
  in
  let scale =
    Float.max 1.0
      (Float.max (Vec.norm_inf problem.g)
         (Float.max (Mat.max_abs problem.h) (Vec.norm_inf b)))
  in
  let iterations = ref 0 in
  let converged = ref false in
  (* Scaled worst-case KKT residual — the quantity the convergence test
     compares against [tol], so the telemetry curve mirrors the stop rule. *)
  let kkt_of () =
    Float.max (Vec.norm_inf r_dual)
      (Float.max
         (if n_eq = 0 then 0.0 else Vec.norm_inf r_eq)
         (Vec.norm_inf r_ineq))
    /. scale
  in
  (* Fraction-to-boundary step size. *)
  let step_for v dv =
    let alpha = ref 1.0 in
    for i = 0 to Array.length v - 1 do
      if dv.(i) < 0.0 then alpha := Float.min !alpha (-0.995 *. v.(i) /. dv.(i))
    done;
    !alpha
  in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    (match on_iteration with Some f -> f !iterations | None -> ());
    residuals ();
    let mu = duality_gap () in
    if
      mu < tol *. scale
      && Vec.norm_inf r_dual < tol *. scale
      && (n_eq = 0 || Vec.norm_inf r_eq < tol *. scale)
      && Vec.norm_inf r_ineq < tol *. scale
    then begin
      converged := true;
      if Obs.Span.enabled () then
        Obs.Span.point sp "qp.iteration" ~iter:!iterations
          [ ("kkt_residual", kkt_of ()); ("mu", mu) ]
    end
    else begin
      (* Centering parameter: aggressive once residuals are small. *)
      let sigma = if Vec.norm_inf r_ineq < 1e-8 *. scale then 0.1 else 0.3 in
      (* Reduced system over (Δx, Δy):
         (H + AᵀS⁻¹ZA)Δx − CᵀΔy = −r_dual + Aᵀ(σμS⁻¹e − z − S⁻¹Z r_ineq)
         C Δx = −r_eq. *)
      for i = 0 to m_ineq - 1 do
        s_inv_z.(i) <- z.(i) /. s.(i)
      done;
      reduced_into ~h:problem.h ~a ~w:s_inv_z h_aug;
      for i = 0 to m_ineq - 1 do
        corr.(i) <- (sigma *. mu /. s.(i)) -. z.(i) -. (s_inv_z.(i) *. r_ineq.(i))
      done;
      Mat.tmv_into a corr tmp;
      (* rhs_x = −r_dual + Aᵀ·corr, in the first n entries of [rhs]. *)
      for j = 0 to n - 1 do
        rhs.(j) <- (-1.0 *. r_dual.(j)) +. tmp.(j)
      done;
      (match problem.c_eq with
      | None -> Linalg.solve_spd_into h_aug ~scratch:kkt ~pivots rhs dx
      | Some c ->
        (* [H_aug −Cᵀ; C 0][Δx; Δy] = [rhs_x; −r_eq] is solved as
           [H_aug Cᵀ; C 0][Δx; ν] = [rhs_x; −r_eq] with Δy = −ν. The
           double negation of rhs_x is not an identity on NaN (the
           multiply keeps a NaN's sign, the negation flips it); it stays
           so a NaN iterate carries the reference loop's bits. *)
        kkt_into h_aug c kkt;
        for j = 0 to n - 1 do
          rhs.(j) <- -.(-1.0 *. rhs.(j))
        done;
        for i = 0 to n_eq - 1 do
          rhs.(n + i) <- -1.0 *. r_eq.(i)
        done;
        ignore (Linalg.lu_factor_in_place kkt pivots : float);
        Linalg.lu_solve_into kkt pivots rhs sol;
        Array.blit sol 0 dx 0 n;
        for i = 0 to n_eq - 1 do
          dy.(i) <- -1.0 *. sol.(n + i)
        done);
      Mat.mv_into a dx ds;
      for i = 0 to m_ineq - 1 do
        ds.(i) <- ds.(i) +. r_ineq.(i);
        dz.(i) <- ((sigma *. mu) -. (z.(i) *. s.(i)) -. (z.(i) *. ds.(i))) /. s.(i)
      done;
      let alpha_p = step_for s ds in
      let alpha_d = step_for z dz in
      Vec.axpy alpha_p dx x;
      (match problem.c_eq with
      | Some _ -> Vec.axpy alpha_d dy y
      | None -> ());
      Vec.axpy alpha_p ds s;
      Vec.axpy alpha_d dz z;
      if Obs.Span.enabled () then
        Obs.Span.point sp "qp.iteration" ~iter:!iterations
          [
            ("kkt_residual", kkt_of ());
            ("mu", mu);
            ("alpha_p", alpha_p);
            ("alpha_d", alpha_d);
          ]
    end
  done;
  if (not !converged) && fail_on_stall then
    raise (Infeasible "Qp.solve: interior-point iteration limit");
  let active =
    let threshold = sqrt tol *. Float.max 1.0 (Vec.norm_inf s) in
    let acc = ref [] in
    for i = m_ineq - 1 downto 0 do
      if s.(i) < threshold then acc := i :: !acc
    done;
    !acc
  in
  dual_residual_into problem x y z ~tmp r_dual;
  {
    x;
    active;
    iterations = !iterations;
    kkt_residual = Vec.norm_inf r_dual /. stationarity_scale problem;
    status = (if !converged then Converged else Stalled);
  }

let solve_dispatch ~sp ~warm_start ~on_iteration ~tol ~max_iter ~fail_on_stall problem =
  let n = problem.h.Mat.rows in
  assert (Array.length problem.g = n);
  (* Direct solves count as one iteration; emit the matching single point
     so every solve's telemetry series has exactly [iterations] entries. *)
  let direct sol =
    (match on_iteration with Some f -> f 1 | None -> ());
    if Obs.Span.enabled () then
      Obs.Span.point sp "qp.iteration" ~iter:1
        [ ("kkt_residual", sol.kkt_residual); ("mu", 0.0) ];
    sol
  in
  match (problem.a_ineq, problem.b_ineq) with
  | None, None | None, Some _ ->
    (* Equality-only (or unconstrained): one KKT solve. *)
    (match (problem.c_eq, problem.d_eq) with
    | Some c, Some d ->
      let x, nu = solve_equality problem.h problem.g ~c ~d in
      direct
        {
          x;
          active = [];
          iterations = 1;
          kkt_residual = stationarity_residual problem x nu [||];
          status = Converged;
        }
    | None, _ ->
      let x = unconstrained problem.h problem.g in
      direct
        {
          x;
          active = [];
          iterations = 1;
          kkt_residual = stationarity_residual problem x [||] [||];
          status = Converged;
        }
    | Some _, None ->
      (* lint: allow R10 R11 -- mismatched optional-constraint pair is caller
         programmer error; the solver cascade builds matched pairs by
         construction, and lib/optimize sits below lib/robust *)
      invalid_arg "Qp.solve: c_eq without d_eq")
  | Some a, Some b ->
    assert (a.Mat.cols = n);
    assert (Array.length b = a.Mat.rows);
    solve_interior_point ~sp ~warm_start ~on_iteration ~tol:(Float.max tol 1e-12) ~max_iter
      ~fail_on_stall problem a b
  | Some _, None ->
    (* lint: allow R10 R11 -- mismatched optional-constraint pair is caller
       programmer error; the solver cascade builds matched pairs by
       construction, and lib/optimize sits below lib/robust *)
    invalid_arg "Qp.solve: a_ineq without b_ineq"

let solve ?warm_start ?on_iteration ?(tol = 1e-9) ?(max_iter = 100) ?(fail_on_stall = true)
    problem =
  Obs.Span.with_ "qp.solve" (fun sp ->
      Obs.Span.set_int sp "n" problem.h.Mat.rows;
      Obs.Span.set_int sp "m_ineq"
        (match problem.a_ineq with Some a -> a.Mat.rows | None -> 0);
      Obs.Span.set_int sp "m_eq" (match problem.c_eq with Some c -> c.Mat.rows | None -> 0);
      Obs.Span.set_bool sp "warm_start" (Option.is_some warm_start);
      if Option.is_some warm_start then Obs.Metrics.incr "qp.warm_starts";
      let sol = solve_dispatch ~sp ~warm_start ~on_iteration ~tol ~max_iter ~fail_on_stall problem in
      Obs.Span.set_int sp "iterations" sol.iterations;
      Obs.Span.set_int sp "active" (List.length sol.active);
      Obs.Span.set_float sp "kkt_residual" sol.kkt_residual;
      Obs.Span.set_str sp "status"
        (match sol.status with Converged -> "converged" | Stalled -> "stalled");
      Obs.Metrics.incr "qp.solves";
      Obs.Metrics.incr ~by:(float_of_int sol.iterations) "qp.iterations";
      Obs.Metrics.observe "qp.iterations_per_solve" (float_of_int sol.iterations);
      (* Separate distribution for warm-started solves: comparing its
         quantiles against qp.iterations_per_solve quantifies the
         iteration savings the spectral warm start buys. *)
      if Option.is_some warm_start then
        Obs.Metrics.observe "qp.warm_iterations_per_solve" (float_of_int sol.iterations);
      Obs.Metrics.observe "qp.active_constraints" (float_of_int (List.length sol.active));
      if Obs.Diag.enabled () then
        Obs.Diag.emit
          (Obs.Diag.make ~stage:"qp"
             ~values:
               [
                 ("n", float_of_int problem.h.Mat.rows);
                 ( "m_ineq",
                   float_of_int (match problem.a_ineq with Some a -> a.Mat.rows | None -> 0) );
                 ("iterations", float_of_int sol.iterations);
                 ("active", float_of_int (List.length sol.active));
                 ("kkt_residual", sol.kkt_residual);
               ]
             ~tags:
               [ ("status", match sol.status with Converged -> "converged" | Stalled -> "stalled") ]
             ());
      sol)
