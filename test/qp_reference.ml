(* Verbatim copies of the dense kernels and the interior-point loop as they
   were before the QP moved to a per-solve workspace: every pass built
   fresh vectors, a fresh reduced matrix and a fresh KKT matrix, and the
   factorizations went through Mat.get/Mat.set. The bit-identity tests in
   test_qp.ml and test_linalg.ml hold the in-place versions to these,
   field by field.

   Telemetry (spans, the on_iteration hook) is left out: it never touched
   the arithmetic. Helpers whose library implementation changed along with
   the loop (mv, tmv, norm_inf, max_abs) are copied too, so the reference
   does not drift with the code it checks. *)

open Numerics

let norm_inf x = Array.fold_left (fun acc xi -> Float.max acc (Float.abs xi)) 0.0 x
let max_abs (m : Mat.t) = Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 m.Mat.data

let mv (a : Mat.t) x =
  assert (a.Mat.cols = Array.length x);
  Array.init a.Mat.rows (fun i ->
      let acc = ref 0.0 in
      let base = i * a.Mat.cols in
      for j = 0 to a.Mat.cols - 1 do
        acc := !acc +. (a.Mat.data.(base + j) *. x.(j))
      done;
      !acc)

let tmv (a : Mat.t) x =
  assert (a.Mat.rows = Array.length x);
  let y = Array.make a.Mat.cols 0.0 in
  for i = 0 to a.Mat.rows - 1 do
    let base = i * a.Mat.cols in
    let xi = x.(i) in
    if not (Float.equal xi 0.0) then
      for j = 0 to a.Mat.cols - 1 do
        y.(j) <- y.(j) +. (a.Mat.data.(base + j) *. xi)
      done
  done;
  y

module Linalg = struct
  exception Singular = Linalg.Singular

  type lu = { lu : Mat.t; pivots : int array; sign : float }

  let lu_factor a =
    let n, m = Mat.dims a in
    assert (n = m);
    let lu = Mat.copy a in
    let pivots = Array.init n (fun i -> i) in
    let sign = ref 1.0 in
    for k = 0 to n - 1 do
      let pivot_row = ref k in
      for i = k + 1 to n - 1 do
        if Float.abs (Mat.get lu i k) > Float.abs (Mat.get lu !pivot_row k) then pivot_row := i
      done;
      if !pivot_row <> k then begin
        let tmp = Mat.row lu k in
        Mat.set_row lu k (Mat.row lu !pivot_row);
        Mat.set_row lu !pivot_row tmp;
        let tp = pivots.(k) in
        pivots.(k) <- pivots.(!pivot_row);
        pivots.(!pivot_row) <- tp;
        sign := -. !sign
      end;
      let pivot = Mat.get lu k k in
      if Float.equal pivot 0.0 then raise (Singular "lu_factor: zero pivot");
      for i = k + 1 to n - 1 do
        let factor = Mat.get lu i k /. pivot in
        Mat.set lu i k factor;
        if not (Float.equal factor 0.0) then
          for j = k + 1 to n - 1 do
            Mat.set lu i j (Mat.get lu i j -. (factor *. Mat.get lu k j))
          done
      done
    done;
    { lu; pivots; sign = !sign }

  let lu_solve { lu; pivots; _ } b =
    let n = lu.Mat.rows in
    assert (Array.length b = n);
    let x = Array.init n (fun i -> b.(pivots.(i))) in
    for i = 1 to n - 1 do
      let acc = ref x.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (Mat.get lu i j *. x.(j))
      done;
      x.(i) <- !acc
    done;
    for i = n - 1 downto 0 do
      let acc = ref x.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (Mat.get lu i j *. x.(j))
      done;
      x.(i) <- !acc /. Mat.get lu i i
    done;
    x

  let solve a b = lu_solve (lu_factor a) b

  let cholesky_factor a =
    let n, m = Mat.dims a in
    assert (n = m);
    let l = Mat.zeros n n in
    for i = 0 to n - 1 do
      for j = 0 to i do
        let acc = ref (Mat.get a i j) in
        for k = 0 to j - 1 do
          acc := !acc -. (Mat.get l i k *. Mat.get l j k)
        done;
        if i = j then begin
          if !acc <= 0.0 then raise (Singular "cholesky_factor: non-positive pivot");
          Mat.set l i i (sqrt !acc)
        end
        else Mat.set l i j (!acc /. Mat.get l j j)
      done
    done;
    l

  let cholesky_solve l b =
    let n = l.Mat.rows in
    assert (Array.length b = n);
    let y = Array.copy b in
    for i = 0 to n - 1 do
      let acc = ref y.(i) in
      for j = 0 to i - 1 do
        acc := !acc -. (Mat.get l i j *. y.(j))
      done;
      y.(i) <- !acc /. Mat.get l i i
    done;
    for i = n - 1 downto 0 do
      let acc = ref y.(i) in
      for j = i + 1 to n - 1 do
        acc := !acc -. (Mat.get l j i *. y.(j))
      done;
      y.(i) <- !acc /. Mat.get l i i
    done;
    y

  let solve_spd a b =
    match cholesky_factor a with
    | l -> cholesky_solve l b
    | exception Singular _ -> solve a b

  let solve_sym_indefinite a b = solve a b
end

open Optimize.Qp

let solve_equality h g ~c ~d =
  let n = h.Mat.rows in
  let m = c.Mat.rows in
  assert (c.Mat.cols = n);
  assert (Array.length d = m);
  let kkt = Mat.zeros (n + m) (n + m) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Mat.set kkt i j (Mat.get h i j)
    done
  done;
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Mat.set kkt (n + i) j (Mat.get c i j);
      Mat.set kkt j (n + i) (Mat.get c i j)
    done
  done;
  let rhs = Array.init (n + m) (fun i -> if i < n then -.g.(i) else d.(i - n)) in
  let sol = Linalg.solve_sym_indefinite kkt rhs in
  (Array.sub sol 0 n, Array.sub sol n m)

let stationarity_residual problem x nu z =
  let r = Vec.add (mv problem.h x) problem.g in
  (match problem.c_eq with Some c -> Vec.axpy (-1.0) (tmv c nu) r | None -> ());
  (match problem.a_ineq with Some a -> Vec.axpy (-1.0) (tmv a z) r | None -> ());
  let scale = Float.max 1.0 (Float.max (norm_inf problem.g) (max_abs problem.h)) in
  norm_inf r /. scale

let solve_interior_point ~warm_start ~tol ~max_iter ~fail_on_stall problem a b =
  let n = problem.h.Mat.rows in
  let m_ineq = a.Mat.rows in
  let n_eq = match problem.c_eq with Some c -> c.Mat.rows | None -> 0 in
  let d_eq = match problem.d_eq with Some d -> d | None -> [||] in
  let x = ref (Vec.zeros n) in
  let y = ref (Vec.zeros n_eq) in
  let s = ref (Vec.ones m_ineq) in
  let z = ref (Vec.ones m_ineq) in
  (match warm_start with
  | None -> ()
  | Some w ->
    assert (Array.length w.x0 = n);
    let ax = mv a w.x0 in
    let hint_scale = Float.max 1.0 (Float.max (norm_inf b) (norm_inf ax)) in
    let violation = ref 0.0 in
    for i = 0 to m_ineq - 1 do
      violation := Float.max !violation (b.(i) -. ax.(i))
    done;
    if !violation <= 0.1 *. hint_scale then begin
      x := Vec.copy w.x0;
      let slack_floor = 1e-2 *. hint_scale in
      let mu0 = 1e-1 in
      for i = 0 to m_ineq - 1 do
        !s.(i) <- Float.max (ax.(i) -. b.(i)) slack_floor;
        !z.(i) <- mu0 /. !s.(i)
      done;
      List.iter
        (fun i -> if i >= 0 && i < m_ineq then !z.(i) <- Float.max !z.(i) 1.0)
        w.active0
    end);
  let mf = float_of_int m_ineq in
  let duality_gap () = Vec.dot !s !z /. mf in
  let residuals () =
    let r_dual = Vec.add (mv problem.h !x) problem.g in
    (match problem.c_eq with Some c -> Vec.axpy (-1.0) (tmv c !y) r_dual | None -> ());
    Vec.axpy (-1.0) (tmv a !z) r_dual;
    let r_eq =
      match problem.c_eq with
      | Some c -> Vec.sub (mv c !x) d_eq
      | None -> [||]
    in
    let r_ineq = Vec.sub (Vec.sub (mv a !x) !s) b in
    (r_dual, r_eq, r_ineq)
  in
  let scale =
    Float.max 1.0
      (Float.max (norm_inf problem.g) (Float.max (max_abs problem.h) (norm_inf b)))
  in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    let r_dual, r_eq, r_ineq = residuals () in
    let mu = duality_gap () in
    if
      mu < tol *. scale
      && norm_inf r_dual < tol *. scale
      && (n_eq = 0 || norm_inf r_eq < tol *. scale)
      && norm_inf r_ineq < tol *. scale
    then converged := true
    else begin
      let sigma = if norm_inf r_ineq < 1e-8 *. scale then 0.1 else 0.3 in
      let s_inv_z = Array.init m_ineq (fun i -> !z.(i) /. !s.(i)) in
      let h_aug = Mat.copy problem.h in
      for i = 0 to m_ineq - 1 do
        let row = Mat.row a i in
        let w = s_inv_z.(i) in
        for p = 0 to n - 1 do
          if not (Float.equal row.(p) 0.0) then
            for q = 0 to n - 1 do
              Mat.set h_aug p q (Mat.get h_aug p q +. (w *. row.(p) *. row.(q)))
            done
        done
      done;
      let rhs_extra =
        let v =
          Array.init m_ineq (fun i ->
              (sigma *. mu /. !s.(i)) -. !z.(i) -. (s_inv_z.(i) *. r_ineq.(i)))
        in
        tmv a v
      in
      let rhs_x = Vec.add (Vec.neg r_dual) rhs_extra in
      let dx, dy =
        match problem.c_eq with
        | None -> (Linalg.solve_spd h_aug rhs_x, [||])
        | Some c ->
          let dx, multipliers = solve_equality h_aug (Vec.neg rhs_x) ~c ~d:(Vec.neg r_eq) in
          (dx, Vec.neg multipliers)
      in
      let ds = Vec.add (mv a dx) r_ineq in
      let dz =
        Array.init m_ineq (fun i ->
            ((sigma *. mu) -. (!z.(i) *. !s.(i)) -. (!z.(i) *. ds.(i))) /. !s.(i))
      in
      let step_for v dv =
        let alpha = ref 1.0 in
        for i = 0 to Array.length v - 1 do
          if dv.(i) < 0.0 then alpha := Float.min !alpha (-0.995 *. v.(i) /. dv.(i))
        done;
        !alpha
      in
      let alpha_p = step_for !s ds in
      let alpha_d = step_for !z dz in
      Vec.axpy alpha_p dx !x;
      (match problem.c_eq with
      | Some _ -> Vec.axpy alpha_d dy !y
      | None -> ());
      Vec.axpy alpha_p ds !s;
      Vec.axpy alpha_d dz !z
    end
  done;
  if (not !converged) && fail_on_stall then
    raise (Infeasible "Qp.solve: interior-point iteration limit");
  let active =
    let threshold = sqrt tol *. Float.max 1.0 (norm_inf !s) in
    List.filter (fun i -> !s.(i) < threshold) (List.init m_ineq (fun i -> i))
  in
  {
    x = !x;
    active;
    iterations = !iterations;
    kkt_residual = stationarity_residual problem !x !y !z;
    status = (if !converged then Converged else Stalled);
  }

(* [Qp.solve]'s defaults and tolerance clamp, inequality problems only. *)
let solve ?warm_start ?(tol = 1e-9) ?(max_iter = 100) ?(fail_on_stall = true) problem =
  match (problem.a_ineq, problem.b_ineq) with
  | Some a, Some b ->
    solve_interior_point ~warm_start ~tol:(Float.max tol 1e-12) ~max_iter ~fail_on_stall problem
      a b
  | _ -> invalid_arg "Qp_reference.solve: inequality problems only"

(* The reduced-matrix accumulation H + Σᵢ wᵢ aᵢaᵢᵀ as the workspace loop
   did it before the kernel was register-blocked: H copied in, then rows
   of A outermost, a load and a store of h_aug per multiply-add. The
   blocked [Qp.reduced_into] is held to it bit for bit; [mv] and [tmv]
   above play the same part for the blocked [Mat.mv_into] and
   [Mat.tmv_into]. *)
let reduced_into ~(h : Mat.t) ~(a : Mat.t) ~w (h_aug : Mat.t) =
  let n = h.Mat.rows and m_ineq = a.Mat.rows in
  let hd = h_aug.Mat.data and ad = a.Mat.data in
  Array.blit h.Mat.data 0 hd 0 (n * n);
  for i = 0 to m_ineq - 1 do
    let w = w.(i) and base = i * n in
    for p = 0 to n - 1 do
      let a_ip = ad.(base + p) in
      if not (Float.equal a_ip 0.0) then begin
        let w_a_ip = w *. a_ip and prow = p * n in
        for q = 0 to n - 1 do
          hd.(prow + q) <- hd.(prow + q) +. (w_a_ip *. ad.(base + q))
        done
      end
    done
  done
