open Numerics
open Testutil

let spd_2 = Mat.of_rows [| [| 2.0; 0.0 |]; [| 0.0; 2.0 |] |]

let test_unconstrained () =
  (* min x^2 + y^2 - 2x - 4y -> (1, 2). H = 2I, g = (-2, -4). *)
  let x = Optimize.Qp.unconstrained spd_2 [| -2.0; -4.0 |] in
  check_vec ~tol:1e-10 "unconstrained min" [| 1.0; 2.0 |] x

let test_equality_constrained () =
  (* min x^2 + y^2 s.t. x + y = 2 -> (1, 1). *)
  let c = Mat.of_rows [| [| 1.0; 1.0 |] |] in
  let x, multipliers = Optimize.Qp.solve_equality spd_2 [| 0.0; 0.0 |] ~c ~d:[| 2.0 |] in
  check_vec ~tol:1e-10 "equality min" [| 1.0; 1.0 |] x;
  Alcotest.(check int) "one multiplier" 1 (Array.length multipliers)

let test_solve_no_constraints () =
  let solution =
    Optimize.Qp.solve { h = spd_2; g = [| -2.0; -4.0 |]; c_eq = None; d_eq = None; a_ineq = None; b_ineq = None }
  in
  check_vec ~tol:1e-10 "solve without constraints" [| 1.0; 2.0 |] solution.Optimize.Qp.x;
  check_true "tiny KKT residual" (solution.Optimize.Qp.kkt_residual < 1e-8)

let test_solve_equality_only () =
  let c = Mat.of_rows [| [| 1.0; -1.0 |] |] in
  let solution =
    Optimize.Qp.solve
      { h = spd_2; g = [| -2.0; -4.0 |]; c_eq = Some c; d_eq = Some [| 0.0 |]; a_ineq = None; b_ineq = None }
  in
  (* min (x-1)^2 + (y-2)^2 s.t. x = y -> (1.5, 1.5). *)
  check_vec ~tol:1e-10 "equality-only" [| 1.5; 1.5 |] solution.Optimize.Qp.x

let test_inactive_inequality () =
  (* Constraint x >= 0 is inactive at the unconstrained optimum (1,2). *)
  let a = Mat.of_rows [| [| 1.0; 0.0 |] |] in
  let solution =
    Optimize.Qp.solve
      { h = spd_2; g = [| -2.0; -4.0 |]; c_eq = None; d_eq = None; a_ineq = Some a; b_ineq = Some [| 0.0 |] }
  in
  check_vec ~tol:1e-5 "inactive constraint ignored" [| 1.0; 2.0 |] solution.Optimize.Qp.x

let test_active_inequality () =
  (* min (x+1)^2 + (y-2)^2 s.t. x >= 0: optimum clamps to x = 0. *)
  let a = Mat.of_rows [| [| 1.0; 0.0 |] |] in
  let solution =
    Optimize.Qp.solve
      { h = spd_2; g = [| 2.0; -4.0 |]; c_eq = None; d_eq = None; a_ineq = Some a; b_ineq = Some [| 0.0 |] }
  in
  check_vec ~tol:1e-5 "clamped solution" [| 0.0; 2.0 |] solution.Optimize.Qp.x;
  check_true "constraint reported active" (List.mem 0 solution.Optimize.Qp.active)

let test_mixed_constraints () =
  (* min (x-2)^2 + (y-2)^2 s.t. x + y = 2 (equality), x >= 1.5 (ineq).
     Without the inequality: (1,1). With it: x = 1.5, y = 0.5. *)
  let c = Mat.of_rows [| [| 1.0; 1.0 |] |] in
  let a = Mat.of_rows [| [| 1.0; 0.0 |] |] in
  let solution =
    Optimize.Qp.solve
      {
        h = spd_2;
        g = [| -4.0; -4.0 |];
        c_eq = Some c;
        d_eq = Some [| 2.0 |];
        a_ineq = Some a;
        b_ineq = Some [| 1.5 |];
      }
  in
  check_vec ~tol:1e-5 "mixed constraints" [| 1.5; 0.5 |] solution.Optimize.Qp.x

let test_many_redundant_inequalities () =
  (* The positivity-on-a-grid pattern: many nearly identical rows. *)
  let n = 4 in
  let h = Mat.scale 2.0 (Mat.identity n) in
  let g = Array.init n (fun i -> if i = 0 then 4.0 else -2.0) in
  (* x_i >= 0 for all i, repeated three times each. *)
  let rows = Array.init (3 * n) (fun r -> Array.init n (fun j -> if j = r mod n then 1.0 else 0.0)) in
  let a = Mat.of_rows rows in
  let solution =
    Optimize.Qp.solve
      { h; g; c_eq = None; d_eq = None; a_ineq = Some a; b_ineq = Some (Vec.zeros (3 * n)) }
  in
  check_close ~tol:1e-5 "first coordinate clamped" 0.0 solution.Optimize.Qp.x.(0);
  for i = 1 to n - 1 do
    check_close ~tol:1e-5 "others at unconstrained optimum" 1.0 solution.Optimize.Qp.x.(i)
  done

let test_kkt_residual_small () =
  let rng = Rng.create 555 in
  let n = 6 in
  let base = Mat.init n n (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let h = Mat.add (Mat.gram base) (Mat.identity n) in
  let g = Array.init n (fun _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
  let a = Mat.identity n in
  let solution =
    Optimize.Qp.solve
      { h; g; c_eq = None; d_eq = None; a_ineq = Some a; b_ineq = Some (Vec.zeros n) }
  in
  check_true "KKT residual" (solution.Optimize.Qp.kkt_residual < 1e-6);
  Array.iter (fun xi -> check_true "feasible" (xi >= -1e-7)) solution.Optimize.Qp.x

let prop_ipm_matches_projection =
  (* For H = 2I, g = -2c, positivity x >= 0: solution is max(c, 0). *)
  qcheck ~count:50 "nonnegative projection"
    QCheck2.Gen.(array_size (int_range 1 6) (float_range (-3.0) 3.0))
    (fun c ->
      let n = Array.length c in
      let h = Mat.scale 2.0 (Mat.identity n) in
      let g = Vec.scale (-2.0) c in
      let solution =
        Optimize.Qp.solve
          { h; g; c_eq = None; d_eq = None; a_ineq = Some (Mat.identity n); b_ineq = Some (Vec.zeros n) }
      in
      let expected = Array.map (fun v -> Float.max v 0.0) c in
      Vec.approx_equal ~tol:1e-5 expected solution.Optimize.Qp.x)

(* --- Bit identity against the pre-workspace loop (Qp_reference) --- *)

(* The perfbench shape: a natural-spline basis with 12 knots on a 201-bin
   phase grid (203 positivity rows with the endpoints), 13 measurement
   times, and — when [equalities] — the 2 eq. 12-19 rows. The data are a
   Gaussian pulse pushed through the kernel, so positivity binds on the
   flat stretches. *)
let params = Cellpop.Params.paper_2011

let kernel =
  lazy
    (Cellpop.Kernel.estimate params ~rng:(Rng.create 14) ~n_cells:400
       ~times:Dataio.Datasets.lv_measurement_times ~n_phi:201)

let shaped_qp ?(lambda = 1e-4) ~basis ~equalities () =
  let kernel = Lazy.force kernel in
  let problem =
    Deconv.Problem.template ~use_conservation:equalities ~use_rate_continuity:equalities ~kernel
      ~basis ~params ()
  in
  let pulse = Biomodels.Gene_profile.gaussian_pulse ~center:0.4 ~width:0.08 ~height:3.0 () in
  let measurements = Deconv.Forward.apply_fn kernel pulse in
  let problem = Deconv.Problem.with_data problem measurements in
  let a = Deconv.Problem.design problem and w = Deconv.Problem.weights problem in
  let normal =
    Optimize.Ridge.normal_matrix ~a ~weights:w ~penalty:(Deconv.Problem.penalty problem) ~lambda
  in
  let zeros = Option.map (fun (c : Mat.t) -> Vec.zeros c.Mat.rows) in
  let c_eq = problem.Deconv.Problem.equality_rows in
  let a_ineq = problem.Deconv.Problem.positivity_rows in
  {
    Optimize.Qp.h = Mat.scale 2.0 normal;
    g = Vec.scale (-2.0) (Mat.tmv a (Vec.mul w measurements));
    c_eq;
    d_eq = zeros c_eq;
    a_ineq;
    b_ineq = zeros a_ineq;
  }

let natural12 = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:12
let perf_qp = lazy (shaped_qp ~basis:natural12 ~equalities:true ())
let perf_qp_no_eq = lazy (shaped_qp ~basis:natural12 ~equalities:false ())

let bspline_qp =
  lazy (shaped_qp ~basis:(Spline.Bspline.create ~lo:0.0 ~hi:1.0 ~num_basis:12) ~equalities:true ())

let bits = Int64.bits_of_float

let positivity_rows (qp : Optimize.Qp.problem) =
  match qp.Optimize.Qp.a_ineq with
  | Some a -> a
  | None -> Alcotest.fail "expected positivity rows"

let check_same_bits name (expected : Optimize.Qp.solution) (actual : Optimize.Qp.solution) =
  let open Optimize.Qp in
  Alcotest.(check (array int64)) (name ^ ": x") (Array.map bits expected.x) (Array.map bits actual.x);
  Alcotest.(check (list int)) (name ^ ": active") expected.active actual.active;
  Alcotest.(check int) (name ^ ": iterations") expected.iterations actual.iterations;
  Alcotest.(check int64) (name ^ ": kkt_residual") (bits expected.kkt_residual)
    (bits actual.kkt_residual);
  check_true (name ^ ": status") (expected.status = actual.status)

(* Runs both solvers with the same options; an [Infeasible] from one must
   be an [Infeasible] with the same message from the other. *)
let check_matches_reference ?warm_start ?max_iter ?fail_on_stall name qp =
  let run f = match f () with sol -> Ok sol | exception Optimize.Qp.Infeasible msg -> Error msg in
  let expected = run (fun () -> Qp_reference.solve ?warm_start ?max_iter ?fail_on_stall qp) in
  let actual = run (fun () -> Optimize.Qp.solve ?warm_start ?max_iter ?fail_on_stall qp) in
  match (expected, actual) with
  | Ok e, Ok a ->
    check_same_bits name e a;
    e
  | Error e, Error a ->
    Alcotest.(check string) (name ^ ": Infeasible message") e a;
    Alcotest.failf "%s: both raised Infeasible; expected a solution" name
  | Ok _, Error msg -> Alcotest.failf "%s: reference solved, workspace loop raised %s" name msg
  | Error msg, Ok _ -> Alcotest.failf "%s: reference raised %s, workspace loop solved" name msg

let test_bits_perf_shape () =
  let qp = Lazy.force perf_qp in
  let cold = check_matches_reference "cold" qp in
  check_true "cold solve converged" (cold.Optimize.Qp.status = Optimize.Qp.Converged);
  check_true "positivity binds" (cold.Optimize.Qp.active <> []);
  (* Warm starts: the unconstrained minimizer (the spectral hint's shape),
     and the cold solution with its active set, which also exercises the
     active0 dual floor. *)
  let x0 = Optimize.Qp.unconstrained qp.Optimize.Qp.h qp.Optimize.Qp.g in
  ignore (check_matches_reference ~warm_start:{ Optimize.Qp.x0; active0 = [] } "warm" qp);
  let hint = { Optimize.Qp.x0 = cold.Optimize.Qp.x; active0 = cold.Optimize.Qp.active } in
  let warm = check_matches_reference ~warm_start:hint "warm from solution" qp in
  check_true "hint adopted (fewer passes than cold)"
    (warm.Optimize.Qp.iterations < cold.Optimize.Qp.iterations)

let test_bits_no_equalities () =
  let qp = Lazy.force perf_qp_no_eq in
  check_true "no equality rows" (Option.is_none qp.Optimize.Qp.c_eq);
  ignore (check_matches_reference "solve_spd path" qp)

let test_bits_zero_skip () =
  let qp = Lazy.force bspline_qp in
  let a = positivity_rows qp in
  check_true "B-spline rows have exact zeros"
    (Array.exists (fun v -> Float.equal v 0.0) a.Mat.data);
  ignore (check_matches_reference "B-spline" qp)

let test_bits_iteration_cap () =
  let qp = Lazy.force perf_qp in
  let stalled = check_matches_reference ~max_iter:3 ~fail_on_stall:false "capped" qp in
  check_true "capped solve stalls" (stalled.Optimize.Qp.status = Optimize.Qp.Stalled);
  let raised solve =
    match solve () with
    | _ -> None
    | exception Optimize.Qp.Infeasible msg -> Some msg
  in
  let expected = raised (fun () -> Qp_reference.solve ~max_iter:3 ~fail_on_stall:true qp) in
  let actual = raised (fun () -> Optimize.Qp.solve ~max_iter:3 ~fail_on_stall:true qp) in
  check_true "reference raises Infeasible" (Option.is_some expected);
  Alcotest.(check (option string)) "same Infeasible" expected actual

(* --- The reduced-matrix kernel --- *)

(* [Qp.reduced_into] walks 2 × 6 register blocks; n covers no full block
   (1, 2, 5), a shifted last block in both directions (7, 13) and exact
   multiples (12), and m an empty, a single and a short A as well as the
   perfbench row count. A has exact 0.0 and -0.0 entries, which both skip
   a row; A and the weights are finite, or both carry inf and NaN so that
   NaNs of two payloads meet in one product or sum. The reference is the
   row-outer loop. *)
let test_reduced_bits () =
  List.iter
    (fun n ->
      List.iter
        (fun m ->
          List.iter
            (fun nonfinite ->
              let name =
                Printf.sprintf "reduced n=%d m=%d%s" n m (if nonfinite then " inf/nan" else "")
              in
              let h = { Mat.rows = n; cols = n; data = kernel_input (n + 1) (n * n) } in
              let a = { Mat.rows = m; cols = n; data = kernel_input ~nonfinite (m + (17 * n)) (m * n) } in
              let w = kernel_input ~nonfinite (m + 3) m in
              let expected = Mat.zeros n n and actual = Mat.make n n Float.nan in
              Qp_reference.reduced_into ~h ~a ~w expected;
              Optimize.Qp.reduced_into ~h ~a ~w actual;
              check_bits name expected.Mat.data actual.Mat.data)
            [ false; true ])
        [ 0; 1; 3; 203 ])
    [ 1; 2; 5; 7; 12; 13 ]

(* Sparse A: a pair of rows (p, p+1) of the reduced matrix visits only
   the rows of A between its first and last nonzero in column p or p+1,
   and takes the row-outer loop when there are at most two. The patterns
   cover an identity (the grid solver's A, two rows per pair), bands of
   width 1-4 (around that cut-over), pairs of all-zero columns (no rows),
   nonzeros only in the first and last row (zero rows in the middle of
   the range) and a single dense row. Zeros alternate between 0.0 and
   -0.0; the values and weights are finite, or carry inf and NaN. *)
let test_reduced_sparse_bits () =
  let patterns =
    List.map (fun n -> (Printf.sprintf "identity %d" n, n, n, fun i j -> i = j)) [ 6; 7; 12; 13; 201 ]
    @ List.map
        (fun k -> (Printf.sprintf "band %d" k, 13, 13, fun i j -> j >= i && j < i + k))
        [ 1; 2; 3; 4 ]
    @ [
        ("band 3, n=40", 40, 38, fun i j -> j >= i && j < i + 3);
        ("zero column pairs", 13, 30, fun _ j -> j <> 2 && j <> 3 && j < 11);
        ("first and last row", 12, 9, fun i _ -> i = 0 || i = 8);
        ("one dense row", 7, 1, fun _ _ -> true);
      ]
  in
  List.iter
    (fun (pattern, n, m, nonzero) ->
      List.iter
        (fun nonfinite ->
          let name = Printf.sprintf "reduced %s%s" pattern (if nonfinite then " inf/nan" else "") in
          let values = kernel_input ~nonfinite (m + (17 * n)) (m * n) in
          let a =
            Mat.init m n (fun i j ->
                if nonzero i j then values.((i * n) + j) else if (i + j) mod 2 = 0 then 0.0 else -0.0)
          in
          let h = { Mat.rows = n; cols = n; data = kernel_input (n + 1) (n * n) } in
          let w = kernel_input ~nonfinite (m + 3) m in
          let expected = Mat.zeros n n and actual = Mat.make n n Float.nan in
          Qp_reference.reduced_into ~h ~a ~w expected;
          Optimize.Qp.reduced_into ~h ~a ~w actual;
          check_bits name expected.Mat.data actual.Mat.data)
        [ false; true ])
    patterns

(* The kernel keeps its twelve sums in registers and loads inline: a call
   allocates nothing (a float-returning helper for the loads would box one
   float per multiply-add). *)
let test_reduced_allocates_nothing () =
  List.iter
    (fun (n, m) ->
      let h = { Mat.rows = n; cols = n; data = kernel_input 1 (n * n) } in
      let a = { Mat.rows = m; cols = n; data = kernel_input 2 (m * n) } in
      let w = kernel_input 3 m and h_aug = Mat.zeros n n in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "reduced_into n=%d m=%d words" n m)
        0.0
        (words_allocated (fun () -> for _ = 1 to 10 do Optimize.Qp.reduced_into ~h ~a ~w h_aug done)))
    [ (12, 203); (13, 203); (5, 203) ];
  let n = 201 in
  let h = { Mat.rows = n; cols = n; data = kernel_input 1 (n * n) } in
  let a = Mat.identity n and w = kernel_input 3 n and h_aug = Mat.zeros n n in
  Alcotest.(check (float 0.0)) "reduced_into identity n=201 words" 0.0
    (words_allocated (fun () -> for _ = 1 to 10 do Optimize.Qp.reduced_into ~h ~a ~w h_aug done))

(* --- Allocation guard --- *)

(* A pass of the interior-point loop writes into buffers allocated once per
   solve, so the words it allocates must not scale with m_ineq × n: the
   old loop copied H, every inequality row and a fresh KKT matrix each
   pass, about 100× the bound below. Measured as the difference between
   two iteration caps on the same unconverged solve, so the once-per-solve
   buffers cancel. *)
let words_at_cap qp cap =
  let before = Obs.Resource.minor_words () in
  let sol = Optimize.Qp.solve ~max_iter:cap ~fail_on_stall:false qp in
  let after = Obs.Resource.minor_words () in
  Alcotest.(check int) "ran to the cap" cap sol.Optimize.Qp.iterations;
  after -. before

let check_per_iteration_words name qp =
  let n = qp.Optimize.Qp.h.Mat.rows in
  let m_ineq = (positivity_rows qp).Mat.rows in
  let lo = 2 and hi = 10 in
  ignore (words_at_cap qp hi);
  let per_pass = (words_at_cap qp hi -. words_at_cap qp lo) /. float_of_int (hi - lo) in
  let bound = float_of_int (n + m_ineq) in
  if per_pass > bound then
    Alcotest.failf "%s: %.0f words per extra pass, bound %.0f (n + m_ineq)" name per_pass bound

let test_no_per_iteration_allocation () =
  check_per_iteration_words "with equalities" (Lazy.force perf_qp);
  check_per_iteration_words "without equalities" (Lazy.force perf_qp_no_eq)

let tests =
  [
    ( "qp",
      [
        case "unconstrained" test_unconstrained;
        case "equality constrained" test_equality_constrained;
        case "solve without constraints" test_solve_no_constraints;
        case "solve equality only" test_solve_equality_only;
        case "inactive inequality" test_inactive_inequality;
        case "active inequality" test_active_inequality;
        case "mixed constraints" test_mixed_constraints;
        case "redundant inequality grid" test_many_redundant_inequalities;
        case "kkt residual and feasibility" test_kkt_residual_small;
        prop_ipm_matches_projection;
        case "bit-identical: perfbench shape, cold and warm" test_bits_perf_shape;
        case "bit-identical: no equality rows" test_bits_no_equalities;
        case "bit-identical: zero entries in A" test_bits_zero_skip;
        case "bit-identical: iteration cap" test_bits_iteration_cap;
        case "no per-iteration allocation" test_no_per_iteration_allocation;
        case "bit-identical: reduced matrix, every tail" test_reduced_bits;
        case "bit-identical: reduced matrix, sparse A" test_reduced_sparse_bits;
        case "reduced matrix allocates nothing" test_reduced_allocates_nothing;
      ] );
  ]
