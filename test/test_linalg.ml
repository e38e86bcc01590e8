open Numerics
open Testutil

let random_matrix rng n = Mat.init n n (fun _ _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0)

let random_spd rng n =
  let a = random_matrix rng n in
  Mat.add (Mat.gram a) (Mat.scale (0.1 *. float_of_int n) (Mat.identity n))

let test_solve_known () =
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
  let x = Linalg.solve a [| 5.0; 10.0 |] in
  check_vec ~tol:1e-12 "2x2 solve" [| 1.0; 3.0 |] x

let test_solve_roundtrip () =
  let rng = Rng.create 101 in
  for n = 1 to 8 do
    let a = random_matrix rng n in
    let x_true = Array.init n (fun i -> float_of_int (i + 1)) in
    let b = Mat.mv a x_true in
    let x = Linalg.solve a b in
    check_vec ~tol:1e-8 (Printf.sprintf "roundtrip n=%d" n) x_true x
  done

let test_solve_permuted () =
  (* Forces pivoting: zero on the initial diagonal. *)
  let a = Mat.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  check_vec ~tol:1e-12 "pivot solve" [| 2.0; 1.0 |] (Linalg.solve a [| 1.0; 2.0 |])

let test_singular_raises () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  Alcotest.check_raises "singular matrix" (Linalg.Singular "lu_factor: zero pivot") (fun () ->
      ignore (Linalg.solve a [| 1.0; 1.0 |]))

let test_inverse () =
  let rng = Rng.create 103 in
  let a = random_matrix rng 5 in
  let inv = Linalg.inverse a in
  check_true "A * inv(A) = I" (Mat.approx_equal ~tol:1e-8 (Mat.identity 5) (Mat.matmul a inv))

let test_det () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  check_close ~tol:1e-12 "det 2x2" (-2.0) (Linalg.det a);
  check_close ~tol:1e-12 "det identity" 1.0 (Linalg.det (Mat.identity 4));
  let singular = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
  check_close "det singular" 0.0 (Linalg.det singular)

let test_det_product () =
  let rng = Rng.create 107 in
  let a = random_matrix rng 4 and b = random_matrix rng 4 in
  check_rel ~tol:1e-9 "det(AB) = det(A)det(B)" (Linalg.det a *. Linalg.det b)
    (Linalg.det (Mat.matmul a b))

let test_cholesky () =
  let rng = Rng.create 109 in
  let a = random_spd rng 6 in
  let x_true = Array.init 6 (fun i -> Float.cos (float_of_int i)) in
  let b = Mat.mv a x_true in
  let factor = Linalg.cholesky_factor a in
  check_vec ~tol:1e-8 "cholesky solve" x_true (Linalg.cholesky_solve factor b)

let test_cholesky_rejects_indefinite () =
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  Alcotest.check_raises "indefinite rejected"
    (Linalg.Singular "cholesky_factor: non-positive pivot") (fun () ->
      ignore (Linalg.cholesky_factor a))

let test_solve_spd_fallback () =
  (* solve_spd falls back to LU for indefinite symmetric systems. *)
  let a = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  let x_true = [| 1.0; -1.0 |] in
  let b = Mat.mv a x_true in
  check_vec ~tol:1e-10 "solve_spd fallback" x_true (Linalg.solve_spd a b)

let test_qr_lstsq_exact () =
  (* Square full-rank: least squares equals exact solve. *)
  let rng = Rng.create 113 in
  let a = random_matrix rng 5 in
  let x_true = Array.init 5 (fun i -> float_of_int i -. 2.0) in
  let b = Mat.mv a x_true in
  check_vec ~tol:1e-8 "square lstsq" x_true (Linalg.qr_lstsq a b)

let test_qr_lstsq_overdetermined () =
  (* Fit a line to noisy points; compare with the normal-equation solution. *)
  let xs = Vec.linspace 0.0 1.0 20 in
  let a = Mat.init 20 2 (fun i j -> if j = 0 then 1.0 else xs.(i)) in
  let b = Array.map (fun x -> 2.0 +. (3.0 *. x)) xs in
  check_vec ~tol:1e-10 "exact line fit" [| 2.0; 3.0 |] (Linalg.qr_lstsq a b);
  (* Residual of the least-squares solution is orthogonal to the columns. *)
  let b_noisy = Array.mapi (fun i v -> v +. (0.1 *. Float.sin (float_of_int i))) b in
  let x = Linalg.qr_lstsq a b_noisy in
  let r = Vec.sub b_noisy (Mat.mv a x) in
  check_close ~tol:1e-10 "residual orthogonal col0" 0.0 (Vec.dot r (Mat.col a 0));
  check_close ~tol:1e-10 "residual orthogonal col1" 0.0 (Vec.dot r (Mat.col a 1))

let test_jacobi_eigen_known () =
  let a = Mat.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 2.0 |] |] in
  let values, vectors = Linalg.jacobi_eigen a in
  check_close ~tol:1e-10 "eigenvalue 3" 3.0 values.(0);
  check_close ~tol:1e-10 "eigenvalue 1" 1.0 values.(1);
  (* Eigenvector property: A v = lambda v. *)
  for k = 0 to 1 do
    let v = Mat.col vectors k in
    let av = Mat.mv a v in
    check_vec ~tol:1e-9 "eigenvector equation" (Vec.scale values.(k) v) av
  done

let test_jacobi_eigen_reconstruction () =
  let rng = Rng.create 127 in
  let a = random_spd rng 6 in
  let values, vectors = Linalg.jacobi_eigen a in
  (* Reconstruct V diag(values) Vt. *)
  let reconstructed = Mat.matmul vectors (Mat.matmul (Mat.diag values) (Mat.transpose vectors)) in
  check_true "eigen reconstruction" (Mat.approx_equal ~tol:1e-8 a reconstructed);
  (* Orthogonality of eigenvectors. *)
  check_true "orthonormal vectors"
    (Mat.approx_equal ~tol:1e-9 (Mat.identity 6) (Mat.matmul (Mat.transpose vectors) vectors))

let test_condition_spd () =
  let a = Mat.diag [| 100.0; 1.0 |] in
  check_rel ~tol:1e-9 "condition of diag" 100.0 (Linalg.condition_spd a);
  check_rel ~tol:1e-9 "condition of identity" 1.0 (Linalg.condition_spd (Mat.identity 3))

let test_solve_many () =
  let rng = Rng.create 131 in
  let a = random_matrix rng 4 in
  let x = Mat.init 4 3 (fun i j -> float_of_int ((i * 3) + j)) in
  let b = Mat.matmul a x in
  check_true "solve_many" (Mat.approx_equal ~tol:1e-8 x (Linalg.solve_many a b))

let prop_solve_residual =
  qcheck ~count:50 "LU solve residual" (QCheck2.Gen.int_range 1 8) (fun n ->
      let rng = Rng.create (n + 997) in
      let a = random_matrix rng n in
      let b = Array.init n (fun _ -> Rng.uniform rng ~lo:(-5.0) ~hi:5.0) in
      match Linalg.solve a b with
      | x -> Vec.norm_inf (Vec.sub (Mat.mv a x) b) < 1e-6
      | exception Linalg.Singular _ -> true)

(* --- Bit identity of the direct-indexed kernels against Qp_reference --- *)

module Ref = Qp_reference.Linalg

let bits v = Array.map Int64.bits_of_float v
let check_bits msg expected actual = Alcotest.(check (array int64)) msg (bits expected) (bits actual)

(* Pivots on every column: the largest entry of each column sits below the
   diagonal, and the diagonal starts at zero. *)
let pivoting_matrix () =
  let rng = Rng.create 211 in
  let n = 7 in
  Mat.init n n (fun i j ->
      if i = j then 0.0
      else if i = (j + 3) mod n then 10.0 +. Rng.uniform rng ~lo:0.0 ~hi:1.0
      else Rng.uniform rng ~lo:(-1.0) ~hi:1.0)

let rhs_for n = Array.init n (fun i -> Float.sin (float_of_int (i + 1)))

let test_lu_bits_pivoting () =
  let a = pivoting_matrix () in
  let n = a.Mat.rows in
  let b = rhs_for n in
  let expected = Ref.lu_factor a in
  check_true "reference pivots" (expected.Ref.pivots <> Array.init n (fun i -> i));
  check_bits "lu_factor/lu_solve" (Ref.lu_solve expected b) (Linalg.lu_solve (Linalg.lu_factor a) b);
  check_bits "solve" (Ref.solve a b) (Linalg.solve a b);
  let ref_det =
    let acc = ref expected.Ref.sign in
    for i = 0 to n - 1 do
      acc := !acc *. Mat.get expected.Ref.lu i i
    done;
    !acc
  in
  check_bits "det" [| ref_det |] [| Linalg.det a |];
  (* The in-place kernels on caller storage: same factors, same pivots. *)
  let lu = Mat.copy a and pivots = Array.make n (-1) in
  let sign = Linalg.lu_factor_in_place lu pivots in
  check_bits "in-place factors" expected.Ref.lu.Mat.data lu.Mat.data;
  Alcotest.(check (array int)) "in-place pivots" expected.Ref.pivots pivots;
  check_bits "in-place sign" [| expected.Ref.sign |] [| sign |];
  let x = Array.make n Float.nan in
  Linalg.lu_solve_into lu pivots b x;
  check_bits "lu_solve_into" (Ref.lu_solve expected b) x

let test_lu_bits_singular () =
  let a = Mat.of_rows [| [| 1.0; 2.0; 3.0 |]; [| 2.0; 4.0; 6.0 |]; [| 0.0; 1.0; 1.0 |] |] in
  let message f = match f () with _ -> None | exception Linalg.Singular m -> Some m in
  let expected = message (fun () -> Ref.lu_factor a) in
  check_true "reference raises Singular" (Option.is_some expected);
  Alcotest.(check (option string)) "lu_factor" expected (message (fun () -> Linalg.lu_factor a));
  Alcotest.(check (option string))
    "lu_factor_in_place" expected
    (message (fun () -> Linalg.lu_factor_in_place (Mat.copy a) (Array.make 3 0)))

let test_cholesky_bits () =
  let rng = Rng.create 223 in
  let a = random_spd rng 8 in
  let b = rhs_for 8 in
  let expected = Ref.cholesky_factor a in
  let l = Linalg.cholesky_factor a in
  check_bits "cholesky_solve" (Ref.cholesky_solve expected b) (Linalg.cholesky_solve l b);
  let ref_log_det =
    let acc = ref 0.0 in
    for i = 0 to 7 do
      acc := !acc +. (2.0 *. log (Mat.get expected i i))
    done;
    !acc
  in
  check_bits "log det" [| ref_log_det |] [| Linalg.cholesky_log_det l |];
  check_bits "solve_spd" (Ref.solve_spd a b) (Linalg.solve_spd a b);
  let indefinite = Mat.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 1.0 |] |] in
  let message f = match f () with _ -> None | exception Linalg.Singular m -> Some m in
  Alcotest.(check (option string))
    "non-positive pivot"
    (message (fun () -> Ref.cholesky_factor indefinite))
    (message (fun () -> Linalg.cholesky_factor indefinite))

(* solve_spd_into falls back to LU on a non-positive Cholesky pivot; the
   result must not depend on what the scratch buffers held before. *)
let test_solve_spd_fallback_bits () =
  let a = Mat.of_rows [| [| 1.0; 2.0; 0.5 |]; [| 2.0; 1.0; -1.0 |]; [| 0.5; -1.0; 3.0 |] |] in
  let b = rhs_for 3 in
  check_true "reference Cholesky fails"
    (match Ref.cholesky_factor a with _ -> false | exception Linalg.Singular _ -> true);
  let expected = Ref.solve_spd a b in
  check_bits "solve_spd fallback" expected (Linalg.solve_spd a b);
  let scratch = Mat.make 3 3 Float.nan and pivots = Array.make 3 7 in
  let x = Array.make 3 Float.infinity in
  Linalg.solve_spd_into a ~scratch ~pivots b x;
  check_bits "solve_spd_into fallback, dirty scratch" expected x;
  let spd = random_spd (Rng.create 227) 3 in
  Linalg.solve_spd_into spd ~scratch ~pivots b x;
  check_bits "solve_spd_into Cholesky after fallback" (Ref.solve_spd spd b) x

let tests =
  [
    ( "linalg",
      [
        case "solve known 2x2" test_solve_known;
        case "solve roundtrip" test_solve_roundtrip;
        case "solve with pivoting" test_solve_permuted;
        case "singular raises" test_singular_raises;
        case "inverse" test_inverse;
        case "determinant" test_det;
        case "determinant multiplicativity" test_det_product;
        case "cholesky solve" test_cholesky;
        case "cholesky rejects indefinite" test_cholesky_rejects_indefinite;
        case "solve_spd fallback" test_solve_spd_fallback;
        case "qr lstsq square" test_qr_lstsq_exact;
        case "qr lstsq overdetermined" test_qr_lstsq_overdetermined;
        case "jacobi eigen 2x2" test_jacobi_eigen_known;
        case "jacobi eigen reconstruction" test_jacobi_eigen_reconstruction;
        case "condition number" test_condition_spd;
        case "solve many" test_solve_many;
        prop_solve_residual;
        case "bit-identical: LU with pivoting" test_lu_bits_pivoting;
        case "bit-identical: LU singular" test_lu_bits_singular;
        case "bit-identical: Cholesky and solve_spd" test_cholesky_bits;
        case "bit-identical: solve_spd fallback" test_solve_spd_fallback_bits;
      ] );
  ]
