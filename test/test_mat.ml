open Numerics
open Testutil

let m22 a b c d = Mat.of_rows [| [| a; b |]; [| c; d |] |]

let check_mat ?(tol = 1e-9) msg expected actual =
  if not (Mat.approx_equal ~tol expected actual) then
    Alcotest.failf "%s: matrices differ:@ expected@ %a got@ %a" msg Mat.pp expected Mat.pp actual

let test_constructors () =
  let i3 = Mat.identity 3 in
  check_close "identity diag" 1.0 (Mat.get i3 1 1);
  check_close "identity off-diag" 0.0 (Mat.get i3 0 2);
  let d = Mat.diag [| 1.0; 2.0 |] in
  check_mat "diag" (m22 1.0 0.0 0.0 2.0) d;
  let init = Mat.init 2 3 (fun i j -> float_of_int ((10 * i) + j)) in
  check_close "init layout" 12.0 (Mat.get init 1 2)

let test_rows_cols () =
  let m = Mat.init 3 2 (fun i j -> float_of_int ((10 * i) + j)) in
  check_vec "row" [| 10.0; 11.0 |] (Mat.row m 1);
  check_vec "col" [| 1.0; 11.0; 21.0 |] (Mat.col m 1);
  Mat.set_row m 0 [| 5.0; 6.0 |];
  check_vec "set_row" [| 5.0; 6.0 |] (Mat.row m 0);
  Mat.set_col m 0 [| 7.0; 8.0; 9.0 |];
  check_vec "set_col" [| 7.0; 8.0; 9.0 |] (Mat.col m 0)

let test_transpose_involution () =
  let m = Mat.init 3 4 (fun i j -> float_of_int ((i * 7) + j)) in
  check_mat "transpose twice" m (Mat.transpose (Mat.transpose m))

let test_matmul () =
  let a = m22 1.0 2.0 3.0 4.0 in
  let b = m22 5.0 6.0 7.0 8.0 in
  check_mat "matmul known" (m22 19.0 22.0 43.0 50.0) (Mat.matmul a b);
  check_mat "identity neutral" a (Mat.matmul a (Mat.identity 2));
  (* Associativity on small random matrices. *)
  let rng = Rng.create 9 in
  let rand r c = Mat.init r c (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
  let x = rand 3 4 and y = rand 4 2 and z = rand 2 5 in
  check_mat ~tol:1e-9 "associativity" (Mat.matmul (Mat.matmul x y) z) (Mat.matmul x (Mat.matmul y z))

let test_mv_tmv () =
  let a = Mat.init 3 2 (fun i j -> float_of_int (i + j)) in
  let x = [| 1.0; 2.0 |] in
  check_vec "mv" [| 2.0; 5.0; 8.0 |] (Mat.mv a x);
  let y = [| 1.0; 1.0; 1.0 |] in
  check_vec "tmv = transpose mv" (Mat.mv (Mat.transpose a) y) (Mat.tmv a y)

let test_gram () =
  let rng = Rng.create 13 in
  let a = Mat.init 5 3 (fun _ _ -> Rng.uniform rng ~lo:(-2.0) ~hi:2.0) in
  check_mat ~tol:1e-12 "gram = AtA" (Mat.matmul (Mat.transpose a) a) (Mat.gram a);
  check_true "gram symmetric" (Mat.is_symmetric (Mat.gram a))

let test_trace_frobenius () =
  let a = m22 1.0 2.0 3.0 4.0 in
  check_close "trace" 5.0 (Mat.trace a);
  check_close "frobenius" (sqrt 30.0) (Mat.frobenius a);
  check_close "max_abs" 4.0 (Mat.max_abs a)

let test_hcat_vcat () =
  let a = m22 1.0 2.0 3.0 4.0 in
  let b = m22 5.0 6.0 7.0 8.0 in
  let h = Mat.hcat a b in
  Alcotest.(check (pair int int)) "hcat dims" (2, 4) (Mat.dims h);
  check_vec "hcat row" [| 1.0; 2.0; 5.0; 6.0 |] (Mat.row h 0);
  let v = Mat.vcat a b in
  Alcotest.(check (pair int int)) "vcat dims" (4, 2) (Mat.dims v);
  check_vec "vcat col" [| 1.0; 3.0; 5.0; 7.0 |] (Mat.col v 0)

let test_add_sub_scale_map () =
  let a = m22 1.0 2.0 3.0 4.0 in
  check_mat "add" (Mat.scale 2.0 a) (Mat.add a a);
  check_mat "sub" (Mat.zeros 2 2) (Mat.sub a a);
  check_mat "map" (m22 1.0 4.0 9.0 16.0) (Mat.map (fun x -> x *. x) a)

let prop_transpose_matmul =
  qcheck ~count:50 "(AB)t = Bt At"
    QCheck2.Gen.(pair (int_range 1 5) (int_range 1 5))
    (fun (r, c) ->
      let rng = Rng.create ((r * 100) + c) in
      let a = Mat.init r c (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let b = Mat.init c r (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      Mat.approx_equal ~tol:1e-9
        (Mat.transpose (Mat.matmul a b))
        (Mat.matmul (Mat.transpose b) (Mat.transpose a)))

let prop_mv_linearity =
  qcheck ~count:50 "A(x+y) = Ax + Ay" (QCheck2.Gen.int_range 1 6) (fun n ->
      let rng = Rng.create (n * 31) in
      let a = Mat.init n n (fun _ _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let x = Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      let y = Array.init n (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
      Vec.approx_equal ~tol:1e-9 (Mat.mv a (Vec.add x y)) (Vec.add (Mat.mv a x) (Mat.mv a y)))

(* --- Blocked products: bit identity and allocation --- *)

(* [mv_into] takes rows four at a time and [tmv_into] columns six at a
   time; these shapes give every tail: no full block, one block plus a
   remainder, exact multiples and a block shifted back over the previous
   one. Each product is compared bit for bit with the one-row and
   row-outer loops kept in Qp_reference, on finite inputs and on inputs with inf
   and NaN in both A and x: NaN payloads only survive if the operand
   order does, and a_ij·0 is only non-zero for a non-finite a_ij, so
   that is where a dropped x_i = 0 skip shows. *)
let block_sizes = [ 1; 2; 5; 7; 12; 13 ]
let row_counts = [ 0; 1; 3; 203 ]

let test_blocked_products_bits () =
  List.iter
    (fun (rows, cols) ->
      List.iter
        (fun nonfinite ->
          let name what = Printf.sprintf "%s %dx%d%s" what rows cols (if nonfinite then " inf/nan" else "") in
          let a = { Mat.rows; cols; data = kernel_input ~nonfinite (rows + (31 * cols)) (rows * cols) } in
          let x = kernel_input ~nonfinite (cols + 7) cols in
          let y = Array.make rows Float.nan in
          Mat.mv_into a x y;
          check_bits (name "mv_into") (Qp_reference.mv a x) y;
          check_bits (name "mv") (Qp_reference.mv a x) (Mat.mv a x);
          let x = kernel_input ~nonfinite (rows + 11) rows in
          let y = Array.make cols Float.nan in
          Mat.tmv_into a x y;
          check_bits (name "tmv_into") (Qp_reference.tmv a x) y;
          check_bits (name "tmv") (Qp_reference.tmv a x) (Mat.tmv a x))
        [ false; true ])
    (List.concat_map
       (fun m -> List.concat_map (fun n -> [ (m, n); (n, m) ]) block_sizes)
       row_counts)

(* The blocked products keep their sums in registers: a call allocates
   nothing, also on a shape with a shifted last block and a row tail. *)
let test_blocked_products_allocate_nothing () =
  List.iter
    (fun (rows, cols) ->
      let a = { Mat.rows; cols; data = kernel_input 3 (rows * cols) } in
      let x = kernel_input 4 cols and xt = kernel_input 5 rows in
      let y = Array.make rows 0.0 and yt = Array.make cols 0.0 in
      let name what = Printf.sprintf "%s %dx%d words" what rows cols in
      Alcotest.(check (float 0.0)) (name "mv_into") 0.0
        (words_allocated (fun () -> for _ = 1 to 10 do Mat.mv_into a x y done));
      Alcotest.(check (float 0.0)) (name "tmv_into") 0.0
        (words_allocated (fun () -> for _ = 1 to 10 do Mat.tmv_into a xt yt done)))
    [ (203, 12); (203, 13); (13, 5) ]

let tests =
  [
    ( "mat",
      [
        case "constructors" test_constructors;
        case "rows and cols" test_rows_cols;
        case "transpose involution" test_transpose_involution;
        case "matmul" test_matmul;
        case "mv and tmv" test_mv_tmv;
        case "gram" test_gram;
        case "trace frobenius max_abs" test_trace_frobenius;
        case "hcat vcat" test_hcat_vcat;
        case "add sub scale map" test_add_sub_scale_map;
        prop_transpose_matmul;
        prop_mv_linearity;
        case "bit-identical: blocked mv/tmv, every tail" test_blocked_products_bits;
        case "blocked mv/tmv allocate nothing" test_blocked_products_allocate_nothing;
      ] );
  ]
