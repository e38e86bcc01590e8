(* Shared helpers for the test suites. *)

let check_float ?(tol = 1e-9) msg expected actual =
  Alcotest.(check (float tol)) msg expected actual

let check_close ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %g)" msg expected actual tol

let check_rel ?(tol = 1e-6) msg expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > tol *. scale then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel tol %g)" msg expected actual tol

let check_true msg condition = Alcotest.(check bool) msg true condition

let check_vec ?(tol = 1e-9) msg expected actual =
  if not (Numerics.Vec.approx_equal ~tol expected actual) then
    Alcotest.failf "%s: vectors differ (tol %g):@ expected %s@ got %s" msg tol
      (Format.asprintf "%a" Numerics.Vec.pp expected)
      (Format.asprintf "%a" Numerics.Vec.pp actual)

let case name f = Alcotest.test_case name `Quick f

let qcheck ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Finite-difference derivative check helpers. *)
let fd_deriv f x h = (f (x +. h) -. f (x -. h)) /. (2.0 *. h)

let fd_deriv2 f x h = (f (x +. h) -. (2.0 *. f x) +. f (x -. h)) /. (h *. h)

(* Inputs for the bit-identity tests of the blocked dense kernels: values
   in [-1, 1] from [seed], one in five an exact 0.0 or -0.0 and, when
   [nonfinite], one in six an inf, -inf or NaN. Each NaN carries its own
   payload: when two NaNs meet in a product or a sum the result keeps one
   of them, chosen by operand order, so only a kernel that keeps the
   order keeps the bits. *)
let kernel_input ?(nonfinite = false) seed len =
  let rng = Numerics.Rng.create seed in
  Array.init len (fun k ->
      let u = Numerics.Rng.uniform rng ~lo:0.0 ~hi:1.0 in
      let v = Numerics.Rng.uniform rng ~lo:(-1.0) ~hi:1.0 in
      if u < 0.1 then 0.0
      else if u < 0.2 then -0.0
      else if nonfinite && u < 0.3 then
        Int64.float_of_bits (Int64.logor 0x7FF8_0000_0000_0000L (Int64.of_int ((seed * 1000) + k + 1)))
      else if nonfinite && u < 0.37 then if v < 0.0 then Float.neg_infinity else Float.infinity
      else v)

let check_bits msg expected actual =
  Alcotest.(check (array int64)) msg
    (Array.map Int64.bits_of_float expected)
    (Array.map Int64.bits_of_float actual)

(* Words the calling domain allocates while [f] runs, less the cost of
   the measurement itself, so a kernel that allocates nothing reads 0. *)
let words_allocated f =
  let during g =
    let before = Obs.Resource.minor_words () in
    g ();
    Obs.Resource.minor_words () -. before
  in
  during f -. during ignore
