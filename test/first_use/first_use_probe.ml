(* Releases two pool domains at once, behind a spin barrier, into the
   first use of shared module-level values — Lambda.select over the
   default λ grid, then Special.erf's quadrature nodes — and exits 1 if
   either domain raised or the two disagree. A suspension forced by two
   domains at once makes one of them raise CamlinternalLazy.Undefined.
   Nothing before a race may touch the value it races on. *)

open Numerics

let race pool name f =
  let arrived = Atomic.make 0 in
  (* The submitting domain blocks in the barrier inside its own chunk, so
     the second chunk is necessarily claimed by the worker domain. *)
  let results =
    Parallel.Pool.parallel_map_result pool ~chunk:1 ~n:2 (fun _ ->
        Atomic.incr arrived;
        while Atomic.get arrived < 2 do
          Domain.cpu_relax ()
        done;
        f ())
  in
  match results with
  | [| Ok a; Ok b |] when Float.equal a b -> true
  | _ ->
    Array.iter
      (function
        | Ok v -> Printf.printf "%s: ok %h\n" name v
        | Error e -> Printf.printf "%s: raised %s\n" name (Printexc.to_string e))
      results;
    false

let () =
  let params = Cellpop.Params.paper_2011 in
  let times = [| 0.0; 30.0; 60.0; 90.0; 120.0; 150.0 |] in
  let kernel = Cellpop.Kernel.estimate params ~rng:(Rng.create 5) ~n_cells:300 ~times ~n_phi:41 in
  let basis = Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:8 in
  let measurements =
    Deconv.Forward.apply_fn kernel (fun phi -> 1.0 +. Float.sin (6.0 *. phi))
  in
  let problem = Deconv.Problem.create ~kernel ~basis ~measurements ~params () in
  let pool = Parallel.Pool.create ~domains:2 in
  let lambda_ok =
    race pool "Lambda.select" (fun () -> Deconv.Lambda.select problem ~method_:`Gcv ())
  in
  let erf_ok = race pool "Special.erf" (fun () -> Special.erf 0.5) in
  Parallel.Pool.shutdown pool;
  exit (if lambda_ok && erf_ok then 0 else 1)
