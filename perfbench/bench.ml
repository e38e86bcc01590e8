(* The deconvolution benchmark: three closed-loop workloads over the
   estimator of paper eq. 5, one client each, in one process.

   Every run makes its inputs from the workload seed outside the timed
   region — Gaussian-pulse gene profiles pushed through a data kernel of
   their own, plus 5% Gaussian noise — and hands the library only the
   measurement vectors. Every estimate is checked against the profile that
   generated its data. The last line of stdout is the result object that
   run.py passes on; the human-readable report goes to stderr. See
   README.md for what each metric means and which layer it tracks. *)

open Numerics

(* ---------------- shape ---------------- *)

type shape = {
  cells : int;  (** founder cells per inversion kernel (CLI default) *)
  data_cells : int;  (** founder cells of the data kernel *)
  phi_bins : int;
  knots : int;
  requests_panel : int;  (** distinct measurement vectors [deconvolve] cycles through *)
  genes_per_call : int;  (** genes per [Batch.solve_all_result] call *)
  batch_panels : int;  (** distinct gene panels [batch] cycles through *)
  bootstrap_genes : int;  (** point fits [bootstrap] cycles its band jobs over *)
  replicates : int;  (** bootstrap replicates per band job *)
  min_units : int;
      (** requests and band jobs every loop completes whatever [--seconds]
          says: at least 100, so that ten samples lie beyond p90 *)
  min_batch_calls : int;  (** the same for batch calls *)
  setup_reps : int;
  setup_min_s : float;
      (** a run sets up at least [setup_reps] times and for at least
          [setup_min_s]; [setup_s] is the median *)
}

let full =
  {
    cells = 4000;
    data_cells = 8000;
    phi_bins = 201;
    knots = 12;
    requests_panel = 800;
    (* The CLI's [batch --genes] default. *)
    genes_per_call = 200;
    batch_panels = 8;
    bootstrap_genes = 256;
    (* A tenth of the library's default of 200, so that a 30 s run holds
       the 256 band jobs the recovery median needs and 100 latency
       samples; README.md gives what the smaller job costs per replicate. *)
    replicates = 20;
    min_units = 100;
    min_batch_calls = 20;
    setup_reps = 3;
    setup_min_s = 0.5;
  }

(* For the benchmark's own test: every code path, in well under a second. *)
let tiny =
  {
    cells = 300;
    data_cells = 600;
    phi_bins = 41;
    knots = 8;
    requests_panel = 10;
    genes_per_call = 4;
    batch_panels = 2;
    bootstrap_genes = 2;
    replicates = 10;
    min_units = 12;
    min_batch_calls = 3;
    setup_reps = 2;
    setup_min_s = 0.0;
  }

let params = Cellpop.Params.paper_2011
let times = Dataio.Datasets.lv_measurement_times
let smooth_window = 5

(* ---------------- inputs ---------------- *)

type gene = { truth : Vec.t; measurements : Vec.t }

(* The data kernel stands in for the true population. Its seed is fixed
   and shared with no kernel the estimator builds, so the estimator never
   inverts the exact operator that made its data, and the workload seed
   varies the genes and the noise, not the population. *)
let data_kernel_seed = 20110101

(* One value per gene from [lo, hi): gene k gets its own stratum of the
   range, in a seed-shuffled order, at a seed-drawn point within it. *)
let strata rng n ~lo ~hi =
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  Array.map
    (fun k -> lo +. ((hi -. lo) *. ((float_of_int k +. Rng.float rng) /. float_of_int n)))
    order

(* Pulses over the ranges of the CLI's synthetic batch panel, as a Latin
   hypercube: every seed gives a panel with the same spread of centers,
   widths and heights, so the recovery median moves with the estimator
   rather than with the luck of the draw. *)
let make_genes shape rng ~n =
  let data_kernel =
    Cellpop.Kernel.estimate ~smooth_window params ~rng:(Rng.create data_kernel_seed)
      ~n_cells:shape.data_cells ~times ~n_phi:shape.phi_bins
  in
  let centers = strata rng n ~lo:0.15 ~hi:0.85 in
  let widths = strata rng n ~lo:0.08 ~hi:0.15 in
  let heights = strata rng n ~lo:1.0 ~hi:4.0 in
  Array.init n (fun k ->
      let center = centers.(k) and width = widths.(k) and height = heights.(k) in
      let f = Biomodels.Gene_profile.gaussian_pulse ~center ~width ~height () in
      let clean = Deconv.Forward.apply_fn data_kernel f in
      let measurements, _sigmas =
        Deconv.Noise.apply (Deconv.Noise.Gaussian_fraction 0.05) (Rng.split rng) clean
      in
      { truth = Array.map f data_kernel.Cellpop.Kernel.phases; measurements })

(* The estimator's own seed for operation [i]: distinct per operation, so
   no two operations of a run ask for the same kernel or resampling
   stream; set-up uses negative [i]. It does not depend on the workload
   seed, which makes inputs only: across seeds, the recovery figures
   differ by the genes, not by Monte Carlo error in the kernels. *)
let op_seed i = 1_000_003 + i

(* ---------------- correctness ---------------- *)

type checker = {
  mutable in_loop : bool;  (** failures count against [failed] only in a timed loop *)
  mutable failed : int;  (** operations failed in timed loops *)
  mutable recording : bool;
      (** recovery is sampled from the untraced loop's first pass over the
          workload's distinct genes, each gene once *)
  mutable recovery : float list;
  mutable problems : string list;  (** the first few, newest first *)
  mutable n_problems : int;
  mutable corrupt_next : bool;  (** test hook: poison the next estimate checked *)
}

let complain chk msg =
  chk.n_problems <- chk.n_problems + 1;
  if chk.n_problems <= 5 then chk.problems <- msg :: chk.problems

(* [finite] covers the parts of the estimate other than [profile]. *)
let check chk ~truth ~finite profile =
  let profile =
    if not chk.corrupt_next then profile
    else begin
      chk.corrupt_next <- false;
      let p = Array.copy profile in
      p.(Array.length p / 2) <- Float.nan;
      p
    end
  in
  if not (finite && Array.for_all Float.is_finite profile) then
    complain chk "non-finite estimate"
  else if chk.recording then chk.recovery <- Stats.nrmse truth profile :: chk.recovery

(* No workload injects faults, so every failure counts against [failed],
   fails the run, and the unit it belongs to misses every latency limit. *)
let fail chk what err =
  if chk.in_loop then chk.failed <- chk.failed + 1;
  complain chk (Printf.sprintf "%s failed: %s" what (Robust.Error.to_string err))

(* ---------------- workloads ---------------- *)

(* Benchmark-owned span around one public call into the library. *)
let span name f = Obs.Span.with_ name (fun _ -> f ())

let basis shape =
  Spline.Natural.with_uniform_knots ~lo:0.0 ~hi:1.0 ~num_knots:shape.knots

let kernel shape rng =
  span "bench.kernel.estimate" (fun () ->
      Cellpop.Kernel.estimate ~smooth_window params ~rng ~n_cells:shape.cells ~times
        ~n_phi:shape.phi_bins)

(* What [deconv-cli deconvolve] does once it has a kernel: problem, input
   repair, GCV on the repaired problem, robust solve of the original.
   Returns the repaired problem, which is what the CLI bootstraps. *)
let fit ~kernel ~basis ~measurements ~rng =
  let problem =
    span "bench.problem.create" (fun () ->
        Deconv.Problem.create ~kernel ~basis ~measurements ~params ())
  in
  let repaired, _ =
    span "bench.solver.repair_problem" (fun () -> Deconv.Solver.repair_problem problem)
  in
  match
    span "bench.lambda.select_result" (fun () ->
        Deconv.Lambda.select_result repaired ~method_:`Gcv ~rng ())
  with
  | Error e -> Error e
  | Ok lambda -> (
    match
      span "bench.solver.solve_robust" (fun () -> Deconv.Solver.solve_robust ~lambda problem)
    with
    | Error e -> Error e
    | Ok (estimate, _report) -> Ok (repaired, estimate))

(* A workload is a set-up, run [setup_reps] times and timed, returning the
   timed unit: unit index -> operations it completed. Its first
   [first_pass] units meet every distinct gene once, and every loop runs at
   least [min_units] units. A [parallel] workload
   runs on [min 2 nproc] domains, the others on one. *)
type workload = {
  op_name : string;
  first_pass : int;
  min_units : int;
  parallel : bool;
  setup : int -> int -> int;
}

let check_estimate chk ~truth (est : Deconv.Solver.estimate) =
  check chk ~truth ~finite:(Deconv.Solver.finite_estimate est) est.Deconv.Solver.profile

(* One request = one operation, with a fresh inversion kernel each. One
   interactive client runs on one domain: on a shared two-vCPU machine, a
   request that fans its kernel out to a second domain spread its p90
   latency ten times as much between runs. *)
let deconvolve shape ~seed chk =
  let genes = make_genes shape (Rng.create seed) ~n:shape.requests_panel in
  let request basis ~gene i =
    span "bench.request" (fun () ->
        let rng = Rng.create (op_seed i) in
        let kernel = kernel shape (Rng.split rng) in
        match fit ~kernel ~basis ~measurements:gene.measurements ~rng:(Rng.split rng) with
        | Ok (_, est) -> check_estimate chk ~truth:gene.truth est
        | Error e -> fail chk "request" e);
    1
  in
  let setup rep =
    let basis = basis shape in
    (* The first request of a process pays one-off costs (lazily built
       tables) that later requests do not. *)
    ignore (request basis ~gene:genes.(0) (-1 - rep));
    fun i -> request basis ~gene:genes.(i mod Array.length genes) i
  in
  {
    op_name = "request";
    first_pass = shape.requests_panel;
    min_units = shape.min_units;
    parallel = false;
    setup;
  }

(* One call = a panel of genes sharing one kernel; one gene = one
   operation. *)
let batch shape ~seed chk =
  let n = shape.genes_per_call in
  let genes = make_genes shape (Rng.create seed) ~n:(shape.batch_panels * n) in
  let panels = Array.init shape.batch_panels (fun p -> Array.sub genes (p * n) n) in
  let matrices =
    Array.map (fun panel -> Mat.of_rows (Array.map (fun g -> g.measurements) panel)) panels
  in
  let setup _rep =
    let basis = basis shape in
    let kernel = kernel shape (Rng.create (op_seed (-1))) in
    let model =
      span "bench.batch.prepare" (fun () -> Deconv.Batch.prepare ~kernel ~basis ~params ())
    in
    (* One gene on this domain before any fan-out, as the other workloads
       warm up: it also builds the library's lazily built tables here,
       because two pool domains forcing one [lazy] at once makes one of
       them raise [CamlinternalLazy.Undefined] and fail its gene. *)
    (match
       span "bench.batch.solve_gene_result" (fun () ->
           Deconv.Batch.solve_gene_result model ~lambda:`Gcv
             ~measurements:panels.(0).(0).measurements ())
     with
    | Ok est -> check_estimate chk ~truth:panels.(0).(0).truth est
    | Error e -> fail chk "warm-up gene" e);
    fun i ->
      let p = i mod shape.batch_panels in
      let outcome =
        span "bench.batch.solve_all_result" (fun () ->
            Deconv.Batch.solve_all_result model ~lambda:`Gcv ~measurements:matrices.(p) ())
      in
      Array.iteri
        (fun g -> function
          | Ok est -> check_estimate chk ~truth:panels.(p).(g).truth est
          | Error e -> fail chk (Printf.sprintf "call %d gene %d" i g) e)
        outcome.Deconv.Batch.Outcome.outcomes;
      n
  in
  {
    op_name = "gene";
    first_pass = shape.batch_panels;
    min_units = shape.min_batch_calls;
    parallel = true;
    setup;
  }

(* One band job = [replicates] re-solves at the point fit's λ; one
   replicate = one operation. *)
let bootstrap shape ~seed chk =
  let genes = make_genes shape (Rng.create seed) ~n:shape.bootstrap_genes in
  let setup _rep =
    let basis = basis shape in
    let rng = Rng.create (op_seed (-1)) in
    let kernel = kernel shape (Rng.split rng) in
    let fits =
      Array.map
        (fun gene ->
          match fit ~kernel ~basis ~measurements:gene.measurements ~rng:(Rng.split rng) with
          | Ok (problem, est) ->
            check_estimate chk ~truth:gene.truth est;
            (gene, problem, est)
          | Error e -> failwith ("bootstrap point fit: " ^ Robust.Error.to_string e))
        genes
    in
    fun j ->
      let gene, problem, est = fits.(j mod Array.length fits) in
      let outcome =
        span "bench.bootstrap.residual_result" (fun () ->
            Deconv.Bootstrap.residual_result ~replicates:shape.replicates ~level:0.9 problem est
              ~rng:(Rng.create (op_seed j)))
      in
      List.iter
        (fun (b, e) ->
          fail chk
            (Printf.sprintf "band job %d (gene %d) replicate %d" j (j mod Array.length fits) b)
            e)
        outcome.Deconv.Bootstrap.failures;
      (match outcome.Deconv.Bootstrap.bands with
      | None -> ()
      | Some bands ->
        let finite v = Array.for_all Float.is_finite v in
        check chk ~truth:gene.truth
          ~finite:(finite bands.Deconv.Bootstrap.lower && finite bands.Deconv.Bootstrap.upper)
          bands.Deconv.Bootstrap.median);
      outcome.Deconv.Bootstrap.attempted
  in
  {
    op_name = "replicate";
    first_pass = shape.bootstrap_genes;
    min_units = shape.min_units;
    parallel = true;
    setup;
  }

(* ---------------- timing ---------------- *)

let now = Obs.Clock.now

type sample = { ops : int; failed : int; wall_s : float }

(* No loop may run longer than this, whatever [min_units] asks, so a run
   always ends within the time the caller allows. *)
let loop_limit_s = 60.0

let timed_loop (chk : checker) ~seconds ~min_units ?(before = fun _ -> ()) ?(after = fun _ -> ()) run_unit =
  let t0 = now () in
  let elapsed () = now () -. t0 in
  let samples = ref [] in
  let i = ref 0 in
  while (!i < min_units || elapsed () < seconds) && elapsed () < loop_limit_s do
    before !i;
    let failed0 = chk.failed in
    let start = now () in
    let ops = run_unit !i in
    let wall_s = now () -. start in
    samples := { ops; failed = chk.failed - failed0; wall_s } :: !samples;
    after !i;
    incr i
  done;
  Array.of_list (List.rev !samples)

let resource name = Option.value ~default:0.0 (List.assoc_opt name (Obs.Resource.read ()))
let total_ops samples = Array.fold_left (fun n s -> n + s.ops) 0 samples

(* Unit wall times, with a unit that lost an operation counted as missing
   every latency limit. *)
let latencies samples =
  Array.map (fun s -> if s.failed > 0 then Float.infinity else s.wall_s) samples

(* Nearest-rank percentile: total over infinite entries. *)
let percentile xs q =
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* ---------------- the run ---------------- *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
              (if Float.is_finite m.value then Printf.sprintf "%.17g" m.value else "null")
              m.unit_)
          metrics))

let output_metrics oc title metrics =
  Printf.fprintf oc "%s:\n" title;
  List.iter (fun m -> Printf.fprintf oc "  %-32s %14.6g %s\n" m.name m.value m.unit_) metrics

(* The per-layer metrics of README.md, from the traced loop ([loop]), the
   traced set-up ([setup], where batch and bootstrap build their kernel)
   and the untraced loop's GC readings. *)
let per_layer ~workload ~loop ~setup ~cells_simulated ~ops ~minor_words ~major_collections
    ~overhead =
  let open Layers in
  let ops = float_of_int ops in
  let per_op_us name = ratio (row loop name).total_s ops *. 1e6 in
  let kernels = if workload = "deconvolve" then loop else setup in
  let kernel = row kernels "kernel.estimate" in
  let per_kernel_ms v = ratio v (float_of_int kernel.calls) *. 1e3 in
  let calls name = float_of_int (row loop name).calls in
  let lookups = counter "spectral.cache_hits" +. counter "spectral.cache_misses" in
  let qp_solves = counter "qp.solves" in
  let constrained = (row loop "solver.constrained").total_s in
  let self_of_busy minus = ratio (loop.busy_s -. minus) ops *. 1e6 in
  [
    metric "cellpop.kernel_ms" "ms/kernel" (per_kernel_ms kernel.total_s);
    metric "cellpop.simulate_ms" "ms/kernel"
      (per_kernel_ms (row kernels "population.simulate").total_s);
    metric "cellpop.deposit_ms" "ms/kernel" (per_kernel_ms kernel.self_s);
    metric "cellpop.cells_simulated" "cells/kernel"
      (ratio cells_simulated (float_of_int kernel.calls));
    metric "problem.create_us" "us/op" (per_op_us "bench.problem.create");
    metric "lambda.select_us" "us/op" (per_op_us "lambda.select");
    metric "lambda.candidates_per_select" "count/select"
      (ratio (calls "lambda.candidate") (calls "lambda.select"));
    metric "spectral.factorize_us" "us/op" (per_op_us "spectral.factorize");
    metric "spectral.factorizations" "count/op" (ratio (counter "spectral.factorizations") ops);
    metric "spectral.cache_hit_ratio" "ratio" (ratio (counter "spectral.cache_hits") lookups);
    metric "solver.robust_us" "us/op" (per_op_us "solver.solve_robust");
    metric "solver.attempts_per_solve" "count/solve"
      (ratio (calls "solver.attempt") (calls "solver.solve_robust"));
    metric "solver.constrained_us" "us/op" (per_op_us "solver.constrained");
    metric "solver.constrained_self_us" "us/op"
      (ratio (row loop "solver.constrained").self_s ops *. 1e6);
    metric "qp.solve_us" "us/op" (per_op_us "qp.solve");
    metric "qp.iterations_per_solve" "count/solve" (ratio (counter "qp.iterations") qp_solves);
    metric "qp.warm_start_ratio" "ratio" (ratio (counter "qp.warm_starts") qp_solves);
    metric "batch.gene_self_us" "us/op"
      (if workload = "batch" then self_of_busy ((row loop "lambda.select").total_s +. constrained)
       else 0.0);
    metric "bootstrap.replicate_self_us" "us/op"
      (if workload = "bootstrap" then self_of_busy constrained else 0.0);
    metric "parallel.busy_fraction" "ratio" (median loop.busy_fractions);
    metric "parallel.imbalance" "ratio" (median loop.imbalances);
    metric "parallel.chunks" "count/op" (ratio (float_of_int loop.chunks) ops);
    metric "gc.minor_mwords_per_op" "Mwords/op" minor_words;
    metric "gc.major_collections_per_op" "count/op" major_collections;
    metric "obs.trace_overhead_frac" "ratio" overhead;
  ]

(* The traced half of a [--trace 1] run: one traced set-up, then a traced
   loop that drains the memory sink after every unit. Returns the traced
   loop's samples and its per-layer metrics. *)
let traced_run chk ~workload ~(w : workload) ~jobs ~seconds ~untraced_median ~gc =
  Obs.Metrics.enable ();
  Parallel.Probe.install Layers.chunk_probe;
  let drain = ref (fun () -> []) in
  let start_sink _ =
    let sink, events = Obs.Export.memory () in
    drain := events;
    Obs.Export.install sink
  in
  let stop_sink layers _ =
    Obs.Export.uninstall ();
    Layers.absorb layers (!drain ())
  in
  let setup = Layers.create ~jobs in
  Obs.Metrics.reset ();
  start_sink 0;
  let run_unit = w.setup 0 in
  stop_sink setup 0;
  let setup_cells = Layers.counter "population.cells_simulated" in
  Obs.Metrics.reset ();
  let loop = Layers.create ~jobs in
  chk.in_loop <- true;
  let samples =
    timed_loop chk ~seconds ~min_units:w.min_units ~before:start_sink ~after:(stop_sink loop)
      run_unit
  in
  Parallel.Probe.uninstall ();
  let ops = total_ops samples in
  let minor_words, major_collections = gc in
  let metrics =
    per_layer ~workload ~loop ~setup ~ops ~minor_words ~major_collections
      ~cells_simulated:
        (if workload = "deconvolve" then Layers.counter "population.cells_simulated"
         else setup_cells)
      ~overhead:(Stats.median (Array.map (fun s -> s.wall_s) samples) /. untraced_median -. 1.0)
  in
  Layers.output_report stderr setup ~title:"traced set-up spans" ~per:1 ~per_name:"set-up";
  Layers.output_report stderr loop ~title:"traced loop spans" ~per:ops ~per_name:w.op_name;
  (samples, metrics)

let run ~workload ~seed ~seconds ~trace ~shape ~corrupt ~max_nrmse =
  let chk =
    {
      in_loop = false;
      failed = 0;
      recording = false;
      recovery = [];
      problems = [];
      n_problems = 0;
      corrupt_next = corrupt;
    }
  in
  let nproc = Domain.recommended_domain_count () in
  let w =
    match workload with
    | "deconvolve" -> deconvolve shape ~seed chk
    | "batch" -> batch shape ~seed chk
    | "bootstrap" -> bootstrap shape ~seed chk
    | other -> invalid_arg ("unknown workload " ^ other)
  in
  let jobs = if w.parallel then min 2 nproc else 1 in
  Parallel.set_jobs jobs;
  let setup_times = ref [] in
  let run_unit = ref (fun _ -> 0) in
  let setup_start = now () in
  while List.length !setup_times < shape.setup_reps || now () -. setup_start < shape.setup_min_s do
    let start = now () in
    run_unit := w.setup (List.length !setup_times);
    setup_times := (now () -. start) :: !setup_times
  done;
  (* The untraced loop gives every end-to-end metric and the GC readings.
     In a traced run it takes a third of the time, as the base of the
     tracing overhead. *)
  let untraced_seconds = if trace then seconds /. 3.0 else seconds in
  let peak_rss = ref (resource "rss_bytes") in
  let minor0 = resource "minor_words" and major0 = resource "major_collections" in
  chk.in_loop <- true;
  let samples =
    timed_loop chk ~seconds:untraced_seconds ~min_units:(max w.min_units w.first_pass)
      ~before:(fun i -> chk.recording <- i < w.first_pass)
      ~after:(fun _ -> peak_rss := Float.max !peak_rss (resource "rss_bytes"))
      !run_unit
  in
  chk.recording <- false;
  chk.in_loop <- false;
  let ops = total_ops samples in
  let per_op v = v /. float_of_int ops in
  let gc =
    ( per_op ((resource "minor_words" -. minor0) /. 1e6),
      per_op (resource "major_collections" -. major0) )
  in
  let lat = latencies samples in
  let e2e =
    [
      metric "setup_s" "s" (Stats.median (Array.of_list !setup_times));
      (* Over the whole loop, not a median of per-unit rates: the machine
         the baseline was measured on switches between a fast and a slow
         speed every 10-20 s, and a median over units jumps between the two
         where this total moves with the share of time spent in each. *)
      metric "ops_per_s" "1/s"
        (float_of_int (ops - chk.failed)
        /. Array.fold_left (fun t s -> t +. s.wall_s) 0.0 samples);
      metric "latency_p50_ms" "ms" (1e3 *. percentile lat 0.5);
      metric "latency_p90_ms" "ms" (1e3 *. percentile lat 0.9);
      metric "recovery_nrmse_p50" "ratio"
        (match chk.recovery with [] -> Float.nan | l -> Stats.median (Array.of_list l));
      metric "rss_mb" "MB" (!peak_rss /. 1048576.0);
    ]
  in
  let traced_samples, layer_metrics =
    if not trace then ([||], [])
    else
      traced_run chk ~workload ~w ~jobs ~seconds:(seconds -. untraced_seconds)
        ~untraced_median:(Stats.median (Array.map (fun s -> s.wall_s) samples)) ~gc
  in
  let attempted = ops + total_ops traced_samples in
  List.iter
    (fun m ->
      if not (Float.is_finite m.value) then complain chk (m.name ^ " is not finite"))
    (e2e @ layer_metrics);
  let recovery = (List.hd (List.filter (fun m -> m.name = "recovery_nrmse_p50") e2e)).value in
  if recovery > max_nrmse then
    complain chk
      (Printf.sprintf "recovery_nrmse_p50 %.6g is over its bound %.6g" recovery max_nrmse);
  let correct = chk.n_problems = 0 in
  Printf.eprintf "workload %s, seed %d, jobs %d of nproc %d\n" workload seed jobs nproc;
  Printf.eprintf "untraced loop: %d %ss in %d units; %d units beyond p90\n" ops w.op_name
    (Array.length lat)
    (Array.length lat - int_of_float (Float.ceil (0.9 *. float_of_int (Array.length lat))));
  output_metrics stderr "end-to-end (untraced)" e2e;
  if trace then output_metrics stderr "per-layer (traced)" layer_metrics;
  Printf.eprintf "%d of %d operations failed\n" chk.failed attempted;
  List.iter (fun p -> Printf.eprintf "CHECK FAILED: %s\n" p) (List.rev chk.problems);
  if chk.n_problems > 5 then Printf.eprintf "... %d problems in all\n" chk.n_problems;
  print_endline
    (result_line ~correct ~attempted ~failed:chk.failed (if trace then layer_metrics else e2e));
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let size = ref "full" and corrupt = ref false and max_nrmse = ref Float.infinity in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME deconvolve | batch | bootstrap");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S time each run measures");
      ("--trace", Arg.Set_int trace, "0|1 per-layer (traced) run");
      ("--size", Arg.Set_string size, "full|tiny input shape (tiny is for the self-test)");
      ("--corrupt", Arg.Set corrupt, " poison one estimate (the checker must reject it)");
      ("--max-nrmse", Arg.Set_float max_nrmse, "X bound on recovery_nrmse_p50");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench [options]";
  let shape =
    match !size with
    | "full" -> full
    | "tiny" -> tiny
    | s -> raise (Arg.Bad ("unknown size " ^ s))
  in
  exit
    (run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~shape
       ~corrupt:!corrupt ~max_nrmse:!max_nrmse)
