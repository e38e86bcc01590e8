(* Per-layer accounting for the traced run.

   Spans come from two sources: the library's own ([kernel.estimate],
   [lambda.select], [solver.constrained], [qp.solve], ...) and the
   benchmark's ([bench.*]), which wrap each public call the benchmark makes.
   Pool chunks come from a [Parallel.Probe]. Events are drained after every
   timed unit, so a long run keeps only running totals in memory. *)

type row = { mutable calls : int; mutable total_s : float; mutable self_s : float }

type t = {
  jobs : int;
  rows : (string, row) Hashtbl.t;
  mutable busy_s : float;  (** summed wall time of pool chunks *)
  mutable chunks : int;  (** pool chunks *)
  mutable busy_fractions : float list;  (** one per unit that fanned out *)
  mutable imbalances : float list;
}

let create ~jobs =
  {
    jobs;
    rows = Hashtbl.create 32;
    busy_s = 0.0;
    chunks = 0;
    busy_fractions = [];
    imbalances = [];
  }

(* The same shape as the CLI's chunk probe: one sample per executed chunk,
   through the active sink, a no-op when no sink is installed. *)
let chunk_probe =
  {
    Parallel.Probe.now = Obs.Clock.now;
    record =
      (fun ~domain ~lo ~hi ~start_s ~stop_s ->
        Obs.Export.emit
          (Obs.Export.Sample
             {
               Obs.Export.s_kind = "chunk";
               t_s = stop_s;
               values =
                 [
                   ("domain", float_of_int domain);
                   ("lo", float_of_int lo);
                   ("hi", float_of_int hi);
                   ("start", start_s);
                   ("stop", stop_s);
                 ];
             }));
  }

let absorb t events =
  List.iter
    (fun (name, calls, total_s, self_s) ->
      let r =
        match Hashtbl.find_opt t.rows name with
        | Some r -> r
        | None ->
          let r = { calls = 0; total_s = 0.0; self_s = 0.0 } in
          Hashtbl.replace t.rows name r;
          r
      in
      r.calls <- r.calls + calls;
      r.total_s <- r.total_s +. total_s;
      r.self_s <- r.self_s +. self_s)
    (Obs.Export.aggregate_span_rows events);
  match Obs.Utilization.of_chunks (Obs.Utilization.chunks_of_events events) with
  | None -> ()
  | Some report ->
    let busy =
      List.fold_left
        (fun acc (d : Obs.Utilization.domain_stat) -> acc +. d.busy_s)
        0.0 report.domains
    in
    t.busy_s <- t.busy_s +. busy;
    t.chunks <- t.chunks + report.chunk_count;
    if report.span_s > 0.0 then
      t.busy_fractions <- (busy /. (float_of_int t.jobs *. report.span_s)) :: t.busy_fractions;
    t.imbalances <- report.imbalance :: t.imbalances

let row t name =
  match Hashtbl.find_opt t.rows name with
  | Some r -> r
  | None -> { calls = 0; total_s = 0.0; self_s = 0.0 }

let counter name =
  List.fold_left
    (fun acc (s : Obs.Metrics.snapshot) ->
      if s.name = name && s.kind = Obs.Metrics.Counter then
        acc +. Option.value ~default:0.0 (List.assoc_opt "value" s.fields)
      else acc)
    0.0 (Obs.Metrics.snapshot ())

(* [num / den], or 0 when the layer did no work on this path. *)
let ratio num den = if den > 0.0 then num /. den else 0.0

let median = function [] -> 0.0 | l -> Numerics.Stats.median (Array.of_list l)

(* The flat span table, per operation: calls, total and self time. A span
   with children whose self time is still more than half its total spends
   most of its time in code no child span names — unattributed time to
   split out next. Leaf spans are all self time by definition and are not
   flagged. *)
let output_report oc t ~title ~per ~per_name =
  let rows = Hashtbl.fold (fun name r acc -> (name, r) :: acc) t.rows [] in
  let rows = List.sort (fun (_, a) (_, b) -> compare b.total_s a.total_s) rows in
  Printf.fprintf oc "%s, per %s (%d %ss):\n" title per_name per per_name;
  Printf.fprintf oc "  %-34s %10s %12s %12s %6s\n" "span" "calls" "total_us" "self_us" "self%";
  let per = float_of_int (max 1 per) in
  List.iter
    (fun (name, r) ->
      let share = ratio r.self_s r.total_s in
      Printf.fprintf oc "  %-34s %10.3f %12.1f %12.1f %5.0f%%%s\n" name
        (float_of_int r.calls /. per)
        (r.total_s /. per *. 1e6)
        (r.self_s /. per *. 1e6)
        (100.0 *. share)
        (if share > 0.5 && r.self_s < r.total_s then "  <- self > 1/2 of total" else ""))
    rows
