(* GC statistics come from [Gc.quick_stat] — the cheap variant that does
   not force a heap traversal — so a 1 Hz heartbeat perturbs the mutator
   it is watching as little as possible. *)
let gc_fields () =
  let q = Gc.quick_stat () in
  [
    ("minor_words", q.Gc.minor_words);
    ("promoted_words", q.Gc.promoted_words);
    ("major_words", q.Gc.major_words);
    ("major_collections", float_of_int q.Gc.major_collections);
    ("minor_collections", float_of_int q.Gc.minor_collections);
    ("heap_words", float_of_int q.Gc.heap_words);
  ]

(* /proc/self/statm is Linux-only: "size resident shared ..." in pages.
   The kernel does not tell us the page size through this file and the
   Unix module has no sysconf binding, so rss_pages is the raw reading
   and rss_bytes assumes the near-universal 4 KiB page. On platforms
   without procfs both fields are simply absent from the sample. *)
let rss_fields () =
  match In_channel.with_open_text "/proc/self/statm" In_channel.input_line with
  | Some line -> (
    match String.split_on_char ' ' (String.trim line) with
    | _size :: resident :: _ -> (
      match float_of_string_opt resident with
      | Some pages when Float.is_finite pages && pages >= 0.0 ->
        [ ("rss_pages", pages); ("rss_bytes", pages *. 4096.0) ]
      | _ -> [])
    | _ -> [])
  | None | (exception Sys_error _) -> []

let read () = gc_fields () @ rss_fields ()

(* [Gc.minor_words] adds the live young-generation allocation to the
   domain's counter; [quick_stat] only sees it after a minor collection. *)
let minor_words () = Gc.minor_words ()

let sample () =
  if Export.tracing () then
    Export.emit (Export.Sample { Export.s_kind = "resource"; t_s = Clock.now (); values = read () })

(* ---------------- interval logic ---------------- *)

(* The ticker is plain arithmetic over caller-supplied readings, so the
   scheduling policy is testable under [Clock.manual] without spawning
   anything. Missed ticks are skipped, not replayed: after a long stall
   the next deadline lands strictly in the future, so a slow sampler
   emits at most one catch-up sample rather than a burst. *)
type ticker = { period : float; mutable next : float }

let ticker ~period ~now =
  if not (Float.is_finite period && period > 0.0) then
    invalid_arg "Obs.Resource.ticker: period must be finite and > 0";
  { period; next = now +. period }

let due t ~now =
  if now < t.next then false
  else begin
    let missed = Float.floor ((now -. t.next) /. t.period) in
    t.next <- t.next +. ((missed +. 1.0) *. t.period);
    true
  end

(* ---------------- sampler domain ---------------- *)

type sampler = { stop_flag : bool Atomic.t; domain : unit Domain.t }

(* Wake at a fraction of the period (capped at 50 ms) so [stop] is
   responsive without busy-waiting; the ticker decides whether a wakeup
   actually samples. *)
let quantum period = Float.min 0.05 (period /. 4.0)

let start ?(period_s = 1.0) () =
  if not (Float.is_finite period_s && period_s > 0.0) then
    invalid_arg "Obs.Resource.start: period_s must be finite and > 0";
  sample ();
  let stop_flag = Atomic.make false in
  let domain =
    (* lint: allow R11 -- the sampler body only reads GC counters and
       procfs and emits through the mutex-serialized Export sink; it
       can neither observe nor perturb numeric results *)
    Domain.spawn (fun () ->
        let t = ticker ~period:period_s ~now:(Clock.now ()) in
        while not (Atomic.get stop_flag) do
          Unix.sleepf (quantum period_s);
          if due t ~now:(Clock.now ()) then sample ()
        done)
  in
  { stop_flag; domain }

let stop s =
  Atomic.set s.stop_flag true;
  Domain.join s.domain;
  sample ()
