(** Periodic runtime-resource heartbeat.

    A [sampler] runs on its own domain and emits one
    [{"ev":"sample","kind":"resource",...}] event per period into the
    active {!Export} sink: GC counters from [Gc.quick_stat]
    (minor/promoted/major words, collection counts, heap words) plus
    resident-set size read from [/proc/self/statm] where procfs exists
    (the [rss_pages]/[rss_bytes] fields are simply absent elsewhere).

    With no sink installed, [sample] costs one branch and the sampler
    domain emits nothing; the interval arithmetic ({!ticker}/{!due}) is
    pure over caller-supplied clock readings so tests drive it with
    {!Clock.manual} and never sleep. *)

val read : unit -> (string * float) list
(** Current resource readings, as sample fields. *)

val minor_words : unit -> float
(** Words the calling domain has allocated on the minor heap so far, exact
    to the word. The [minor_words] field of {!read} is the all-domain total
    as of each domain's last minor collection, so it moves in steps of a
    minor heap; this is the reading for an allocation guard around a short
    single-domain computation. *)

val sample : unit -> unit
(** Emit one resource sample now (no-op when no sink is installed). *)

(** {1 Interval logic} *)

type ticker

val ticker : period:float -> now:float -> ticker
(** A deadline train with the first tick one [period] after [now].
    Raises [Invalid_argument] unless [period] is finite and positive. *)

val due : ticker -> now:float -> bool
(** Whether a tick deadline has passed; advances the next deadline
    strictly past [now], skipping missed ticks (a stall yields one
    catch-up tick, never a burst). *)

(** {1 Sampler domain} *)

type sampler

val start : ?period_s:float -> unit -> sampler
(** Emit one sample immediately, then spawn a sampler domain ticking
    every [period_s] seconds (default 1.0). Raises [Invalid_argument]
    unless [period_s] is finite and positive. *)

val stop : sampler -> unit
(** Signal the sampler domain, join it, and emit one final sample so a
    run shorter than the period still records its endpoints. *)
