(** Process-wide pool of OCaml 5 domains for embarrassingly parallel
    Monte-Carlo work.

    Workers pull fixed-size chunks of indices off a shared atomic queue, so
    load balances across heterogeneous trial costs without any external
    dependency. Results come back index-ordered: any fold over them is
    independent of the worker count, which is what lets the harness promise
    bit-identical statistics for [jobs:1] and [jobs:n].

    {b Helper reuse.} Helper domains are spawned the first time a call
    needs them, never joined, and parked between calls; the caller always
    works on its own call. A campaign calls {!map} once per row, and a
    spawn/join per call would leave memory behind every time. As a
    consequence, domain-local state ([Domain.DLS]) on a helper lives
    across calls, just as on the caller's domain: the
    {!Routing.Metrics} counters keep counting (take snapshot differences,
    as {!Runner} does), per-domain scratch such as [Sim.Network.Arena] is
    reused, and so is the engine-note slot, which
    {!Routing.Heuristic.run_noted} clears before and drains after every
    run. {!Telemetry} buffers are keyed per sink, so a fresh sink still
    receives a reused helper's spans. *)

val default_jobs : unit -> int
(** The [MANROUTE_JOBS] environment variable when it parses as a positive
    integer, else [Domain.recommended_domain_count ()]. A set-but-invalid
    value falls back to the recommendation with a warning on stderr (once
    per process) rather than silently, mirroring
    {!Runner.default_trials}. *)

val map : ?tick:(unit -> unit) -> ?jobs:int -> int -> (int -> 'a) -> 'a array
(** [map n f] is [[| f 0; ...; f (n-1) |]], evaluated by the calling
    domain and up to [jobs - 1] helpers (default {!default_jobs}, clamped
    to [n]). [f] must not mutate shared state; each index is evaluated
    exactly once, on exactly one domain. With [jobs:1] (or [n <= 1]) no
    helper is involved and the call degenerates to [Array.init].

    Calls may nest: a [map] inside [f] runs on whatever helpers are idle
    and otherwise on its caller alone — it never waits for a helper that
    did not join it.

    If some [f i] raises, the first exception is re-raised in the caller
    after every helper working on the call has stopped; remaining chunks
    are abandoned and the helpers return to the pool.

    [tick] is called on the worker after each index completes (successful
    [f i] only) — the hook live-progress displays hang their atomic
    counters on. It must be domain-safe and cheap. *)

val map_result :
  ?tick:(unit -> unit) -> ?jobs:int -> int -> (int -> 'a) -> ('a, string) result array
(** Like {!map}, but each index's exception is caught on its worker and
    returned as [Error (Printexc.to_string e)] in that index's slot, so one
    bad index cannot abandon the rest of the campaign. The result array is
    index-ordered like {!map}'s. *)
