(** Text and CSV rendering of figure results. *)

val pp_result : Format.formatter -> Runner.result -> unit
(** An ASCII table: one row per x value, one column pair (normalized
    inverse power, failure ratio) per heuristic — the textual equivalent of
    the paper's two plot rows. *)

val csv : Runner.result -> string
(** CSV with header [x,<H>_norm,<H>_stderr,...]: one column per
    {!Runner.fields} entry per heuristic [H], one row per x value. *)

val write_csv : dir:string -> Runner.result -> string
(** Writes [<dir>/<figure id>.csv] (creating [dir] and its parents if
    needed) and returns the path. *)

val heatmap : ?capacity:float -> Noc.Load.t -> string
(** ASCII chip map of the link loads: cores are [+], each inter-core gap
    shows the utilization of the busier of the two opposite links as a
    digit [1..9] (tenths of [capacity], default 3500), [.] when idle and
    [!] when overloaded. Useful to eyeball where a routing concentrates
    traffic. *)

val power_heatmap : Routing.Probe.t -> string
(** Same chip frame keyed on the probe's per-link power: [!] where either
    direction is overloaded (infinite power), [.] where both are idle,
    otherwise digits [1..9] scaling the busier direction's link power
    relative to the hottest finite link on the chip. Where the load
    heatmap shows traffic, this shows where the watts go — leakage plus
    level-dependent dynamic power, so two equally-loaded links can render
    differently under a stepped model. *)
