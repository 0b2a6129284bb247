(** The experiment catalogue behind [manroute experiment].

    One entry per experiment of EXPERIMENTS.md that a fixed-seed run
    regenerates: the paper's artifacts (E1-E5 for Section 4, E6-E9 for
    Figures 7-9 and the Section 6.4 summary) and the repository's own
    studies. E19, E20 and E25 are CLI recipes ([figure figf],
    [figure --trace], [inspect]) and have no entry.

    Each entry prints its own section header and table on stdout. The
    Monte-Carlo entries take their trials per point and worker count from
    [MANROUTE_TRIALS] and [MANROUTE_JOBS] ({!Runner.default_trials},
    {!Pool.default_jobs}); every table except the wall-clock columns is a
    pure function of the trials per point. *)

type t = {
  id : string;  (** ["E1"] ... ["E27"]; E6-E9 is the one ["E6-E9"]. *)
  run : unit -> unit;
      (** Print the experiment. A failed self-check raises [Failure] after
          the table printed: E21's full-vs-delta and table-vs-direct bit
          checks, E26's determinism check and E27's switch-off check.
          [manroute experiment] stops at the first entry that fails. *)
}

val all : t list
(** Every entry, in run order: E1, E2, E3, E4, E5, E6-E9, E10, E11, E12
    (ablations a-d), E16, E14, E13, E15, E22, E23, E24, E27, E17, E18,
    E21, E26. *)

val find : string -> t option
(** The entry with this id, ignoring case. *)
