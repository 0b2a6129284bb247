(** Folding a span trace into per-layer inclusive and self time.

    A span's self time is its duration minus the part of its interval
    that its direct child spans cover. Spans nest per thread: a span is
    the child of the innermost open span of its thread that has not
    ended by the child's start. A zero-length span covers nothing, and a
    span that starts exactly where another ends is that span's sibling. *)

type span = {
  name : string;
  cat : string;
  tid : int;
  ts : float;  (** Start, any unit; [dur] in the same unit. *)
  dur : float;
}

val self_times : span list -> (span * float) list
(** Every span with its self time, ordered by start (enclosing spans
    before the spans they contain). *)

type total = { inclusive : float; self : float; count : int }

val by_key : (span -> string) -> span list -> (string * total) list
(** Inclusive and self time summed over the spans sharing a key, sorted
    by key. *)
