(** Directions of communications and the diagonal families [D{^(d)}{_k}].

    Every communication moves within one quadrant of the grid; the paper
    numbers them [d = 1..4]:
    - [D1]: row and column both non-decreasing (down-right);
    - [D2]: row non-decreasing, column decreasing (down-left);
    - [D3]: row decreasing, column decreasing (up-left);
    - [D4]: row decreasing, column non-decreasing (up-right).

    Ties follow the paper's definition: when the source and sink share a row
    or a column, the direction with the smaller index wins (e.g. a purely
    horizontal rightward communication is [D1]). *)

type t = D1 | D2 | D3 | D4

val of_endpoints : src:Coord.t -> snk:Coord.t -> t
(** Direction of a communication from [src] to [snk] (also defined when
    [src = snk], by convention [D1]). *)

val row_step : t -> int
(** Unit row increment of a step along the quadrant: [+1], [+1], [-1], [-1]. *)

val col_step : t -> int
(** Unit column increment: [+1], [-1], [-1], [+1]. *)

val diag_index : rows:int -> cols:int -> t -> Coord.t -> int
(** [diag_index ~rows:p ~cols:q d c] is the index [k] such that
    [c] belongs to the diagonal [D{^(d)}{_k}], following the paper:
    [D1: u+v-1], [D2: u+q-v], [D3: p-u+q-v+1], [D4: p-u+v].
    The index ranges over [1 .. p+q-1]. *)

val all : t list
(** The four quadrants, in order [D1; D2; D3; D4]. *)

val to_int : t -> int
(** [1..4], matching the paper's [d]. *)

val equal : t -> t -> bool
