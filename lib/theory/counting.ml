let binomial n k =
  if k < 0 || n < k then invalid_arg "Counting.binomial";
  Noc.Path.binomial n k

let grid_paths ~rows ~cols = binomial (rows + cols - 2) (rows - 1)

let grid_paths_recurrence ~rows ~cols =
  if rows < 1 || cols < 1 then invalid_arg "Counting.grid_paths_recurrence";
  let n = Array.make_matrix rows cols 1 in
  for u = 1 to rows - 1 do
    for v = 1 to cols - 1 do
      n.(u).(v) <- n.(u - 1).(v) + n.(u).(v - 1)
    done
  done;
  n.(rows - 1).(cols - 1)

let max_mp_paths (c : Traffic.Communication.t) =
  let dr = abs (c.snk.Noc.Coord.row - c.src.Noc.Coord.row)
  and dc = abs (c.snk.Noc.Coord.col - c.src.Noc.Coord.col) in
  grid_paths ~rows:(dr + 1) ~cols:(dc + 1)
