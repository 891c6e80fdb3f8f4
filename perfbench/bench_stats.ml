module Node_id = Dgs_core.Node_id

let min_tail = 10

let rank ~p n =
  max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

let quantile ~p samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Bench_stats.quantile: no samples";
  let a = Array.copy samples in
  Array.sort Float.compare a;
  a.(rank ~p n)

let median samples = quantile ~p:0.5 samples

let tail_percentile ~p samples =
  let n = Array.length samples in
  if n > 0 && n - 1 - rank ~p n >= min_tail then Some (quantile ~p samples)
  else None

let window_median samples i ~half =
  let n = Array.length samples in
  if i < 0 || i >= n then invalid_arg "Bench_stats.window_median: index out of range";
  let lo = max 0 (i - half) and hi = min (n - 1) (i + half) in
  median (Array.sub samples lo (hi - lo + 1))

let step_medians = function
  | [] -> [||]
  | first :: _ as runs ->
      Array.init (Array.length first) (fun i ->
          median
            (Array.of_list
               (List.filter_map
                  (fun a -> if i < Array.length a then Some a.(i) else None)
                  runs)))

let calm_window ~dmax = (2 * dmax) + 2

let pre_eviction_view ~view ~added ~removed =
  Node_id.Set.union (Node_id.Set.diff view added) removed

let unjustified ~dmax g ~round ~last_change ~pre_view ~removed =
  (not (Node_id.Set.is_empty removed))
  && round - 1 - last_change >= calm_window ~dmax
  && Dgs_spec.Predicates.group_diameter_ok ~dmax g pre_view
