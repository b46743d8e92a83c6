let percentile sorted q =
  if Array.length sorted = 0 then nan else Obs.Histogram.nearest_rank sorted q

let rank n q = max 1 (min n (int_of_float (Float.ceil (q *. float_of_int n))))
let beyond n q = if n = 0 then 0 else n - rank n q

let tail_q n =
  List.find_opt
    (fun q -> beyond n q >= 10)
    [ 0.999; 0.99; 0.95; 0.90; 0.75; 0.50 ]

let geomean = function
  | [] -> invalid_arg "Bench_stats.geomean: empty"
  | xs ->
      let sum =
        List.fold_left
          (fun acc x ->
            if x <= 0. then invalid_arg "Bench_stats.geomean: value <= 0";
            acc +. log x)
          0. xs
      in
      exp (sum /. float_of_int (List.length xs))

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  percentile a 0.5

let describe sorted =
  let n = Array.length sorted in
  let base = Printf.sprintf "n=%d p50=%.4g" n (percentile sorted 0.5) in
  match tail_q n with
  | None -> base ^ " (no tail percentile: fewer than 20 samples)"
  | Some 0.5 -> Printf.sprintf "%s (%d beyond)" base (beyond n 0.5)
  | Some q ->
      Printf.sprintf "%s p%g=%.4g (%d beyond)" base (100. *. q)
        (percentile sorted q) (beyond n q)
