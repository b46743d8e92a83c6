(** Sample statistics for the benchmark's reports.

    Percentiles use the nearest-rank convention of
    {!Obs.Histogram.nearest_rank} (rank [ceil (q * n)], 1-based), so an
    exact percentile here and a histogram quantile scraped from the server
    describe the same rank. *)

val percentile : float array -> float -> float
(** [percentile sorted q]: the nearest-rank [q]-quantile of an ascending
    sample.  [nan] on an empty sample. *)

val beyond : int -> float -> int
(** [beyond n q]: how many of [n] samples lie strictly above the
    nearest-rank [q]-quantile. *)

val tail_q : int -> float option
(** The highest of p99.9, p99, p95, p90, p75 and p50 that leaves at
    least ten samples beyond it in a sample of [n]; [None] below twenty
    samples, where not even the median has ten beyond it. *)

val geomean : float list -> float
(** Geometric mean of positive values.
    @raise Invalid_argument on an empty list or a value [<= 0]. *)

val median : float list -> float
(** Nearest-rank median ([percentile] at [0.5]); [nan] when empty. *)

val describe : float array -> string
(** One report line for a sorted sample: its size, p50, and the {!tail_q}
    percentile with its count beyond — e.g.
    ["n=1200 p50=5.12 p99=140.3 (12 beyond)"]. *)
