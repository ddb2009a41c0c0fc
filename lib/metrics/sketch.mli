(** Mergeable log-bucketed quantile sketch (DDSketch-style).

    Fixed memory regardless of how many values are added: positive values
    land in logarithmically spaced buckets chosen so every quantile
    estimate carries a bounded {e relative} error of [alpha] (default
    2%), while non-positive values are counted exactly in a dedicated
    zero bucket. Bucket counts are integers, so merging two sketches is
    exactly associative and commutative — per-site sketches can be
    combined at export into one cluster-wide distribution without any
    loss beyond the per-sketch bucketing itself.

    Unlike an exact sample store, a sketch never grows past its bucket
    array (a few hundred ints for the default value range of
    1e-3 .. 1e7); the bucket array itself is allocated lazily on the
    first positive value, so registering thousands of idle sketches
    costs a handful of words each. *)

type t

val create : ?alpha:float -> unit -> t
(** [create ?alpha ()] makes an empty sketch with relative accuracy
    [alpha] (default [0.02]). Raises [Invalid_argument] unless
    [0 < alpha < 1]. *)

val alpha : t -> float

val add : t -> float -> unit
(** Add one value. Non-finite values are ignored. Values [<= 0] are
    counted exactly as zero; positive values below/above the sketch's
    value range ([1e-3 .. 1e7]) clamp into the edge buckets (their
    quantile estimates saturate, but [min]/[max]/[sum] stay exact). *)

val count : t -> int
val zero_count : t -> int
(** Number of recorded values that were [<= 0]. *)

val sum : t -> float
val mean : t -> float
(** Exact mean ([nan] when empty). *)

val min : t -> float
val max : t -> float
(** Exact extrema of the added values ([nan] when empty). *)

val percentile : t -> float -> float
(** [percentile t p] estimates the [p]-th percentile, [p] in [0, 100]
    ([Invalid_argument] otherwise; [nan] when empty). The estimate has
    relative error at most [alpha] for in-range positive values and is
    clamped into [[min t, max t]]. *)

val merge : t -> t -> t
(** [merge a b] is a fresh sketch holding both value sets. Raises
    [Invalid_argument] when the accuracies differ. [a] and [b] are not
    modified. *)

val buckets : t -> (int * int) list
(** Non-empty positive buckets as [(log-bucket index, count)] pairs in
    increasing index order — the mergeable state, useful for testing
    that merge is exact. *)

val memory_words : t -> int
(** Approximate heap footprint in words (record + bucket array). *)

val clear : t -> unit

val pp : Format.formatter -> t -> unit
