(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256** seeded through splitmix64, which gives
    high-quality 64-bit streams from any integer seed. [split] derives an
    independent child stream, so each simulated component can own its own
    generator: adding events to one component never perturbs the random
    choices of another, and whole-simulation runs are reproducible from a
    single root seed.

    The state is unboxed: a draw allocates nothing but a boxed [int64] or
    [float] result, so [int], [int_in], [pick], [shuffle], [bool] and
    [bernoulli] allocate nothing. *)

type t

val create : int -> t
(** [create seed] makes a root generator. Any seed (including 0) is fine. *)

val split : t -> t
(** [split t] derives a child generator. The child's stream is statistically
    independent of the parent's subsequent output. Advances [t]. *)

val copy : t -> t
(** An exact snapshot of the generator state. *)

val bits64 : t -> int64
(** The next raw 64 bits. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Raises [Invalid_argument] if
    [bound <= 0]. Unbiased (rejection sampling). *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)

val exponential : t -> float -> float
(** [exponential t mean] samples an exponential with the given mean.
    Raises [Invalid_argument] if [mean <= 0.]. *)

val gaussian : t -> mean:float -> stddev:float -> float
(** Box-Muller normal sample. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on
    an empty array. *)

val pick_list : t -> 'a list -> 'a
