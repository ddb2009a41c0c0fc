(** Simulated time.

    Time is represented as an integer number of microseconds since the start
    of the simulation, which keeps the event queue total order exact (no
    floating-point accumulation error) and the simulation bit-reproducible
    across platforms. *)

type t = private int
(** An absolute instant or a duration, in microseconds. Private, so only
    this module makes one; reading it as an int ([(t :> int)]) lets the
    event queue order instants without a function call. *)

val zero : t

val of_us : int -> t
(** [of_us n] is [n] microseconds. Raises [Invalid_argument] if [n < 0]. *)

val of_ms : float -> t
(** [of_ms x] is [x] milliseconds rounded to the nearest microsecond.
    Raises [Invalid_argument] if [x < 0.] or not finite. *)

val of_sec : float -> t
(** [of_sec x] is [x] seconds rounded to the nearest microsecond. *)

val to_us : t -> int
val to_ms : t -> float
val to_sec : t -> float

val add : t -> t -> t
val diff : t -> t -> t
(** [diff a b] is [a - b]. Raises [Invalid_argument] if [b] is after [a]. *)

val mul : t -> float -> t
(** [mul t k] scales a duration by a non-negative factor. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( < ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( > ) : t -> t -> bool

val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Pretty-prints using the most readable unit, e.g. ["1.5ms"]. *)

val to_string : t -> string
