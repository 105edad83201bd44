(** Exact rational arithmetic over native integers.

    All times and time bounds in this library are exact rationals: the
    paper's definitions compare times with [<=] and [<] at interval
    endpoints, and floating point rounding would corrupt exactly those
    boundary cases.  [zarith] is not available in this environment, so
    values are normalized fractions of native 63-bit integers with
    overflow-checked arithmetic; the constants appearing in the
    reproduced systems are tiny, so overflow indicates a logic error and
    raises {!Overflow}. *)

type t = private { num : int; den : int }
(** A rational [num/den] with [den > 0] and [gcd (abs num) den = 1]. *)

exception Overflow
(** Raised when an intermediate native-integer computation would
    overflow. *)

exception Division_by_zero
(** Raised by {!make} and {!div} on a zero denominator/divisor. *)

val make : int -> int -> t
(** [make num den] is the normalized rational [num/den].
    @raise Division_by_zero if [den = 0]. *)

val of_int : int -> t

val zero : t
val one : t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val abs : t -> t
val inv : t -> t

val mul_int : int -> t -> t
(** [mul_int n q] is [n * q]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val sign : t -> int

val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val ( = ) : t -> t -> bool
val ( <> ) : t -> t -> bool
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val ( / ) : t -> t -> t

val is_integer : t -> bool
val floor : t -> int
val ceil : t -> int

val divides : t -> t -> bool
(** [divides step q] is [true] when [q] is an integer multiple of
    [step]; used to validate discretization grids.  [step] must be
    positive. *)

val to_float : t -> float
val of_string : string -> t
(** Parses ["3"], ["-3"], ["3/4"] and decimal literals like ["0.25"].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
val hash : t -> int
