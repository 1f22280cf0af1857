(** IPv4 addresses.

    An address is an immutable 32-bit value carried in an OCaml [int]
    (always positive on 64-bit platforms, which this library assumes).
    Addresses order and compare as unsigned 32-bit integers. *)

type t = private int
(** An IPv4 address. The [private] row lets callers pattern-match and
    compare addresses cheaply while forcing construction through the
    smart constructors below, which guarantee the 32-bit range. *)

val of_int32_exn : int -> t
(** [of_int32_exn v] is the address with numeric value [v].
    @raise Invalid_argument if [v] is outside [0, 2^32-1]. *)

val to_int : t -> int
(** [to_int a] is the numeric value of [a] in [0, 2^32-1]. *)

val of_octets : int -> int -> int -> int -> t
(** [of_octets a b c d] is the address [a.b.c.d].
    @raise Invalid_argument if any octet is outside [0, 255]. *)

val to_octets : t -> int * int * int * int
(** [to_octets a] is the four dotted-quad octets of [a]. *)

val of_string : string -> (t, string) result
(** [of_string s] parses dotted-quad notation ["a.b.c.d"]. *)

val of_string_exn : string -> t
(** [of_string_exn s] is [of_string s].
    @raise Invalid_argument on a parse error. *)

val to_string : t -> string
(** [to_string a] is the dotted-quad rendering of [a]. *)

val pp : Format.formatter -> t -> unit
(** [pp ppf a] prints [a] in dotted-quad notation. *)

val compare : t -> t -> int
(** Unsigned 32-bit order. *)

val equal : t -> t -> bool

val succ : t -> t
(** [succ a] is the next address, wrapping from 255.255.255.255 to 0.0.0.0. *)

val add : t -> int -> t
(** [add a n] offsets [a] by [n], modulo 2^32. *)

val is_multicast : t -> bool
(** [true] for class-D addresses (224.0.0.0/4) — group destinations. *)

val any : t
(** 0.0.0.0 *)

val broadcast : t
(** 255.255.255.255 *)
