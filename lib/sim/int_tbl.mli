(** Hash tables keyed on ints, hashed by {!hash}. The generic
    [Hashtbl.hash] on an int is a C call; this one is a few OCaml
    multiplies, with the same full spread. *)

val hash : int -> int
(** A full-avalanche mix (the splitmix64 finalizer on 63-bit ints) onto
    [0, max_int]: every input bit reaches every output bit, so packed
    keys such as [customer lsl 16 lor sid], whose low bits alone would
    cluster under a bucket mask, spread over the whole table. *)

include Hashtbl.S with type key = int
