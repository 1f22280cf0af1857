(** ESP encapsulation arithmetic (tunnel mode).

    ESP wraps the whole inner IP packet: outer IP header, ESP header
    (SPI + sequence), IV, the encrypted payload padded to the cipher
    block, pad-length/next-header trailer, and an authentication tag.
    The per-packet byte overhead is what shrinks goodput in E5. *)

val trailer_bytes : int
(** 2 — pad length + next header. *)

val pad_bytes : Crypto.cipher -> payload:int -> int
(** Padding to reach the cipher block size (8 for DES/3DES; none for
    null). The padded region covers payload + trailer. *)

val overhead : Crypto.cipher -> payload:int -> int
(** Total extra wire bytes for a tunnel-mode ESP packet of the given
    inner payload size. *)
