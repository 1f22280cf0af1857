(** The one JSON codec behind every machine-readable dump: the registry,
    SLO reports, spans, chaos plans and every [mvpn … --json] envelope
    are built as {!t} values and printed here; chaos-plan replay and
    [tools/json_lint] read through {!of_string}.

    Two float renderings exist on purpose. {!Float} prints [%.9g]:
    compact, and the rendering every dump has always used, so changing
    it would change every dump's bytes. {!Exact}
    prints the shortest of [%.12g]/[%.17g] that reads back as the same
    double, so a chaos plan survives JSON losslessly and replays
    byte-identically. Both print [0] for a non-finite value: JSON has no
    literal for it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** [%.9g] *)
  | Exact of float  (** lossless; reads back as [Float] of the same double *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** members in print order *)

val envelope : (string * t) list -> t
(** [Obj (("schema", Int v) :: fields)], [v] the version of the dump
    layouts. It is bumped on incompatible shape changes so consumers can
    detect format drift; [tools/json_lint --require-schema] enforces its
    presence. *)

val to_string : t -> string
(** Compact rendering, no whitespace. Every string and key is escaped:
    double quote and backslash get a backslash, newline prints as
    backslash-n, other bytes below 0x20 as a six-character [u00XX]
    escape; all other bytes pass through. *)

val of_string : string -> (t, int * string) result
(** Strict RFC 8259: exactly one value plus surrounding whitespace.
    A number without fraction or exponent reads as [Int] (except [-0],
    which reads as [Float (-0.)]), any other as [Float]. Rejects
    non-finite numbers ([1e400], [inf], [nan]), integers outside the
    native range, leading zeros, raw control characters in strings,
    malformed [\u] escapes, nesting deeper than 512 and trailing input.
    [Error (offset, message)] names the byte offset where parsing
    stopped; never raises. *)
