(** End-to-end spans reconstructed from the {!Hop_trace} ring.

    A span folds one packet's chronological hop events into contiguous
    segments, attributing the packet's total latency to queueing,
    transmission, processing and delivery per node — the "where did
    VPN 7's 20 ms go" view. Because segments pair consecutive events,
    their dwells sum exactly to the span's end-to-end time.

    Hop labels understood: ["rx"] (node received), ["tx"] (queued on
    the egress port), ["txstart"] (serialization began, i.e. left the
    queue), ["deliver"], and terminal ["drop:<reason>"]. *)

type kind =
  | Processing  (** rx -> tx: the node's forwarding decision path *)
  | Queueing  (** tx -> txstart: waiting in the egress qdisc *)
  | Transmission  (** txstart -> rx: serialization + propagation *)
  | Delivery  (** rx -> deliver: hand-off to the local sink *)
  | Other  (** unexpected label sequence *)

type segment = {
  node : int;  (** where the segment starts *)
  next_node : int;  (** where it ends ([= node] unless on the wire) *)
  kind : kind;
  start_time : float;
  dwell : float;  (** seconds spent in this stage *)
  from_label : string;
  to_label : string;
}

type outcome = Delivered | Dropped of string | In_flight

type t = {
  uid : int;
  vpn : int;  (** -1 when unknown *)
  band : int;  (** -1 when unknown *)
  start_time : float;
  end_time : float;
  outcome : outcome;
  segments : segment list;  (** chronological; dwells sum to {!total} *)
}

val of_trace : ?vpn:int -> ?band:int -> Hop_trace.event list -> t option
(** Build a span from one packet's chronological events (as returned by
    {!Hop_trace.trace}); [None] on an empty list. Events evicted from
    the ring are simply absent — the span covers what survived. *)

val total : t -> float
(** [end_time -. start_time]; equals the sum of segment dwells. *)

val dwell_of_kind : t -> kind -> float

val kind_name : kind -> string

val outcome_name : outcome -> string

(** {2 Sampling}

    Keeping every span would re-walk the trace ring per packet; the
    sampler reconstructs 1 in 64 deliveries per (vpn, band) — the
    first delivery of each key always — and every drop, retaining the
    newest 32 spans of each. All entry points are no-ops while
    {!Control} is disabled. *)

type sampler

val sampler : unit -> sampler

val offer :
  sampler -> Hop_trace.t -> uid:int -> vpn:int -> band:int ->
  dropped:bool -> unit
(** Consider the packet just delivered (or dropped) for sampling; when
    chosen, its span is reconstructed from the trace ring and retained.
    Call after the terminal hop event is recorded so the span includes
    it. An offer the sampler passes over allocates nothing, nor does
    one whose packet has no events left in the ring. *)

val delivered_spans : sampler -> t list
(** Retained delivery spans, oldest first. *)

val dropped_spans : sampler -> t list

val offered : sampler -> int

val kept : sampler -> int

val clear : sampler -> unit

val to_json : t -> Json.t

val sampler_to_json : sampler -> Json.t
(** JSON array: retained delivery spans then drop spans. *)
