(** Cross-shard packet exchange: one mutex-guarded channel per ordered
    (source shard, destination shard) pair that owns at least one cut
    link, and the destination's inbox the channels drain into.

    A packet finishing serialization on a cut-link port is pushed with
    its send-derived arrival stamp ([tx end + propagation delay]), its
    send time and a per-channel sequence number. The destination shard
    moves its inbound channels into its {!inbox} at window boundaries
    ({!drain_into}) and pops the messages in (arrival, sent, source
    shard, seq) order — an order independent of cross-domain timing
    (see {!Shard.ingest}).

    Nothing here allocates in steady state. A channel is a growable
    struct-of-arrays buffer (arrival and send time in [floatarray]s,
    nodes in [int array]s, packets in one array), {!send} reads its two
    floats from a cell the caller owns, and the inbox is a
    struct-of-arrays binary min-heap whose slots are recycled through a
    free list. Buffers only grow, doubling, so a warmed-up exchange
    reuses its storage.

    Channels are bounded with {e soft} backpressure: a push over
    capacity is counted ([par.exchange.overflow]) rather than blocked —
    a sender blocking mid-window on a receiver that is itself waiting
    for this shard's clock publication would deadlock the conservative
    synchronization, so window sizing (lookahead), not blocking, is the
    real flow control. *)

type t

val create : ?capacity:int -> shards:int -> unit -> t
(** [capacity] (default 65536 messages) is the per-channel soft bound.
    No channels exist until {!open_channel}. *)

val open_channel : t -> src:int -> dst:int -> unit
(** Idempotent. The runner opens exactly one channel per ordered shard
    pair that has a cut link. *)

val channels : t -> (int * int) list
(** Open (src, dst) pairs, sorted. *)

val send :
  t -> src:int -> dst:int -> floatarray -> src_node:int -> dst_node:int ->
  Mvpn_net.Packet.t -> unit
(** [send t ~src ~dst cell ~src_node ~dst_node packet] queues [packet]
    toward shard [dst] with arrival time [cell.{0}] and send time
    [cell.{1}], stamped with the channel's next sequence number. The
    cell is copied from, never retained. Called from the source
    shard's domain.
    @raise Invalid_argument if the channel was never opened. *)

val overflows : t -> int
(** Total pushes that found a channel over capacity. *)

(** {2 Packets go home}

    Packet pools are per domain ({!Mvpn_net.Packet.release}). A record
    carried from [src] to [dst] retires into [dst]'s pool while [src]
    allocates fresh ones for its next exports, so without a way back
    the exporter keeps allocating and the importer's pool keeps
    growing. Each channel therefore also carries retired records the
    other way. *)

val send_home : t -> src:int -> dst:int -> int -> int
(** [send_home t ~src ~dst n] moves up to [n] retired records from the
    calling domain's pool (shard [dst]'s) onto the channel
    [src -> dst], bound back for [src], and returns how many it moved
    (fewer when the pool runs dry; 0 with no such channel). Called
    from [dst]'s domain. *)

val take_home : t -> src:int -> unit
(** Adopt every record sent home to [src] into the calling domain's
    pool (shard [src]'s). Called from [src]'s domain. *)

(** {2 The destination's inbox} *)

type inbox
(** Messages drained toward one shard and not yet popped, as a binary
    min-heap on (arrival, sent, source shard, seq). For one
    destination (source shard, seq) is unique, so the order is total
    and the pop sequence does not depend on how sends and drains
    interleaved. *)

val inbox : unit -> inbox

val drain_into : t -> dst:int -> inbox -> unit
(** Move everything currently queued toward [dst] into the inbox,
    emptying the channels. Called from the destination shard's domain;
    safe against concurrent sends. *)

val length : inbox -> int

val ready : inbox -> bound:floatarray -> inclusive:bool -> bool
(** The least message arrives before [bound.{0}] (at or before, when
    [inclusive]). [false] on an empty inbox. The bound comes in a cell,
    like every float on the window path, so the call boxes nothing. *)

val pop : inbox -> key_out:floatarray -> int
(** Remove the least message, write its arrival into [key_out.{0}] and
    return its slot. The slot reads back through the accessors below
    until the next {!drain_into} reuses it.
    @raise Invalid_argument on an empty inbox. *)

val packet : inbox -> int -> Mvpn_net.Packet.t
val src_node : inbox -> int -> int
val dst_node : inbox -> int -> int
val src_shard : inbox -> int -> int
val seq : inbox -> int -> int
