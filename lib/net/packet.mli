(** Simulated packets, flat representation.

    A packet carries an (inner) IP header, optionally an outer IP header
    added by tunnel encapsulation (IPSec tunnel mode or GRE, §2.3), and
    optionally an MPLS shim stack pushed by the ingress LSR (§3). Header
    fields are mutable because routers rewrite them in place as the packet
    traverses the simulated backbone — exactly the per-hop mutations the
    architecture relies on (TTL decrement, DSCP remark, label swap).

    The representation is allocation-free on the forwarding path:

    - The label stack is a fixed-depth array of {e packed} shim entries —
      label (20 bits), EXP (3 bits) and TTL (8 bits) folded into one
      immediate [int] (see {!Shim}) — so push/pop/swap are plain integer
      stores, and readers decode fields from the packed int.
    - The outer header is pre-allocated in every packet and armed by a
      [has_outer] flag, so {!encapsulate}/{!decapsulate}/{!visible_header}
      never allocate.
    - Packets can be recycled through a per-domain pool (see
      {!set_pooling}): {!make} then reinitialises a retired packet
      in place — always minting a {e fresh} uid, so uid-keyed machinery
      (chaos fault verdicts, hop traces, replay detection) observes
      exactly the same identities as with fresh allocation.

    The packet also carries provenance (flow identity, VPN id, sequence
    number, creation time) used by the measurement plane; data forwarding
    must never consult it, and the isolation tests check that delivery is
    explained by headers and labels alone. Provenance fields are
    [mutable] only so the pool can reinitialise them — within one
    incarnation (between {!make} and {!release}) they are logically
    immutable. *)

(** Packed shim entries: [label (20 bits) | exp (3 bits) | ttl (8 bits)]
    in one immediate, non-negative [int]. [exp] is the 3-bit
    class-of-service field the provider edge writes from the DSCP (§5);
    [ttl] is the label TTL. The unboxed currency of the forwarding hot
    path ({!Mvpn_mpls.Lfib.step_packed}, EXP classification). *)
module Shim : sig
  type packed = int

  val none : packed
  (** [-1]: the absence of a shim (empty stack). All real packed shims
      are [>= 0]. *)

  val label : packed -> int
  val exp : packed -> int
  val ttl : packed -> int

  val with_ttl : packed -> int -> packed
  (** Replace the TTL, clamped into [0, 255], keeping label and EXP. *)
end

type header = {
  mutable src : Ipv4.t;
  mutable dst : Ipv4.t;
  mutable proto : Flow.proto;
  mutable src_port : int;
  mutable dst_port : int;
  mutable dscp : Dscp.t;
  mutable ttl : int;
}

type t = {
  mutable uid : int;  (** unique per incarnation, fresh from every {!make} *)
  mutable flow : Flow.t;  (** original flow identity (measurement only) *)
  mutable vpn : int option;  (** originating VPN id (measurement only) *)
  mutable seq : int;  (** per-flow sequence number (loss/reorder) *)
  created : floatarray;
      (** one slot: simulation time of creation. Read it with
          {!created_at}; per-packet readers in other modules read the
          slot directly, so the time never crosses a call boxed. The
          cell belongs to the record and is reused by the pool. *)
  mutable size : int;  (** total on-wire bytes, including encapsulation *)
  inner : header;
  mutable encrypted : bool;
      (** when [true] the inner header is unreadable (ESP), so per-hop
          classification can only use the outer header — the paper's
          "erasing any hope one may have to control QoS" problem *)
  outer : header;
      (** pre-allocated; meaningful only when [has_outer]. Use
          {!outer_header} / {!has_outer} rather than reading directly. *)
  mutable has_outer : bool;
  stack : int array;
      (** packed label stack, bottom at index 0, top at [depth - 1].
          Use the label accessors rather than indexing directly. *)
  mutable depth : int;  (** live entries in [stack] *)
  mutable encap_bytes : int;  (** wire overhead of the current tunnel *)
  mutable in_pool : bool;  (** [true] between {!release} and {!make} *)
  mutable fated : bool;
      (** [true] once the packet has met a terminal fate (delivery or
          drop) this incarnation. Owned by {!Mvpn_core.Network}'s
          conservation accounting — services must not touch it. Reset by
          {!make} and left [false] on {!copy} results. *)
}

val default_ttl : int
(** Initial IP TTL (64). *)

val max_depth : int
(** Capacity of the label stack (8 — the deployments here stack at most
    transport over VPN over one FRR bypass). *)

val null : t
(** A distinguished inert packet for use as a physical-equality sentinel
    in pooled data structures (its uid is 0, which {!make} never
    assigns). Never inject it into a network and never {!release} it. *)

val make :
  ?vpn:int -> ?seq:int -> ?dscp:Dscp.t -> ?size:int -> now:float ->
  Flow.t -> t
(** [make ~now flow] builds a fresh unencapsulated packet for [flow].
    [size] defaults to 512 bytes, [dscp] to best effort. Assigns a fresh
    [uid] from the calling domain's block of a global counter. When pooling is on and a retired packet
    is available, reinitialises it in place instead of allocating. *)

val make_cell :
  ?vpn:int -> ?seq:int -> ?dscp:Dscp.t -> ?size:int -> floatarray ->
  Flow.t -> t
(** [make_cell clock flow] is {!make} with [now] read from slot 0 of
    [clock] (the simulation engine's clock cell), so the stamp goes
    from cell to cell unboxed. The traffic senders build packets this
    way. *)

val created_at : t -> float
(** Simulation time of creation. *)

val copy : t -> t
(** A replication copy: fresh uid, deep-copied headers and label stack,
    same provenance (flow, vpn, seq, creation time). The ingress-
    replication primitive for group delivery. Pool-aware like {!make}. *)

(** {2 Pooling}

    A per-domain free list of retired packets. Disabled by default:
    {!release} is then a no-op and every {!make} allocates, so tests and
    tools that retain delivered packets are unaffected. The scenario
    runners switch it on for long soaks. The flag is read at {!make} and
    {!release} time; set it before the run (and before spawning domains —
    each domain recycles through its own pool). *)

val set_pooling : bool -> unit
val pooling : unit -> bool

val release : t -> unit
(** Retire [p] into the current domain's pool. Safe to call on an
    already-released packet (idempotent per incarnation) and a no-op
    when pooling is off. The caller must not touch [p] afterwards —
    the next {!make} may reincarnate it with a fresh uid. *)

val pool_size : unit -> int
(** Retired packets available in the calling domain's pool (tests). *)

val reclaim : unit -> t
(** Take one retired packet out of the calling domain's pool, still
    retired, or {!null} when the pool is empty: the sending half of a
    transfer to another domain's pool. *)

val adopt : t -> unit
(** Put a retired packet that {!reclaim} took on another domain into
    the calling domain's pool. A packet a sharded run carried across a
    cut retires on the importing domain; the runner sends records back
    this way, so the exporting domain reuses them instead of
    allocating.
    @raise Invalid_argument if [p] is not retired. *)

val allocated : unit -> int
(** Fresh packet-record allocations so far, process-wide (pool reuse is
    not counted). With pooling on, [allocated () - live - pool_size ()]
    is a leak witness the invariant auditor holds constant. *)

(** {2 Headers} *)

val visible_header : t -> header
(** The header a router may inspect: the outer header when the packet is
    encapsulated, the inner header otherwise. Never allocates. *)

val visible_dscp : t -> Dscp.t
(** DSCP of {!visible_header} — what a DiffServ classifier sees. When the
    packet is labelled, forwarding hops read the EXP of {!top_packed}
    instead. *)

val classifiable_flow : t -> Flow.t option
(** The 5-tuple a multifield classifier can extract: [None] when the
    packet is encrypted and only the (address-only) outer header shows. *)

val has_outer : t -> bool
(** [true] when the packet is encapsulated in an outer header. *)

val outer_header : t -> header
(** The outer header.
    @raise Invalid_argument when the packet has no outer header. *)

(** {2 Label stack}

    The accessors ([labelled], [top_packed], [pop_packed], [set_top])
    allocate nothing: shims travel as immediate ints, read with the
    {!Shim} field decoders. *)

val labelled : t -> bool
(** [true] when the label stack is non-empty. *)

val label_depth : t -> int

val top_packed : t -> Shim.packed
(** Top of the stack as a packed shim, or {!Shim.none} when empty. *)

val push_label : t -> label:int -> exp:int -> ttl:int -> unit
(** Push a shim entry (4 bytes of wire size). Fields are masked/clamped
    into range: label to 20 bits, exp to 3 bits, ttl into [0, 255].
    @raise Invalid_argument when the stack is full ({!max_depth}). *)

val pop_packed : t -> Shim.packed
(** Pop the top shim entry as a packed shim (reclaims 4 bytes);
    {!Shim.none} on empty stack. Never allocates. *)

val set_top : t -> Shim.packed -> unit
(** Overwrite the top entry in place (label rewrite, TTL propagation).
    @raise Invalid_argument on an unlabelled packet. *)

val swap_label : t -> label:int -> unit
(** Rewrite the top label {e in place}, decrementing its TTL (clamped at
    0): one integer store, no allocation, no new stack cells.
    @raise Invalid_argument on an unlabelled packet. *)

val set_exp_all : t -> exp:int -> unit
(** Write [exp] into every entry of the label stack (the PE marks the
    whole stack so EXP survives pops, §5). *)

val label_values : t -> int list
(** Just the label fields, top first (tracing). *)

(** {2 Encapsulation} *)

val encapsulate :
  t -> src:Ipv4.t -> dst:Ipv4.t -> proto:Flow.proto -> overhead:int ->
  copy_tos:bool -> unit
(** [encapsulate p ~src ~dst ~proto ~overhead ~copy_tos] wraps [p] in an
    outer header between tunnel endpoints, growing the wire size by
    [overhead]. When [copy_tos] the inner DSCP is copied to the outer
    header; otherwise the outer header carries best effort and the
    service class is invisible (claim C4). Writes the pre-allocated
    outer header in place — no allocation.
    @raise Invalid_argument if the packet is already encapsulated. *)

val decapsulate : t -> unit
(** Remove the outer header and its size overhead, restoring the inner
    header as visible.
    @raise Invalid_argument if the packet has no outer header. *)

val pp : Format.formatter -> t -> unit

val reset_uid_counter : unit -> unit
(** Reset the global uid counter and drop the calling domain's uid
    block, so its next packet gets uid 1 (test isolation only). *)
