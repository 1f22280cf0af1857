(** Conservative synchronization for the sharded runner.

    {b Lookahead mode} (every cut link has positive propagation delay):
    shard [i] may safely simulate every event strictly before

    {[ bound(i) = min(horizon,
                      min over inbound cut sources j of
                        published(j) + min_delay(j → i)) ]}

    because any packet shard [j] has not yet sent toward [i] was sent
    at or after [published(j)] and cannot arrive before
    [published(j) + min_delay(j → i)]. Each shard repeatedly waits
    until its bound exceeds what it has completed, ingests, runs to the
    bound ({!Mvpn_sim.Engine.run_before}), and publishes the bound. The
    shard with the globally minimal publication always has
    [bound > published] (delays are positive), so some shard can always
    advance — no deadlock, no null messages.

    {b Barrier mode} (some cut link has zero delay — zero lookahead):
    synchronous epochs. All shards rendezvous, exchange their next
    pending event times, and everyone runs inclusively to the global
    minimum; repeat until the minimum passes the horizon.

    All state is guarded by one mutex + condition; publications
    broadcast so waiting shards re-evaluate their bounds.

    {b Abort.} A shard whose run raises calls {!abort}; from then on
    every wait ({!next_bound}, {!barrier}, {!min_next}) stops waiting
    and raises {!Aborted}, so no sibling blocks on a publication that
    will never come and the runner can join every domain. *)

exception Aborted
(** Raised by the waits once the clock is aborted. *)

type t

val create : shards:int -> horizon:float -> inbound:(int * float) list array -> t
(** [inbound.(i)] lists [(source shard j, min propagation delay j→i)]
    over the cut links into shard [i]. A shard with no inbound entries
    is bounded only by the horizon.
    @raise Invalid_argument if [shards < 1] or lengths disagree. *)

val horizon : t -> float

val lookahead : t -> bool
(** True when every inbound delay is positive (lookahead mode). *)

val next_bound : t -> shard:int -> completed:float -> float
(** Lookahead mode: block until [bound(shard) > completed], then return
    the bound (≤ horizon). Returns immediately with the horizon once
    every inbound source has published the horizon.
    @raise Aborted once {!abort} has run. *)

val publish : t -> shard:int -> float -> unit
(** Announce that [shard] has completed every event strictly before the
    given time (monotone; clamped up). Wakes waiting shards. *)

val barrier : t -> unit
(** Rendezvous of all shards (reusable, sense-reversing).
    @raise Aborted once {!abort} has run. *)

val min_next : t -> shard:int -> float -> float
(** Barrier mode: contribute this shard's next pending event time
    (or [infinity]) and return the minimum over all shards. Contains
    two internal barriers; every shard must call it the same number of
    times.
    @raise Aborted once {!abort} has run. *)

val abort : t -> unit
(** Mark the run failed and wake every waiter. Idempotent, callable
    from any domain. *)
