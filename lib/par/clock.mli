(** Conservative synchronization for the sharded runner.

    {b Lookahead mode} (every cut link has positive propagation delay):
    shard [i], having completed every event before [published(i)], may
    safely simulate every event strictly before

    {[ bound(i) = min(horizon,
                      published(i) + cap(i),
                      min over inbound cut sources j of
                        published(j) + min_delay(j → i)) ]}

    where [cap(i)] is the least [min_delay(j → i)] over [i]'s inbound
    sources (+infinity with none). Any packet shard [j] has not yet
    sent toward [i] was sent at or after [published(j)] and cannot
    arrive before [published(j) + min_delay(j → i)]. Each shard
    repeatedly waits until its bound exceeds its own publication,
    ingests, runs to the bound ({!Mvpn_sim.Engine.run_before}), and
    publishes the bound. The shard with the globally minimal
    publication always has [bound > published] (delays are positive),
    so some shard can always advance — no deadlock, no null messages.

    The cap only lowers a bound, so it stays conservative and results
    cannot move. It keeps the shards in lockstep: without it a shard
    runs to its neighbour's publication plus the delay, a window of
    about twice the delay, while the neighbour, bounded by the older
    publication, waits, and the two take turns. Capped, each shard
    runs one delay ahead of its own publication, which is what the
    neighbour needs to run the same window, so both run at once.

    {b Barrier mode} (some cut link has zero delay — zero lookahead):
    synchronous epochs. All shards rendezvous, exchange their next
    pending event times, and everyone runs inclusively to the global
    minimum; repeat until the minimum passes the horizon.

    Publications are atomics, so a shard whose bound already exceeds
    its publication takes no lock, and the bound crosses {!next_bound}
    and {!publish} in the caller's cell: neither allocates. A shard
    that must wait sleeps on one condition under one mutex; a
    publisher takes that mutex to broadcast only while a shard waits.
    The barriers use the same mutex and condition.

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

val next_bound : t -> shard:int -> floatarray -> unit
(** Lookahead mode: block until [bound(shard)] exceeds the shard's own
    publication (what it has completed, 0 before its first
    {!publish}), then write the bound (≤ horizon) into slot 0 of the
    cell. Returns at once with the horizon once the horizon is the
    bound. Takes no lock and allocates nothing unless it waits.
    @raise Aborted once {!abort} has run. *)

val publish : t -> shard:int -> floatarray -> unit
(** Announce that [shard] has completed every event strictly before the
    time in slot 0 of the cell (monotone: a time at or below the last
    publication is ignored). Wakes waiting shards; takes the mutex only
    when one waits. *)

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
