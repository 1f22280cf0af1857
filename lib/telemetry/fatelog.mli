(** Packet-fate logs: one delivered or dropped packet per entry, in the
    order a simulation domain observed them, stored as struct-of-arrays
    (two unboxed floats and one packed int per fate — no record, no
    cons). Every replica the parallel runner arms keeps one, installed
    with {!Mvpn_core.Network.set_fate_log}: the network appends each
    terminal fate from its clock and latency cells, and the runner
    replays the merge of its replicas' logs into one SLO engine.

    A domain observes fates in event-time order, so every log is sorted
    by time; {!iter_merged} relies on it. *)

type t

val create : unit -> t

val length : t -> int
(** Fates recorded. *)

val record :
  t -> vpn:int -> band:int -> dropped:bool -> clock:floatarray ->
  latency:floatarray -> unit
(** Append one fate at the time in slot 0 of [clock], with the latency
    in slot 0 of [latency] (a drop records 0 and ignores the cell).
    Every argument is an int, a bool or a cell, so the call boxes
    nothing, and an append allocates only when it doubles the log.
    [band] must fit 21 bits and [vpn] 40. *)

val fate : t -> int -> float * int * int * bool * float
(** [fate log i] is the [i]th fate recorded: (time, vpn, band, dropped,
    latency). *)

val iter_merged : t array -> (int -> int -> unit) -> unit
(** [iter_merged logs f] calls [f j i] for the [i]th fate of
    [logs.(j)], over every fate of every log, ordered by (time, log
    index, position in its log) — a K-way merge of time-sorted logs in
    O(fates × logs), no sort and no allocation per fate. A single log
    replays in log order. *)

val replay : t array -> Slo.t -> unit
(** Observe every fate of {!iter_merged}'s order in the engine — a
    delivery with its latency, a drop as a drop — through its cell
    observers ({!Slo.observe_delivery_cell}, {!Slo.observe_drop_cell}).
    Allocates nothing per fate: its words do not grow with the number
    of fates, only with the window closes' own events. *)
