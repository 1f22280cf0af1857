(** Packet-fate logs: one delivered or dropped packet per entry, in the
    order a simulation domain observed them, stored as struct-of-arrays
    (two unboxed floats and one packed int per fate — no record, no
    cons). The sequential runner keeps one log; each shard of a
    parallel run keeps its own, and the runner replays their merge.

    A domain observes fates in event-time order, so every log is sorted
    by time; {!iter_merged} relies on it. *)

type t

val create : unit -> t

val add :
  t -> time:float -> vpn:int -> band:int -> dropped:bool -> latency:float ->
  unit
(** Append one fate; [latency] is 0 for drops. [band] must fit 21 bits
    and [vpn] 40. *)

val iter :
  t ->
  (time:float -> vpn:int -> band:int -> dropped:bool -> latency:float ->
   unit) ->
  unit
(** Every fate in log order. *)

val iter_merged :
  t array ->
  (time:float -> vpn:int -> band:int -> dropped:bool -> latency:float ->
   unit) ->
  unit
(** Every fate of every log, ordered by (time, log index, position in
    its log) — a K-way merge of time-sorted logs in O(fates × logs), no
    sort and no allocation per fate. *)
