(** Binary min-heap keyed on float priorities, with FIFO tie-breaking.

    The priority queue under shortest-path-first (the frontier of
    [Mvpn_routing.Spf]) and the engine's [Binary_heap] backend, the
    reference the {!Calendar} is checked against. Equal-key entries pop
    in insertion order, which keeps both deterministic.

    Entries sit in heap order in parallel arrays: keys in a floatarray,
    insertion seqs in an int array, payloads in an ['a array]. A warmed
    {!push_at}/{!pop_due} cycle allocates nothing, and a popped or
    cleared slot retains nothing of its payload. Same signature as
    {!Calendar}, less its introspection. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h k v] inserts [v] with priority [k]. *)

val push_at : 'a t -> floatarray -> 'a -> unit
(** {!push} with the key read from slot 0 of the caller's one-slot
    cell, so the key crosses the call unboxed. The cell is copied from,
    never retained. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element; among equal
    priorities, the earliest pushed. *)

val pop_due :
  'a t -> bound:floatarray -> strict:bool -> default:'a ->
  key_out:floatarray -> 'a
(** Allocation-free pop for hot loops. Removes and returns the
    minimum-priority element if it is due — key [<= bound.{0}], or
    [< bound.{0}] when [strict] — writing its key into [key_out.{0}];
    otherwise returns [default] (compare physically) and touches
    nothing. Never allocates, unlike the option/tuple of
    [peek]+[pop]. *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit
