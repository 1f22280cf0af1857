(** Binary min-heap keyed on float priorities, with FIFO tie-breaking.

    The event queue of the discrete-event engine. Equal-time events pop
    in insertion order, which keeps simulations deterministic — the
    property every reproducibility test relies on. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push h k v] inserts [v] with priority [k]. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the minimum-priority element; among equal
    priorities, the earliest pushed. *)

val pop_due :
  'a t -> bound:float -> strict:bool -> default:'a -> key_out:floatarray -> 'a
(** Allocation-free pop for hot loops. Removes and returns the
    minimum-priority element if it is due — key [<= bound], or
    [< bound] when [strict] — writing its key into [key_out.{0}];
    otherwise returns [default] (compare physically) and touches
    nothing. Never allocates, unlike the option/tuple of
    [peek]+[pop]. *)

val peek : 'a t -> (float * 'a) option

val clear : 'a t -> unit
