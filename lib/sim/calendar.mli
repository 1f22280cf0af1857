(** Calendar queue keyed on float priorities, with FIFO tie-breaking.

    The fast event queue of the discrete-event engine (Brown 1988): a
    ring of time buckets of width [w] covering one "year" of [n]
    buckets; an event at time [k] lives in bucket [floor (k / w) mod n].
    Enqueue is O(1) (buckets are kept sorted and are short on average);
    dequeue scans forward from the current bucket and is O(1) in the
    common case. The bucket count doubles/halves with the population
    and the width is re-derived from the observed inter-event gap, so
    the structure tracks density shifts automatically.

    Equal-priority elements pop in insertion order — the exact
    [(key, seq)] total order {!Heap} implements, which keeps the two
    structures byte-interchangeable under the engine. The two share one
    signature (this one adds {!bucket_count} and {!width}); {!Heap}
    stays as the reference oracle, and the scheduler-contract property
    test drives both, through both push and both pop entry points, with
    one harness.

    Events live in int-indexed struct-of-arrays slots, recycled through
    a free list; a popped or cleared slot retains nothing of its
    payload. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val push : 'a t -> float -> 'a -> unit
(** [push q k v] inserts [v] with priority [k]. Keys must be finite. *)

val push_at : 'a t -> floatarray -> 'a -> unit
(** {!push} with the key read from slot 0 of the caller's one-slot
    staging cell: the key crosses the call unboxed, so a steady-state
    push (slots recycled) allocates nothing. The cell is copied from,
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

val bucket_count : 'a t -> int
(** Current number of buckets (introspection for tests). *)

val width : 'a t -> float
(** Current bucket width in key units (introspection for tests). *)
