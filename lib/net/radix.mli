(** Path-compressed binary trie (Patricia trie) keyed by CIDR prefixes.

    This is the longest-prefix-match structure a conventional IP router
    consults for every packet — the per-packet work the paper contrasts
    with MPLS label swapping ("the less time devices spend inspecting
    traffic, the more time they have to forward it", §3). The E0
    microbenchmark measures exactly this lookup against
    {!Mvpn_mpls.Lfib} label indexing.

    The trie is mutable; it is a building block for FIBs, VRFs and the
    link-state RIBs, all of which update in place as protocols converge. *)

type 'a t
(** A mutable prefix trie with values of type ['a]. *)

val create : unit -> 'a t

val is_empty : 'a t -> bool

val cardinal : 'a t -> int
(** Number of bound prefixes. *)

val generation : 'a t -> int
(** Monotonic mutation counter: bumped by every {!add}, successful
    {!remove} and {!clear}. Two equal generations guarantee the trie
    contents have not changed in between, so lookup caches compare
    generations instead of invalidating eagerly. *)

val add : 'a t -> Prefix.t -> 'a -> unit
(** [add t p v] binds [p] to [v], replacing any previous binding of
    [p]. Re-adding the value [p] is bound to (physically) allocates
    nothing but still bumps the {!generation}. *)

val find : 'a t -> Prefix.t -> 'a option
(** Exact-match lookup. *)

val remove : 'a t -> Prefix.t -> bool
(** [remove t p] removes the exact binding of [p]; [true] if it existed. *)

val lookup : 'a t -> Ipv4.t -> (Prefix.t * 'a) option
(** [lookup t a] is the longest-prefix match for address [a]. *)

val lookup_value : 'a t -> Ipv4.t -> 'a option
(** [lookup_value t a] is [Option.map snd (lookup t a)]. *)

val iter : (Prefix.t -> 'a -> unit) -> 'a t -> unit
(** Iterates bindings in increasing (network, length) order. *)

val fold : (Prefix.t -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Folds bindings in increasing (network, length) order. *)

val to_list : 'a t -> (Prefix.t * 'a) list
(** Bindings in increasing (network, length) order. *)

val of_list : (Prefix.t * 'a) list -> 'a t

val clear : 'a t -> unit
(** Remove every binding. *)
