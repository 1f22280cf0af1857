(** Label forwarding information base: the ILM → NHLFE map of one LSR.

    Lookup is a dense array index on the 20-bit label — constant time,
    no header parsing, no prefix walk. This is the mechanical heart of
    the paper's forwarding claim (C2): contrast with
    {!Mvpn_net.Radix.lookup}, which walks a trie on the destination
    address for every packet. The E0 microbenchmark races the two. *)

(** What to do with a matching packet. *)
type op =
  | Swap of int  (** rewrite the top label and forward *)
  | Pop  (** remove the top label and forward (PHP or egress) *)
  | Pop_and_ip  (** remove the label; the packet leaves the LSP here and
                    continues by IP lookup *)

type entry = {
  op : op;
  next_hop : int;
      (** node to hand the packet to; for [Pop_and_ip] the node doing
          the IP lookup (usually this router: use {!local}) *)
}

val local : int
(** Pseudo next-hop (-1): process locally after the op. *)

(** A facility-backup NHLFE: when the link toward the protected next
    hop is down, push [push] over whatever the primary op produced and
    forward to [via] instead — the packet tunnels around the failure
    and merges back at the protected next hop, which sees exactly the
    stack it would have received. [usable] reports whether every link
    of the bypass path is currently up. *)
type protection = { push : int; via : int; usable : unit -> bool }

type t

val create : unit -> t

val install : t -> in_label:int -> entry -> unit
(** Bind an incoming label.
    @raise Invalid_argument on an invalid or reserved label. *)

val uninstall : t -> in_label:int -> bool

val lookup : t -> int -> entry option
(** Constant-time ILM lookup. Out-of-range labels return [None]. *)

val size : t -> int
(** Number of installed entries — per-LSR MPLS state (E1). *)

(** {2 Fast-reroute protection}

    Backup NHLFEs installed by the resilience layer
    ([Mvpn_resilience.Frr]) and consulted by the network I/O shell at
    transmit time when the primary link is down. They live beside the
    ILM so the point of local repair owns its own backup state, but
    {!step_packed} never reads them — protection switches packets the
    instant a link dies without recompiling anything. *)

val set_protection :
  t -> next_hop:int -> push:int -> via:int -> usable:(unit -> bool) -> unit
(** Bind (or replace) the facility backup protecting this node's link
    toward [next_hop]. @raise Invalid_argument on an invalid label. *)

val protection : t -> next_hop:int -> protection option

val clear_protections : t -> unit

val step_packed : t -> Mvpn_net.Packet.t -> int
(** Run one labelled packet through this LSR: apply the ILM entry for
    its top label, mutating the packet (swap/pop, TTL decrement). TTL
    follows the RFC 3443 uniform model: every op counts as one hop, and
    a pop copies the decremented shim TTL onto the newly exposed shim
    or IP header (never increasing an inner TTL), so looping packets
    expire on pop paths too.

    The result is packed as [((arg + 1) lsl 2) lor tag] — an immediate
    int, no constructor block per hop. Decode with {!packed_tag} /
    {!packed_arg}. The tag is one of:
    - {!tag_forward}: send to node [arg]; the label stack is already
      rewritten;
    - {!tag_ip_continue}: label(s) popped; continue with IP forwarding
      at node [arg] ({!local} means here);
    - {!tag_no_binding}: [arg] is the unknown incoming label — drop;
    - any other tag (the label TTL expired): drop.
    @raise Invalid_argument if the packet carries no label. *)

val tag_forward : int
val tag_ip_continue : int
val tag_no_binding : int
val packed_tag : int -> int
val packed_arg : int -> int
