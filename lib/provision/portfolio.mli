(** Mass service design: thousands of customers, deterministically.

    The generator draws every customer from an {e indexed}
    {!Mvpn_sim.Rng.split} substream of the seed — substream [i] depends
    only on [(seed, i)], never on how many customers were generated
    before or in what order. That hygiene is load-bearing: churn
    replays, shuffled iteration and partial regeneration all produce
    byte-identical portfolios (pinned by tests).

    Site counts are heavy-tailed (Pareto, shape 1.4, minimum 3) — most
    customers are small, a few have hundreds of sites — matching the
    enterprise-VPN shape the paper's §2.1 scaling argument assumes. *)

type dist = Pareto | Uniform

val dist_name : dist -> string

type t = private {
  seed : int;
  pe_count : int;
  dist : dist;
  customers : Service.customer array;  (** index [id - 1] *)
}

val generate :
  ?dist:dist -> ?pe_count:int -> ?max_sites:int -> seed:int ->
  customers:int -> unit -> t
(** [pe_count] defaults to 12, [max_sites] (tail clamp) to 512.
    @raise Invalid_argument on a non-positive customer count or a
    [pe_count] outside [1, 64]. *)

val generate_customer :
  ?dist:dist -> ?pe_count:int -> ?max_sites:int -> seed:int -> id:int ->
  unit -> Service.customer
(** Regenerate one customer from the seed alone — the same derivation
    {!generate} uses, exposed so order-independence is testable: calling
    this for ids in any order reproduces the portfolio exactly. *)

val of_customers :
  ?dist:dist -> pe_count:int -> seed:int -> Service.customer list -> t
(** Hand-built portfolio (tests, examples). Customers must carry ids
    [1..n] in order.
    @raise Invalid_argument otherwise. *)

val site_count : t -> int

val overlay_circuits : t -> int
(** What the same portfolio would cost as an overlay: sum over
    customers of [s*(s-1)/2] point-to-point virtual circuits — the
    quadratic half of claim C1, computed arithmetically for contrast. *)

(** {1 Churn} *)

type op =
  | Add_site of { customer : int; sid : int; pe : int }
  | Remove_site of { customer : int; sid : int }
  | Change_tier of { customer : int; tier : Service.tier }

val churn : t -> seed:int -> ops:int -> op list
(** A deterministic churn sequence, valid against the evolving
    portfolio (no removal of a customer's last site, no duplicate
    sids). Op [k] draws from substream [k] of [seed], so the sequence
    replays byte-identically. *)

val apply_all : t -> op list -> t
(** Pure replay of the ops in order, on a private copy of the customer
    array.
    @raise Invalid_argument on an op inconsistent with the portfolio
    (unknown customer, duplicate or missing sid). *)
