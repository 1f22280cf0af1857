(** The incremental provisioning engine.

    A running {!Compile.t} absorbs portfolio churn one op at a time: a
    site add bills one membership join, exports one route, propagates
    one BGP journal entry and splices one id into the affected shared
    tables; a removal is the exact inverse; an SLA change flips one
    customer's band. Nothing is recompiled — the touched-VRF count per
    op is the honest measure of blast radius, and E19 gates single-op
    convergence at >= 10x faster than a from-scratch compile of the
    same design.

    Because every resource allocation ({!Service.Pool}, labels,
    prefixes) is a pure function of stable ids, the state after any
    interleaving of deltas is content-identical to a fresh
    {!Compile.compile} of the final portfolio — {!validate} checks that
    with the canonical fingerprint, and a qcheck property pins it over
    random interleavings. *)

type stats = {
  ops : int;
  touched_vrfs : int;  (** summed blast radius *)
  messages : int;  (** control messages the deltas cost *)
}

val apply : Compile.t -> Portfolio.op -> int
(** Apply one churn op; returns the number of VRFs touched. Also bumps
    the [provision.delta.ops] / [provision.delta.touched_vrfs]
    telemetry counters. *)

val apply_all : Compile.t -> Portfolio.op list -> stats

val oracle : ?mode:Mvpn_routing.Mpbgp.session_mode ->
  Portfolio.t -> Portfolio.op list -> Compile.t
(** The from-scratch referee: replay the ops on the portfolio purely,
    then bulk-compile the result. *)

val validate : Compile.t -> Compile.t -> bool
(** Fingerprint equality against the oracle. *)
