(** Deterministic chaos engine: scripted and seeded fault timelines.

    A {!plan} is data — a list of typed faults with absolute injection
    times — so the same plan replays byte-identically on the discrete
    event engine: benches, the [mvpn chaos] command and the property
    tests all drive the same machinery. {!random_plan} draws a plan
    from an explicit {!Mvpn_sim.Rng.t} (Pareto-held faults: mostly
    blips, a heavy tail of real outages); {!schedule} arms it on a
    network. Every injection emits a typed [Fault_injected] event and
    counts [resilience.chaos.faults].

    Fault semantics:
    - [Link_flap]: duplex link down at [at], back up at [at +. hold];
    - [Node_down]: every link of [node] down for [hold] — the node
      itself keeps its state (control-plane state survives reboots
      here; the links are the blast radius);
    - [Loss_burst] / [Corrupt_burst]: arm a stateless per-packet fault
      on the a→b {!Mvpn_qos.Port} (hash-of-uid verdicts, so which
      packets die is independent of traffic interleaving), cleared
      after [duration];
    - [Session_drop]: wipe the node's FTN bindings
      ({!Mvpn_mpls.Plane.clear_ftn}) — an LDP/BGP session loss at an
      ingress; traffic degrades to IP fallback (or drops, accounted)
      until a control-plane refresh re-installs the bindings. *)

type fault =
  | Link_flap of { a : int; b : int; at : float; hold : float }
  | Node_down of { node : int; at : float; hold : float }
  | Loss_burst of {
      a : int;
      b : int;
      at : float;
      duration : float;
      loss : float;
    }
  | Corrupt_burst of {
      a : int;
      b : int;
      at : float;
      duration : float;
      corrupt : float;
    }
  | Session_drop of { node : int; at : float }

type plan = fault list

val random_plan :
  ?events:int ->
  ?nodes:int list ->
  rng:Mvpn_sim.Rng.t ->
  links:(int * int) list ->
  duration:float ->
  unit ->
  plan
(** Draw [events] (default 12) faults over [0, duration), targeting
    the given duplex links; node faults (session drops, node outages)
    only appear when [nodes] is non-empty. Sorted by injection time;
    equal seeds give equal plans.
    @raise Invalid_argument when [links] is empty. *)

val random_topology_plan :
  ?events:int ->
  nodes:int list ->
  rng:Mvpn_sim.Rng.t ->
  links:(int * int) list ->
  duration:float ->
  unit ->
  plan
(** Like {!random_plan} but drawing only topology faults — link flaps,
    session drops, node outages — never per-packet loss/corrupt bursts.
    Those key their verdicts on packet uids, whose allocation order is
    nondeterministic across domains, so topology-only plans are the
    storms a sharded soak can replay byte-identically at every shard
    count.
    @raise Invalid_argument when [links] or [nodes] is empty. *)

val schedule : Mvpn_core.Network.t -> plan -> unit
(** Arm every fault (and its recovery) on the network's engine. *)

val pp_fault : Format.formatter -> fault -> unit

val fault_json : fault -> Mvpn_telemetry.Json.t
(** One JSON object per fault, stable field order, floats rendered
    losslessly ({!Mvpn_telemetry.Json.Exact}) — the replayable scenario
    record [mvpn chaos --json] prints. *)

val plan_json : plan -> Mvpn_telemetry.Json.t
(** The whole plan as a JSON array of {!fault_json} objects. *)

val plan_of_json : string -> plan
(** Decode the shape {!plan_json} emits, structurally inverse:
    [plan_of_json (Json.to_string (plan_json p)) = p], so a plan exported
    by one run can be replayed byte-identically by another. Fields
    beyond those a fault kind needs are ignored.
    @raise Failure ["Chaos.plan_of_json: …"] naming the byte offset of a
    syntax error, or the fault index and field that failed to decode. *)
