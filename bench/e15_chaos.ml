(* E15 — chaos storms: the same seeded fault plan replayed with fast
   reroute armed and disarmed (§3: "avoid congested, constrained or
   disabled links", now under sustained failure rather than one cut).

   The chaos harness draws a deterministic plan — link flaps with
   Pareto hold times, loss and corruption bursts, control-plane session
   drops — and replays it byte-for-byte in both regimes; IP fallback
   and backoff recovery stay armed throughout, so the only difference
   is the pre-plumbed bypasses. Every packet ends in exactly one
   accounted fate; the lost column is the sum of them. *)

open Mvpn_core
module T = Mvpn_telemetry
module H = Mvpn_resilience.Harness

let seed = 42
let duration = 20.0
let events = 16

type outcome = {
  delivered : int;
  lost : int;
  link_down : int;
  queue : int;
  fault : int;
  net_drops : int;
  frr_switched : int;
  fallback : int;
  resignals : int;
  restore_p99 : float;  (* seconds, per failure episode *)
}

(* Restoration time per failure episode, from the typed event log: a
   protected link restores at its FRR switchover (same tick); an
   unprotected one waits for the link to heal and the first re-signal
   burst after it. Episodes the run's horizon cuts off are skipped. *)
let restoration_lags entries =
  let rec lag_for src dst t0 = function
    | [] -> None
    | (e : T.Event_log.entry) :: rest ->
      if e.T.Event_log.time < t0 then lag_for src dst t0 rest
      else
        (match e.T.Event_log.event with
         | T.Event_log.Frr_switchover { src = s; dst = d }
           when s = src && d = dst ->
           Some (e.T.Event_log.time -. t0)
         | T.Event_log.Link_up { src = s; dst = d } when s = src && d = dst
           ->
           let rec next_resignal = function
             | [] -> None
             | (r : T.Event_log.entry) :: rest ->
               (match r.T.Event_log.event with
                | T.Event_log.Resignal _
                  when r.T.Event_log.time >= e.T.Event_log.time ->
                  Some (r.T.Event_log.time -. t0)
                | _ -> next_resignal rest)
           in
           next_resignal rest
         | _ -> lag_for src dst t0 rest)
  in
  List.filter_map
    (fun (e : T.Event_log.entry) ->
       match e.T.Event_log.event with
       | T.Event_log.Link_down { src; dst } ->
         lag_for src dst e.T.Event_log.time entries
       | _ -> None)
    entries

let p99 lags =
  match List.sort compare lags with
  | [] -> 0.0
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (min (n - 1) (int_of_float (ceil (0.99 *. float_of_int n)) - 1))

(* Each regime is one run, so its outcome's registry holds its own
   counters, and the event log holds its own entries. *)
let run_regime ~frr =
  let h = ref None in
  let o =
    Mvpn_par.Runner.run_sequential
      { Mvpn_par.Runner.default_config with
        pops = 8; vpns = 2; sites_per_vpn = 4; load = 0.5; duration; seed;
        prepare_replica =
          (fun sc ->
             h := Some (H.arm ~events ~frr ~fallback:true ~seed ~duration sc))
      }
  in
  let cv = T.Registry.snapshot_counter o.Mvpn_par.Runner.registry in
  let h = Option.get !h in
  let p = H.port_totals h in
  let net = Scenario.network (H.scenario h) in
  let net_drops =
    List.fold_left (fun acc (_, n) -> acc + n) 0 (Network.drop_counts net)
  in
  { delivered = cv "net.delivered";
    lost = p.H.port_queue + p.H.port_link_down + p.H.port_fault + net_drops;
    link_down = p.H.port_link_down;
    queue = p.H.port_queue;
    fault = p.H.port_fault;
    net_drops;
    frr_switched = cv "resilience.frr.switched";
    fallback = cv "resilience.fallback.packets";
    resignals = cv "resilience.recovery.resignal";
    restore_p99 =
      p99 (restoration_lags (T.Event_log.entries (T.Registry.events ()))) }

let publish tag o =
  let g name v =
    T.Gauge.set
      (T.Registry.gauge (Printf.sprintf "e15.%s.%s" tag name))
      (float_of_int v)
  in
  g "delivered" o.delivered;
  g "lost" o.lost;
  g "link_down_drops" o.link_down;
  g "resilience.frr.switched" o.frr_switched;
  g "resilience.fallback.packets" o.fallback;
  g "resilience.recovery.resignal" o.resignals;
  T.Gauge.set
    (T.Registry.gauge (Printf.sprintf "e15.%s.restore_p99_ms" tag))
    (1e3 *. o.restore_p99)

let run () =
  Tables.heading
    (Printf.sprintf
       "E15: seeded chaos storm (seed %d, %d faults over %.0fs), FRR on \
        vs off" seed events duration);
  let widths = [8; 9; 7; 10; 7; 7; 7; 7; 9; 12] in
  Tables.row widths
    [ "regime"; "delivered"; "lost"; "link-down"; "queue"; "fault"; "net";
      "frr"; "fallback"; "resignal p99" ];
  Tables.rule widths;
  let report tag o =
    Tables.row widths
      [ tag; string_of_int o.delivered; string_of_int o.lost;
        string_of_int o.link_down; string_of_int o.queue;
        string_of_int o.fault; string_of_int o.net_drops;
        string_of_int o.frr_switched; string_of_int o.fallback;
        Printf.sprintf "%.1f ms" (1e3 *. o.restore_p99) ]
  in
  let nofrr = run_regime ~frr:false in
  let frr = run_regime ~frr:true in
  report "no-frr" nofrr;
  report "frr" frr;
  publish "nofrr" nofrr;
  publish "frr" frr;
  T.Gauge.set
    (T.Registry.gauge "e15.frr_gain_packets")
    (float_of_int (nofrr.lost - frr.lost));
  Tables.note
    "\nSame fault timeline, same traffic, same recovery: without\n\
     bypasses every packet in flight across a failed link dies at the\n\
     port (link-down column) until the backoff-paced re-signal heals\n\
     the LSP; with facility backup the point of local repair pushes\n\
     the bypass label the same tick and the column goes to zero. The\n\
     frr/fallback columns count rescued packets; loss and corruption\n\
     bursts hit both regimes identically by construction. The resignal\n\
     p99 — time from a failure to the re-signal burst that restores\n\
     its LSP — is identical across regimes (recovery is the same\n\
     machinery); FRR's contribution is hiding that latency from the\n\
     data plane."
