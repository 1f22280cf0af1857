module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Plane = Mvpn_mpls.Plane
module Port = Mvpn_qos.Port
module Network = Mvpn_core.Network
module Telemetry = Mvpn_telemetry
module Json = Mvpn_telemetry.Json

let m_faults = Telemetry.Registry.counter "resilience.chaos.faults"

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

let fault_time = function
  | Link_flap { at; _ } | Node_down { at; _ } | Loss_burst { at; _ }
  | Corrupt_burst { at; _ } | Session_drop { at; _ } -> at

let pp_fault ppf = function
  | Link_flap { a; b; at; hold } ->
    Format.fprintf ppf "@ %.3fs link_flap %d-%d hold %.3fs" at a b hold
  | Node_down { node; at; hold } ->
    Format.fprintf ppf "@ %.3fs node_down %d hold %.3fs" at node hold
  | Loss_burst { a; b; at; duration; loss } ->
    Format.fprintf ppf "@ %.3fs loss_burst %d->%d %.0f%% for %.3fs" at a b
      (100.0 *. loss) duration
  | Corrupt_burst { a; b; at; duration; corrupt } ->
    Format.fprintf ppf "@ %.3fs corrupt_burst %d->%d %.0f%% for %.3fs" at a b
      (100.0 *. corrupt) duration
  | Session_drop { node; at } ->
    Format.fprintf ppf "@ %.3fs session_drop %d" at node

(* Plan floats print [Exact]: the shortest decimal that parses back to
   the same double, so plan -> JSON -> plan is the identity and a parsed
   plan replays byte-identically. *)
let fault_json f =
  Json.(
    let obj kind fields = Obj (("kind", String kind) :: fields) in
    match f with
    | Link_flap { a; b; at; hold } ->
      obj "link_flap"
        [ ("at", Exact at); ("a", Int a); ("b", Int b); ("hold", Exact hold) ]
    | Node_down { node; at; hold } ->
      obj "node_down"
        [ ("at", Exact at); ("node", Int node); ("hold", Exact hold) ]
    | Loss_burst { a; b; at; duration; loss } ->
      obj "loss_burst"
        [ ("at", Exact at); ("a", Int a); ("b", Int b);
          ("duration", Exact duration); ("loss", Exact loss) ]
    | Corrupt_burst { a; b; at; duration; corrupt } ->
      obj "corrupt_burst"
        [ ("at", Exact at); ("a", Int a); ("b", Int b);
          ("duration", Exact duration); ("corrupt", Exact corrupt) ]
    | Session_drop { node; at } ->
      obj "session_drop" [ ("at", Exact at); ("node", Int node) ])

(* Pareto hold times (shape 1.5, scale 50 ms): most faults are blips,
   a few hold long enough to force full reconvergence — the tail is
   the interesting part. Capped at half the run so every fault heals
   on stage. *)
let sample_hold rng ~duration =
  Float.min (Rng.pareto rng ~shape:1.5 ~scale:0.05) (0.5 *. duration)

let random_plan ?(events = 12) ?(nodes = []) ~rng ~links ~duration () =
  if links = [] then invalid_arg "Chaos.random_plan: no links";
  let link () =
    let (a, b) = List.nth links (Rng.int rng (List.length links)) in
    (a, b)
  in
  let faults = ref [] in
  for _ = 1 to events do
    let at = Rng.float rng duration in
    let roll = Rng.int rng 100 in
    let f =
      if roll < 45 || (roll >= 75 && nodes = []) then
        let a, b = link () in
        Link_flap { a; b; at; hold = sample_hold rng ~duration }
      else if roll < 60 then
        let a, b = link () in
        Loss_burst
          { a; b; at;
            duration = sample_hold rng ~duration;
            loss = 0.05 +. 0.4 *. Rng.uniform rng }
      else if roll < 75 then
        let a, b = link () in
        Corrupt_burst
          { a; b; at;
            duration = sample_hold rng ~duration;
            corrupt = 0.05 +. 0.25 *. Rng.uniform rng }
      else if roll < 90 then
        let node = List.nth nodes (Rng.int rng (List.length nodes)) in
        Session_drop { node; at }
      else
        let node = List.nth nodes (Rng.int rng (List.length nodes)) in
        Node_down { node; at; hold = sample_hold rng ~duration }
    in
    faults := f :: !faults
  done;
  List.stable_sort
    (fun f g -> compare (fault_time f, f) (fault_time g, g))
    !faults

let plan_json plan = Json.List (List.map fault_json plan)

let plan_of_json s =
  let error msg = failwith ("Chaos.plan_of_json: " ^ msg) in
  let fault_of idx = function
    | Json.Obj fields ->
      let field k what conv =
        match Option.bind (List.assoc_opt k fields) conv with
        | Some v -> v
        | None ->
          error (Printf.sprintf "fault %d: missing %s field %S" idx what k)
      in
      let int k =
        field k "integer" (function Json.Int n -> Some n | _ -> None)
      in
      let num k =
        field k "numeric" (function
          | Json.Int n -> Some (float_of_int n)
          | Json.Float v -> Some v
          | _ -> None)
      in
      let kind =
        field "kind" "string" (function Json.String k -> Some k | _ -> None)
      in
      (match kind with
       | "link_flap" ->
         Link_flap
           { a = int "a"; b = int "b"; at = num "at"; hold = num "hold" }
       | "node_down" ->
         Node_down { node = int "node"; at = num "at"; hold = num "hold" }
       | "loss_burst" ->
         Loss_burst
           { a = int "a"; b = int "b"; at = num "at";
             duration = num "duration"; loss = num "loss" }
       | "corrupt_burst" ->
         Corrupt_burst
           { a = int "a"; b = int "b"; at = num "at";
             duration = num "duration"; corrupt = num "corrupt" }
       | "session_drop" -> Session_drop { node = int "node"; at = num "at" }
       | k -> error (Printf.sprintf "fault %d: unknown fault kind %S" idx k))
    | _ -> error (Printf.sprintf "fault %d: expected an object" idx)
  in
  match Json.of_string s with
  | Error (offset, msg) -> error (Printf.sprintf "%s at offset %d" msg offset)
  | Ok (Json.List faults) -> List.mapi fault_of faults
  | Ok _ -> error "expected an array of faults"

(* Topology-only storms for sharded soaks: link flaps, session drops
   and node outages replicate byte-identically across shard replicas,
   while per-packet loss/corrupt bursts key their verdicts on packet
   uids — whose allocation order is nondeterministic across domains —
   and so stay sequential-only (see Packet.uid_counter). *)
let random_topology_plan ?(events = 12) ~nodes ~rng ~links ~duration () =
  if links = [] then invalid_arg "Chaos.random_topology_plan: no links";
  if nodes = [] then invalid_arg "Chaos.random_topology_plan: no nodes";
  let faults = ref [] in
  for _ = 1 to events do
    let at = Rng.float rng duration in
    let roll = Rng.int rng 100 in
    let f =
      if roll < 60 then
        let a, b = List.nth links (Rng.int rng (List.length links)) in
        Link_flap { a; b; at; hold = sample_hold rng ~duration }
      else if roll < 85 then
        let node = List.nth nodes (Rng.int rng (List.length nodes)) in
        Session_drop { node; at }
      else
        let node = List.nth nodes (Rng.int rng (List.length nodes)) in
        Node_down { node; at; hold = sample_hold rng ~duration }
    in
    faults := f :: !faults
  done;
  List.stable_sort
    (fun f g -> compare (fault_time f, f) (fault_time g, g))
    !faults

(* Per-burst fault seed, derived from the burst coordinates only — the
   same plan always arms ports with the same seeds, independent of how
   the plan was produced. *)
let burst_seed a b at =
  (((a * 1_000_003) + b) * 8191) lxor int_of_float (at *. 1e6)

let record ~fault ~a ~b ~param =
  Telemetry.Counter.incr m_faults;
  if !Telemetry.Control.enabled then
    Telemetry.Event_log.record
      (Telemetry.Registry.events ())
      (Telemetry.Event_log.Fault_injected { fault; a; b; param })

let schedule net plan =
  let engine = Network.engine net in
  let topo = Network.topology net in
  let set_node_links node up =
    List.iter
      (fun (nb, _) -> Topology.set_duplex_state topo node nb up)
      (Topology.neighbors topo node)
  in
  let port_of a b =
    match Topology.find_link topo a b with
    | Some l -> Some (Network.port net ~link_id:l.Topology.id)
    | None -> None
  in
  List.iter
    (fun f ->
       match f with
       | Link_flap { a; b; at; hold } ->
         Engine.schedule_at engine ~time:at (fun () ->
             record ~fault:"link_flap" ~a ~b ~param:hold;
             Topology.set_duplex_state topo a b false);
         Engine.schedule_at engine ~time:(at +. hold) (fun () ->
             Topology.set_duplex_state topo a b true)
       | Node_down { node; at; hold } ->
         Engine.schedule_at engine ~time:at (fun () ->
             record ~fault:"node_down" ~a:node ~b:(-1) ~param:hold;
             set_node_links node false);
         Engine.schedule_at engine ~time:(at +. hold) (fun () ->
             set_node_links node true)
       | Loss_burst { a; b; at; duration; loss } ->
         Engine.schedule_at engine ~time:at (fun () ->
             record ~fault:"loss_burst" ~a ~b ~param:loss;
             match port_of a b with
             | Some p ->
               Port.set_fault p ~loss ~seed:(burst_seed a b at) ()
             | None -> ());
         Engine.schedule_at engine ~time:(at +. duration) (fun () ->
             match port_of a b with
             | Some p -> Port.clear_fault p
             | None -> ())
       | Corrupt_burst { a; b; at; duration; corrupt } ->
         Engine.schedule_at engine ~time:at (fun () ->
             record ~fault:"corrupt_burst" ~a ~b ~param:corrupt;
             match port_of a b with
             | Some p ->
               Port.set_fault p ~corrupt ~seed:(burst_seed a b at) ()
             | None -> ());
         Engine.schedule_at engine ~time:(at +. duration) (fun () ->
             match port_of a b with
             | Some p -> Port.clear_fault p
             | None -> ())
       | Session_drop { node; at } ->
         Engine.schedule_at engine ~time:at (fun () ->
             record ~fault:"session_drop" ~a:node ~b:(-1) ~param:0.0;
             Plane.clear_ftn (Network.plane net) node))
    plan
