module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Network = Mvpn_core.Network
module Telemetry = Mvpn_telemetry

let m_resignal = Telemetry.Registry.counter "resilience.recovery.resignal"
let m_suppressed = Telemetry.Registry.counter "resilience.recovery.suppressed"
let m_damped = Telemetry.Registry.counter "resilience.recovery.damped"
let m_released = Telemetry.Registry.counter "resilience.recovery.released"

(* Backoff: a 0.2 s first retry, doubling to a 5 s ceiling, with
   +-25 % jitter. Damping: 5 downs within 2 s damp a link; 3 s held up
   release it. *)
let base_delay = 0.2
let max_delay = 5.0
let jitter = 0.25
let damp_threshold = 5
let damp_window = 2.0
let reuse_after = 3.0

type link_state = {
  mutable downs : float list;  (* down transitions inside the window *)
  mutable damped : bool;
  mutable last_down : float;
}

type t = {
  net : Network.t;
  rng : Rng.t;
  repair : unit -> int * int;
  states : (int * int, link_state) Hashtbl.t;
  mutable pending : bool;  (* a repair burst is already scheduled *)
  mutable attempt : int;  (* consecutive failed bursts, drives backoff *)
}

let key a b = (min a b, max a b)

let state t a b =
  let k = key a b in
  match Hashtbl.find_opt t.states k with
  | Some s -> s
  | None ->
    let s = { downs = []; damped = false; last_down = neg_infinity } in
    Hashtbl.add t.states k s;
    s

let damped t a b =
  match Hashtbl.find_opt t.states (key a b) with
  | Some s -> s.damped
  | None -> false

let now t = Engine.now (Network.engine t.net)

(* Down duplex links — each (a, b) with a < b once — counting only the
   undamped ones when [undamped]. *)
let count_down t ~undamped =
  let topo = Network.topology t.net in
  let n = ref 0 in
  for id = 0 to Topology.link_count topo - 1 do
    let l = Topology.link topo id in
    if (not l.Topology.up) && l.Topology.src < l.Topology.dst
    && not (undamped && damped t l.Topology.src l.Topology.dst)
    then incr n
  done;
  !n

(* Fire one repair burst. While every down link is damped the burst is
   suppressed — re-signalling cannot succeed and would only thrash;
   the release path re-arms repair when a damped link holds up. *)
let rec fire t =
  t.pending <- false;
  if count_down t ~undamped:false > 0 && count_down t ~undamped:true = 0
  then Telemetry.Counter.incr m_suppressed
  else begin
    t.attempt <- t.attempt + 1;
    Telemetry.Counter.incr m_resignal;
    let restored, still_down = t.repair () in
    if !Telemetry.Control.enabled then
      Telemetry.Event_log.record
        (Telemetry.Registry.events ())
        (Telemetry.Event_log.Resignal
           { attempt = t.attempt; restored; still_down });
    if still_down = 0 then t.attempt <- 0
    else if count_down t ~undamped:true > 0 then schedule_repair t
  end

(* Exponential backoff with deterministic jitter: coalesced — while a
   burst is pending, further failures fold into it. *)
and schedule_repair t =
  if not t.pending then begin
    t.pending <- true;
    let backoff =
      Float.min max_delay (base_delay *. (2.0 ** float_of_int t.attempt))
    in
    let jit = 1.0 +. (jitter *. ((2.0 *. Rng.uniform t.rng) -. 1.0)) in
    Engine.schedule (Network.engine t.net) ~delay:(backoff *. jit) (fun () ->
        fire t)
  end

(* A damped link earns release by holding up for [reuse_after]. *)
let schedule_release t (a, b) s =
  let check_at = now t +. reuse_after in
  Engine.schedule_at (Network.engine t.net) ~time:check_at (fun () ->
      if s.damped && s.last_down < check_at -. reuse_after +. 1e-9
      then begin
        let still_up =
          match Topology.find_link (Network.topology t.net) a b with
          | Some l -> l.Topology.up
          | None -> false
        in
        if still_up then begin
          s.damped <- false;
          s.downs <- [];
          Telemetry.Counter.incr m_released;
          if !Telemetry.Control.enabled then
            Telemetry.Event_log.record
              (Telemetry.Registry.events ())
              (Telemetry.Event_log.Flap_released { src = a; dst = b });
          schedule_repair t
        end
      end)

let on_change t ~a ~b ~up =
  let s = state t a b in
  let time = now t in
  if not up then begin
    s.last_down <- time;
    s.downs <-
      time
      :: List.filter (fun d -> time -. d <= damp_window) s.downs;
    if (not s.damped) && List.length s.downs >= damp_threshold
    then begin
      s.damped <- true;
      Telemetry.Counter.incr m_damped;
      let ka, kb = key a b in
      if !Telemetry.Control.enabled then
        Telemetry.Event_log.record
          (Telemetry.Registry.events ())
          (Telemetry.Event_log.Flap_damped
             { src = ka; dst = kb; flaps = List.length s.downs })
    end;
    if not s.damped then schedule_repair t
  end
  else if s.damped then schedule_release t (key a b) s
  else schedule_repair t

let request t = schedule_repair t

let arm ~seed net ~repair =
  let t =
    { net; rng = Rng.create seed; repair;
      states = Hashtbl.create 16; pending = false; attempt = 0 }
  in
  Topology.on_duplex_change (Network.topology net) (fun ~a ~b ~up ->
      on_change t ~a ~b ~up);
  t

let damped_links t =
  Hashtbl.fold (fun k s acc -> if s.damped then k :: acc else acc) t.states []
  |> List.sort compare
