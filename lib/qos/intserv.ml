module Topology = Mvpn_sim.Topology
module Flow = Mvpn_net.Flow
module Spf = Mvpn_routing.Spf

type tspec = {
  rate_bps : float;
  bucket_bytes : float;
}

type reservation = {
  flow : Flow.t;
  tspec : tspec;
  path : int list;
}

type t = {
  topo : Topology.t;
  (* Per-link promised bandwidth, by link id. *)
  link_reserved : (int, float) Hashtbl.t;
  (* Per-router flow-state count. *)
  router_state : (int, int) Hashtbl.t;
  by_id : (int, reservation) Hashtbl.t;
  by_flow : (Flow.t, int) Hashtbl.t;
  mutable next_id : int;
}

(* The share of each link IntServ may promise away. *)
let reservable_fraction = 0.75

let create topo =
  { topo; link_reserved = Hashtbl.create 64;
    router_state = Hashtbl.create 64; by_id = Hashtbl.create 64;
    by_flow = Hashtbl.create 64; next_id = 1 }

let reserved_on t (l : Topology.link) =
  Option.value ~default:0.0 (Hashtbl.find_opt t.link_reserved l.Topology.id)

let links_of_path t path =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      (match Topology.find_link t.topo a b with
       | Some l -> go (l :: acc) rest
       | None -> invalid_arg "Intserv: broken path")
    | [_] | [] -> List.rev acc
  in
  go [] path

let bump table key delta =
  let v = Option.value ~default:0 (Hashtbl.find_opt table key) + delta in
  if v <= 0 then Hashtbl.remove table key else Hashtbl.replace table key v

let bump_f table key delta =
  let v =
    Option.value ~default:0.0 (Hashtbl.find_opt table key) +. delta
  in
  if v <= 0.0 then Hashtbl.remove table key
  else Hashtbl.replace table key v

let reserve t ~src ~dst flow tspec =
  if tspec.rate_bps <= 0.0 then Error "tspec rate must be positive"
  else if tspec.bucket_bytes <= 0.0 then Error "tspec bucket must be positive"
  else if Hashtbl.mem t.by_flow flow then Error "flow already reserved"
  else
    match Spf.shortest_path t.topo ~src ~dst with
    | None -> Error "destination unreachable"
    | Some path ->
      let links = links_of_path t path in
      let fits (l : Topology.link) =
        reserved_on t l +. tspec.rate_bps
        <= l.Topology.bandwidth *. reservable_fraction
      in
      if not (List.for_all fits links) then
        Error "insufficient reservable capacity on the path"
      else begin
        let id = t.next_id in
        t.next_id <- id + 1;
        List.iter
          (fun (l : Topology.link) ->
             bump_f t.link_reserved l.Topology.id tspec.rate_bps)
          links;
        (* Every router on the path, endpoints included, holds
           classifier + scheduler state for this flow. *)
        List.iter (fun node -> bump t.router_state node 1) path;
        Hashtbl.replace t.by_id id { flow; tspec; path };
        Hashtbl.replace t.by_flow flow id;
        Ok id
      end

let release t id =
  match Hashtbl.find_opt t.by_id id with
  | None -> false
  | Some r ->
    List.iter
      (fun (l : Topology.link) ->
         bump_f t.link_reserved l.Topology.id (-.r.tspec.rate_bps))
      (links_of_path t r.path);
    List.iter (fun node -> bump t.router_state node (-1)) r.path;
    Hashtbl.remove t.by_id id;
    Hashtbl.remove t.by_flow r.flow;
    true

let reservation_count t = Hashtbl.length t.by_id

let flow_state_at t node =
  Option.value ~default:0 (Hashtbl.find_opt t.router_state node)

let total_flow_state t =
  Hashtbl.fold (fun _ v acc -> acc + v) t.router_state 0
