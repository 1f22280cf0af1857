module Topology = Mvpn_sim.Topology
module Spf = Mvpn_routing.Spf

type demand = { src : int; dst : int; bandwidth : float }

type placement = {
  topo : Topology.t;
  load : (int, float) Hashtbl.t;  (* link id -> planned bps *)
  mutable routed : int;
  mutable unrouted : int;
}

let fresh topo =
  { topo; load = Hashtbl.create 64; routed = 0; unrouted = 0 }

let link_load p (l : Topology.link) =
  Option.value ~default:0.0 (Hashtbl.find_opt p.load l.Topology.id)

let add_load p (l : Topology.link) bw =
  Hashtbl.replace p.load l.Topology.id (link_load p l +. bw)

let place p path bw =
  let rec go = function
    | a :: (b :: _ as rest) ->
      (match Topology.find_link p.topo a b with
       | Some l -> add_load p l bw
       | None -> ());
      go rest
    | [_] | [] -> ()
  in
  go path;
  p.routed <- p.routed + 1

let route_spf topo demands =
  let p = fresh topo in
  List.iter
    (fun d ->
       match Spf.shortest_path topo ~src:d.src ~dst:d.dst with
       | Some path -> place p path d.bandwidth
       | None -> p.unrouted <- p.unrouted + 1)
    demands;
  p

(* ECMP: split each demand equally across all shortest next hops at
   every node of the shortest-path DAG toward the destination. Distances
   are computed from the destination (duplex links, symmetric costs). *)
let route_ecmp topo demands =
  let p = fresh topo in
  List.iter
    (fun d ->
       let tree = Spf.dijkstra topo ~src:d.dst in
       if not (Float.is_finite tree.Spf.dist.(d.src)) then
         p.unrouted <- p.unrouted + 1
       else begin
         p.routed <- p.routed + 1;
         let n = Topology.node_count topo in
         let flow = Array.make n 0.0 in
         flow.(d.src) <- d.bandwidth;
         (* Upstream nodes first: larger distance to the destination. *)
         let order =
           List.sort
             (fun a b -> Float.compare tree.Spf.dist.(b) tree.Spf.dist.(a))
             (List.init n Fun.id)
         in
         List.iter
           (fun v ->
              if flow.(v) > 0.0 && v <> d.dst then begin
                let next_hops =
                  List.filter
                    (fun (u, (l : Topology.link)) ->
                       l.Topology.up
                       && Float.abs
                            (tree.Spf.dist.(u)
                             +. float_of_int l.Topology.cost
                             -. tree.Spf.dist.(v))
                          < 1e-9)
                    (Topology.neighbors topo v)
                in
                match next_hops with
                | [] -> ()  (* cannot happen on a finite-distance node *)
                | nhs ->
                  let share = flow.(v) /. float_of_int (List.length nhs) in
                  List.iter
                    (fun (u, l) ->
                       add_load p l share;
                       flow.(u) <- flow.(u) +. share)
                    nhs
              end)
           order
       end)
    demands;
  p

let route_capacity_aware topo demands =
  let p = fresh topo in
  List.iter
    (fun d ->
       let usable (l : Topology.link) =
         l.Topology.up
         && link_load p l +. d.bandwidth <= l.Topology.bandwidth
       in
       match Spf.shortest_path ~usable topo ~src:d.src ~dst:d.dst with
       | Some path -> place p path d.bandwidth
       | None -> p.unrouted <- p.unrouted + 1)
    demands;
  p

let routed p = p.routed

let unrouted p = p.unrouted

let utilization p (l : Topology.link) =
  if l.Topology.bandwidth <= 0.0 then 0.0
  else link_load p l /. l.Topology.bandwidth

let max_utilization p =
  List.fold_left
    (fun acc l -> Float.max acc (utilization p l))
    0.0 (Topology.links p.topo)

let hot_links p =
  List.filter_map
    (fun l ->
       let u = utilization p l in
       if u > 1.0 then Some (l, u) else None)
    (Topology.links p.topo)
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let upgrades_needed p =
  List.filter_map
    (fun (l : Topology.link) ->
       let excess = link_load p l -. l.Topology.bandwidth in
       if excess > 0.0 then Some (l, excess) else None)
    (Topology.links p.topo)
