module Topology = Mvpn_sim.Topology
module Spf = Mvpn_routing.Spf
module Plane = Mvpn_mpls.Plane
module Lfib = Mvpn_mpls.Lfib
module Label = Mvpn_mpls.Label
module Network = Mvpn_core.Network
module Telemetry = Mvpn_telemetry

let m_protected = Telemetry.Registry.counter "resilience.frr.protected_links"
let m_unprotected_links =
  Telemetry.Registry.counter "resilience.frr.unprotected_links"

type stats = { protected_links : int; unprotected_links : int }

(* The link a bypass SPF must avoid, in both directions. *)
type excluded = { mutable ex_a : int; mutable ex_b : int }

type t = {
  net : Network.t;
  links : (int * int) array;  (* directed (plr, next hop) pairs *)
  (* Bypass ILM entries installed at transit LSRs, as (node, in_label)
     pairs in the first [installed_n] slots, so rearm can retire the
     previous generation before signalling fresh paths. *)
  mutable installed_node : int array;
  mutable installed_label : int array;
  mutable installed_n : int;
  (* Link [i]'s current bypass, as link ids in the first
     [bypass_len.(i)] slots of [bypass.(i)] (grown to the longest
     bypass seen), and the [usable] check its PLR's protection record
     carries, built once per link and reading those slots live. *)
  bypass : int array array;
  bypass_len : int array;
  live : (unit -> bool) array;
  (* The bypass SPF: its excluded link, the [usable] filter reading it,
     the relax loop's scratch, the tree and the path's hops and
     labels, all reused link after link (the last three re-sized when
     the topology gained nodes since they were made). *)
  excluded : excluded;
  avoid : Topology.link -> bool;
  ws : Spf.workspace;
  mutable tree : Spf.tree;
  mutable hops : int array;
  mutable labels : int array;
  mutable stats : stats;
}

let stats t = t.stats

let record_installed t node label =
  let cap = Array.length t.installed_node in
  if t.installed_n = cap then begin
    let ncap = max 64 (2 * cap) in
    let nodes = Array.make ncap 0 and labels = Array.make ncap 0 in
    Array.blit t.installed_node 0 nodes 0 cap;
    Array.blit t.installed_label 0 labels 0 cap;
    t.installed_node <- nodes;
    t.installed_label <- labels
  end;
  t.installed_node.(t.installed_n) <- node;
  t.installed_label.(t.installed_n) <- label;
  t.installed_n <- t.installed_n + 1

(* Facility backup for the directed link a→b (link [i]): a CSPF path
   from a to b that excludes the protected link in both directions,
   one bypass label per hop, PHP at the penultimate bypass hop so b —
   the merge point — receives exactly the stack the dead link would
   have delivered. The PLR's protection record reads the bypass links
   live, so a bypass that later loses one of its own links stops being
   offered. Labels are allocated fresh, hop by hop from the PLR's side,
   on every call. *)
let protect_one t i =
  let a, b = t.links.(i) in
  let topo = Network.topology t.net in
  let plane = Network.plane t.net in
  t.excluded.ex_a <- a;
  t.excluded.ex_b <- b;
  let nodes = Topology.node_count topo in
  if Array.length t.hops <> nodes then begin
    t.tree <- Spf.make_tree ~nodes;
    t.hops <- Array.make nodes 0;
    t.labels <- Array.make nodes 0
  end;
  let tree = t.tree in
  Spf.dijkstra_into t.ws ~usable:t.avoid topo ~src:a ~into:tree;
  if b = a || not (Float.is_finite tree.Spf.dist.(b)) then false
  else begin
    (* The path a, n1 .. nk, b has [n] hops after a; n >= 2, since a
       direct hop would need the excluded link. *)
    let n = ref 0 and v = ref b in
    while !v <> a do
      incr n;
      v := tree.Spf.parent.(!v)
    done;
    let n = !n and hops = t.hops and labels = t.labels in
    let v = ref b in
    for k = n - 1 downto 0 do
      hops.(k) <- !v;
      v := tree.Spf.parent.(!v)
    done;
    for k = 0 to n - 2 do
      labels.(k) <- Label.Allocator.alloc (Plane.allocator plane hops.(k))
    done;
    for k = 0 to n - 2 do
      let entry =
        if k = n - 2 then { Lfib.op = Lfib.Pop; next_hop = hops.(n - 1) }
        else { Lfib.op = Lfib.Swap labels.(k + 1); next_hop = hops.(k + 1) }
      in
      Lfib.install (Plane.lfib plane hops.(k)) ~in_label:labels.(k) entry;
      record_installed t hops.(k) labels.(k)
    done;
    if Array.length t.bypass.(i) < n then t.bypass.(i) <- Array.make n 0;
    let ids = t.bypass.(i) in
    for k = 0 to n - 1 do
      let x = if k = 0 then a else hops.(k - 1) in
      ids.(k) <- Topology.find_link_id topo x hops.(k)
    done;
    t.bypass_len.(i) <- n;
    Lfib.set_protection (Plane.lfib plane a) ~next_hop:b ~push:labels.(0)
      ~via:hops.(0) ~usable:t.live.(i);
    true
  end

let install t =
  let ok = ref 0 in
  for i = 0 to Array.length t.links - 1 do
    if protect_one t i then incr ok
  done;
  let ok = !ok and missing = Array.length t.links - !ok in
  t.stats <- { protected_links = ok; unprotected_links = missing };
  Telemetry.Counter.set m_protected ok;
  Telemetry.Counter.set m_unprotected_links missing

let all_directed_links net =
  List.map
    (fun (l : Topology.link) -> (l.Topology.src, l.Topology.dst))
    (Topology.links (Network.topology net))

let arm ?links net =
  let links = match links with Some l -> l | None -> all_directed_links net in
  let links = Array.of_list links in
  let topo = Network.topology net in
  let nodes = Topology.node_count topo in
  let bypass = Array.make (Array.length links) [||] in
  let bypass_len = Array.make (Array.length links) 0 in
  let excluded = { ex_a = -1; ex_b = -1 } in
  let t =
    { net; links;
      installed_node = [||]; installed_label = [||]; installed_n = 0;
      bypass; bypass_len;
      live =
        Array.init (Array.length links) (fun i () ->
            let ids = bypass.(i) and up = ref true in
            for k = 0 to bypass_len.(i) - 1 do
              if not (Topology.link topo ids.(k)).Topology.up then up := false
            done;
            !up);
      excluded;
      avoid =
        (fun (l : Topology.link) ->
           l.Topology.up
           && not
                ((l.Topology.src = excluded.ex_a
                  && l.Topology.dst = excluded.ex_b)
                 || (l.Topology.src = excluded.ex_b
                     && l.Topology.dst = excluded.ex_a)));
      ws = Spf.workspace ();
      tree = Spf.make_tree ~nodes;
      hops = Array.make nodes 0;
      labels = Array.make nodes 0;
      stats = { protected_links = 0; unprotected_links = 0 } }
  in
  install t;
  t

let rearm t =
  let plane = Network.plane t.net in
  for k = 0 to t.installed_n - 1 do
    ignore
      (Lfib.uninstall (Plane.lfib plane t.installed_node.(k))
         ~in_label:t.installed_label.(k))
  done;
  t.installed_n <- 0;
  Array.iter
    (fun (a, _) -> Lfib.clear_protections (Plane.lfib plane a))
    t.links;
  install t
