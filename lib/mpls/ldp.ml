module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Spf = Mvpn_routing.Spf

type fec_state = {
  prefix : Prefix.t;
  egress : int;
  bindings : int array;  (* per-router local label; -2 = none *)
}

type t = {
  topo : Topology.t;
  plane : Plane.t;
  php : bool;
  usable : Topology.link -> bool;
  fec_states : fec_state list;
  mutable messages : int;
}

let no_binding = -2

let fec_of_state fs = Fec.Prefix_fec fs.prefix

(* Allocate local labels for one FEC: implicit null at the egress under
   PHP, a real label everywhere (reachability is re-checked at install
   time, so allocate eagerly — liberal label retention). *)
let allocate_bindings topo plane ~php (prefix, egress) =
  let n = Topology.node_count topo in
  if egress < 0 || egress >= n then
    invalid_arg (Printf.sprintf "Ldp.distribute: unknown egress %d" egress);
  let bindings = Array.make n no_binding in
  for r = 0 to n - 1 do
    if r = egress then
      bindings.(r) <-
        (if php then Label.implicit_null
         else Label.Allocator.alloc (Plane.allocator plane r))
    else bindings.(r) <- Label.Allocator.alloc (Plane.allocator plane r)
  done;
  { prefix; egress; bindings }

(* Install LFIB and FTN entries for one FEC from every router's current
   shortest path toward the egress. Returns the number of mapping
   advertisements this binding round represents. *)
let install t fs =
  let n = Topology.node_count t.topo in
  let fec = fec_of_state fs in
  (* One SPF rooted at the egress gives every router's distance; next
     hops still need per-router trees, but first_hop from each router is
     what we need, so compute per-router trees lazily via one reverse
     tree: for symmetric-cost duplex links the shortest path from r to
     egress is the reverse of egress to r, and the next hop of r is its
     parent in the egress-rooted tree. *)
  let tree = Spf.dijkstra ~usable:t.usable t.topo ~src:fs.egress in
  let advertisements = ref 0 in
  for r = 0 to n - 1 do
    let lfib = Plane.lfib t.plane r in
    (* Drop any stale entry for this FEC's local binding. *)
    if fs.bindings.(r) >= Label.first_unreserved then
      ignore (Lfib.uninstall lfib ~in_label:fs.bindings.(r));
    ignore (Plane.remove_ftn t.plane r fec)
  done;
  for r = 0 to n - 1 do
    if r = fs.egress then begin
      if not t.php then
        Lfib.install (Plane.lfib t.plane r) ~in_label:fs.bindings.(r)
          { Lfib.op = Lfib.Pop_and_ip; next_hop = Lfib.local };
      (* The egress also "advertises" its binding to each neighbor. *)
      advertisements :=
        !advertisements + Topology.up_degree t.topo r
    end
    else if Float.is_finite tree.Spf.dist.(r) then begin
      let nh = tree.Spf.parent.(r) in
      (* parent in the egress-rooted tree = next hop toward the egress
         (duplex links with symmetric costs). *)
      let out = fs.bindings.(nh) in
      let entry =
        if out = Label.implicit_null then
          { Lfib.op = Lfib.Pop; next_hop = nh }
        else { Lfib.op = Lfib.Swap out; next_hop = nh }
      in
      Lfib.install (Plane.lfib t.plane r) ~in_label:fs.bindings.(r) entry;
      if out <> Label.implicit_null then
        Plane.install_ftn t.plane r fec { Plane.push = out; next_hop = nh };
      advertisements :=
        !advertisements + Topology.up_degree t.topo r
    end
  done;
  !advertisements

let distribute ?(php = true) ?(usable = fun (l : Topology.link) -> l.Topology.up)
    topo plane ~fecs =
  let fec_states = List.map (allocate_bindings topo plane ~php) fecs in
  let t = { topo; plane; php; usable; fec_states; messages = 0 } in
  List.iter (fun fs -> t.messages <- t.messages + install t fs) t.fec_states;
  t

let refresh t =
  List.iter (fun fs -> t.messages <- t.messages + install t fs) t.fec_states

let find_state t prefix =
  List.find_opt (fun fs -> Prefix.equal fs.prefix prefix) t.fec_states

let local_binding t ~router prefix =
  match find_state t prefix with
  | None -> None
  | Some fs ->
    if router < 0 || router >= Array.length fs.bindings then None
    else if fs.bindings.(router) = no_binding then None
    else Some fs.bindings.(router)

let ingress_label t ~router prefix =
  match find_state t prefix with
  | None -> None
  | Some fs ->
    (match Plane.find_ftn t.plane router (fec_of_state fs) with
     | Some e -> Some e.Plane.push
     | None -> None)

let messages t = t.messages

let fec_count t = List.length t.fec_states
