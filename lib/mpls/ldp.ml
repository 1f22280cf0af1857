module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Spf = Mvpn_routing.Spf

type fec_state = {
  prefix : Prefix.t;
  fec : Fec.t;  (* [Prefix_fec prefix], built once *)
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
  (* The per-FEC SPF's scratch and tree, reused FEC after FEC. *)
  ws : Spf.workspace;
  mutable tree : Spf.tree;
}

let no_binding = -2

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
  { prefix; fec = Fec.Prefix_fec prefix; egress; bindings }

(* Does [lfib] already map [in_label] to forward toward [next_hop],
   swapping in [out] ([-1]: popping)? An entry that does is kept,
   block and all. *)
let ilm_has lfib ~in_label ~out ~next_hop =
  match Lfib.lookup lfib in_label with
  | Some { Lfib.op = Lfib.Swap o; next_hop = nh } -> o = out && nh = next_hop
  | Some { Lfib.op = Lfib.Pop; next_hop = nh } -> out < 0 && nh = next_hop
  | Some { Lfib.op = Lfib.Pop_and_ip; _ } | None -> false

(* Bring LFIB and FTN entries for one FEC up to every router's current
   shortest path toward the egress: an entry that did not move stays as
   it is, one that moved is replaced, and a router that lost the egress
   loses its entries. Returns the number of mapping advertisements this
   binding round represents.

   One SPF rooted at the egress gives every router's distance; for
   symmetric-cost duplex links the shortest path from r to the egress
   is the reverse of the egress's path to r, so the next hop of r is
   its parent in the egress-rooted tree. *)
let install t fs =
  let n = Topology.node_count t.topo in
  if Array.length t.tree.Spf.dist <> n then t.tree <- Spf.make_tree ~nodes:n;
  let tree = t.tree in
  Spf.dijkstra_into t.ws ~usable:t.usable t.topo ~src:fs.egress ~into:tree;
  let advertisements = ref 0 in
  for r = 0 to n - 1 do
    let lfib = Plane.lfib t.plane r and in_label = fs.bindings.(r) in
    if r = fs.egress then begin
      (* Under PHP the egress binding is implicit null: no ILM entry. *)
      if (not t.php)
      && not
           (match Lfib.lookup lfib in_label with
            | Some { Lfib.op = Lfib.Pop_and_ip; next_hop } ->
              next_hop = Lfib.local
            | Some _ | None -> false)
      then
        Lfib.install lfib ~in_label
          { Lfib.op = Lfib.Pop_and_ip; next_hop = Lfib.local };
      ignore (Plane.remove_ftn t.plane r fs.fec);
      (* The egress also "advertises" its binding to each neighbor. *)
      advertisements := !advertisements + Topology.up_degree t.topo r
    end
    else if Float.is_finite tree.Spf.dist.(r) then begin
      let nh = tree.Spf.parent.(r) in
      let out = fs.bindings.(nh) in
      if out = Label.implicit_null then begin
        if not (ilm_has lfib ~in_label ~out:(-1) ~next_hop:nh) then
          Lfib.install lfib ~in_label { Lfib.op = Lfib.Pop; next_hop = nh };
        ignore (Plane.remove_ftn t.plane r fs.fec)
      end
      else begin
        if not (ilm_has lfib ~in_label ~out ~next_hop:nh) then
          Lfib.install lfib ~in_label
            { Lfib.op = Lfib.Swap out; next_hop = nh };
        Plane.install_ftn t.plane r fs.fec ~push:out ~next_hop:nh
      end;
      advertisements := !advertisements + Topology.up_degree t.topo r
    end
    else begin
      if in_label >= Label.first_unreserved then
        ignore (Lfib.uninstall lfib ~in_label);
      ignore (Plane.remove_ftn t.plane r fs.fec)
    end
  done;
  !advertisements

let distribute ?(php = true) ?(usable = fun (l : Topology.link) -> l.Topology.up)
    topo plane ~fecs =
  let fec_states = List.map (allocate_bindings topo plane ~php) fecs in
  let t =
    { topo; plane; php; usable; fec_states; messages = 0;
      ws = Spf.workspace ();
      tree = Spf.make_tree ~nodes:(Topology.node_count topo) }
  in
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
    (match Plane.find_ftn t.plane router fs.fec with
     | Some e -> Some e.Plane.push
     | None -> None)

let messages t = t.messages

let fec_count t = List.length t.fec_states
