module Mpbgp = Mvpn_routing.Mpbgp
module Membership = Mvpn_core.Membership
module Site = Mvpn_core.Site
module Backbone = Mvpn_core.Backbone
module Prefix = Mvpn_net.Prefix

(* --- small sorted-collection helpers ------------------------------------ *)

let rec ins_sorted x = function
  | [] -> [x]
  | y :: _ as l when x < y -> x :: l
  | y :: rest when x = y -> y :: rest
  | y :: rest -> y :: ins_sorted x rest

let rm_sorted x l = List.filter (fun y -> y <> x) l

let arr_mem (a : int array) x =
  let lo = ref 0 and hi = ref (Array.length a) in
  while !hi - !lo > 0 do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) = x then begin lo := mid; hi := mid end
    else if a.(mid) < x then lo := mid + 1
    else hi := mid
  done;
  !lo < Array.length a && a.(!lo) = x

let arr_insert (a : int array) x =
  let n = Array.length a in
  let b = Array.make (n + 1) x in
  let i = ref 0 in
  while !i < n && a.(!i) < x do b.(!i) <- a.(!i); incr i done;
  Array.blit a !i b (!i + 1) (n - !i);
  b

let arr_remove (a : int array) x =
  let n = Array.length a in
  let b = Array.make (n - 1) 0 in
  let j = ref 0 in
  Array.iter (fun y -> if y <> x then begin b.(!j) <- y; incr j end) a;
  b

(* --- state -------------------------------------------------------------- *)

(* A group is one shared immutable route table: all VRFs with the same
   import signature (same VPN, same role-derived RT imports) reference
   the same sorted id array. Arrays are replaced, never mutated, so a
   reader can hold a snapshot across updates. The member VRFs also share
   one export list, so the group's locals are exactly the routes
   carrying [g_export]. *)
type group = {
  g_key : int;
  g_import : Mpbgp.rt list;
  g_export : Mpbgp.rt list;
  mutable g_pes : int list;  (* member VRF PEs, sorted *)
  mutable g_routes : int array;  (* interned route ids, sorted *)
}

type vrf = {
  v_pe : int;
  v_vpn : int;
  v_role : Service.role;
  v_rd : Mpbgp.rd;
  v_group : group;
  mutable v_locals : int list;  (* global site ids, sorted *)
}

type cust = {
  c_id : int;
  c_name : string;
  c_topology : Service.topology;
  mutable c_tier : Service.tier;
}

type t = {
  pe_count : int;
  pool : Service.Pool.t;
  membership : Membership.t;
  bgp : Mpbgp.t;
  customers : (int, cust) Hashtbl.t;
  vrfs : (int, vrf) Hashtbl.t;  (* vrf_key -> vrf *)
  groups : (int, group) Hashtbl.t;  (* group_key -> group *)
  importers : (int, int list) Hashtbl.t;  (* rt_value -> importing groups *)
  exporters : (int, int list) Hashtbl.t;  (* rt_value -> exporting groups *)
  site_route : (int, int) Hashtbl.t;  (* gsid -> interned route id *)
  site_info : (int, Site.t * Service.role) Hashtbl.t;
  lsps : (int, int) Hashtbl.t;  (* (ingress lsl 8) lor egress -> refcount *)
}

let role_bit = function Service.Hub -> 1 | Service.Spoke -> 0

let group_key vpn role = (vpn lsl 1) lor role_bit role

let member_key gk pe = (gk lsl 8) lor pe

let vrf_key pe vpn role = member_key (group_key vpn role) pe

let lsp_key ~ingress ~egress = (ingress lsl 8) lor egress

let pe_count t = t.pe_count
let membership t = t.membership
let mpbgp t = t.bgp

let find_customer t id =
  match Hashtbl.find_opt t.customers id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Compile: unknown customer %d" id)

let route_exn t id =
  match Mpbgp.find_route t.bgp id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Compile: dead route id %d" id)

let lsp_incr t ~ingress ~egress =
  let k = lsp_key ~ingress ~egress in
  Hashtbl.replace t.lsps k
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.lsps k))

let lsp_decr t ~ingress ~egress =
  let k = lsp_key ~ingress ~egress in
  match Hashtbl.find_opt t.lsps k with
  | None | Some 0 ->
    invalid_arg
      (Printf.sprintf "Compile: LSP refcount underflow %d->%d" ingress egress)
  | Some 1 -> Hashtbl.remove t.lsps k
  | Some n -> Hashtbl.replace t.lsps k (n - 1)

let groups_of tbl (rt : Mpbgp.rt) =
  Option.value ~default:[] (Hashtbl.find_opt tbl rt.Mpbgp.rt_value)

let link tbl k rts =
  List.iter
    (fun (rt : Mpbgp.rt) ->
       Hashtbl.replace tbl rt.Mpbgp.rt_value (k :: groups_of tbl rt))
    rts

let unlink tbl k rts =
  List.iter
    (fun (rt : Mpbgp.rt) ->
       match rm_sorted k (groups_of tbl rt) with
       | [] -> Hashtbl.remove tbl rt.Mpbgp.rt_value
       | rest -> Hashtbl.replace tbl rt.Mpbgp.rt_value rest)
    rts

(* A group's table from scratch: the locals of every VRF in a group that
   exports one of its import RTs, sorted — O(routes carrying those RTs),
   found through the exporting groups rather than a per-route index. *)
let routes_importing t (imports : Mpbgp.rt list) =
  let ids = ref [] in
  List.iter
    (fun rt ->
       List.iter
         (fun gk ->
            List.iter
              (fun pe ->
                 let v = Hashtbl.find t.vrfs (member_key gk pe) in
                 List.iter
                   (fun gsid -> ids := Hashtbl.find t.site_route gsid :: !ids)
                   v.v_locals)
              (Hashtbl.find t.groups gk).g_pes)
         (groups_of t.exporters rt))
    imports;
  Array.of_list (List.sort_uniq Int.compare !ids)

(* [fill] starts a new group with the routes already exported toward
   it — the incremental path, where a group can be (re)created long
   after its routes; the bulk compile fills every group after its one
   propagation round instead. *)
let ensure_group t (c : cust) role ~fill =
  let k = group_key c.c_id role in
  match Hashtbl.find_opt t.groups k with
  | Some g -> g
  | None ->
    let rts f = f t.pool ~topology:c.c_topology ~customer:c.c_id ~role in
    let g_import = rts Service.import_rts in
    let g_export = rts Service.export_rts in
    let g_routes = if fill then routes_importing t g_import else [||] in
    let g = { g_key = k; g_import; g_export; g_pes = []; g_routes } in
    Hashtbl.replace t.groups k g;
    link t.importers k g_import;
    link t.exporters k g_export;
    g

(* [wire] arms the LSP refcounts for the routes already in the group —
   the incremental path; the bulk compile passes [false] and fills LSPs
   in one sweep at the end. *)
let ensure_vrf t (c : cust) role pe ~wire =
  let k = vrf_key pe c.c_id role in
  match Hashtbl.find_opt t.vrfs k with
  | Some v -> v
  | None ->
    let g = ensure_group t c role ~fill:wire in
    g.g_pes <- ins_sorted pe g.g_pes;
    let v =
      { v_pe = pe; v_vpn = c.c_id; v_role = role;
        v_rd = Service.Pool.rd t.pool ~customer:c.c_id;
        v_group = g; v_locals = [] }
    in
    Hashtbl.replace t.vrfs k v;
    if wire then
      Array.iter
        (fun id ->
           let r = route_exn t id in
           if r.Mpbgp.next_hop_pe <> pe then
             lsp_incr t ~ingress:pe ~egress:r.Mpbgp.next_hop_pe)
        g.g_routes;
    v

(* Design a site into existence: VRF (created if first on this PE),
   route exported with the pool's RD/RTs and the pure-function label.
   Membership joining is the caller's business (bulk vs one-by-one). *)
let design_site t (c : cust) (spec : Service.site_spec) ~wire =
  let gsid = Service.global_site_id ~customer:c.c_id ~sid:spec.Service.sid in
  if Hashtbl.mem t.site_info gsid then
    invalid_arg
      (Printf.sprintf "Compile: site %d.%d already provisioned" c.c_id
         spec.Service.sid);
  let prefix = Service.site_prefix ~sid:spec.Service.sid in
  let site =
    Site.make ~id:gsid
      ~name:(Service.site_name ~customer:c.c_id ~sid:spec.Service.sid)
      ~vpn:c.c_id ~prefix ~ce_node:gsid ~pe_node:spec.Service.pe
  in
  let v = ensure_vrf t c spec.Service.role spec.Service.pe ~wire in
  let id =
    Mpbgp.export t.bgp
      { Mpbgp.rd = v.v_rd; prefix; next_hop_pe = spec.Service.pe;
        vpn_label = Service.vpn_label_of_site gsid;
        export_rts = v.v_group.g_export; site = gsid }
  in
  v.v_locals <- ins_sorted gsid v.v_locals;
  Hashtbl.replace t.site_route gsid id;
  Hashtbl.replace t.site_info gsid (site, spec.Service.role);
  (site, id)

let create ?(mode = Mpbgp.Full_mesh) (p : Portfolio.t) =
  let t =
    { pe_count = p.Portfolio.pe_count;
      pool = Service.Pool.create ();
      membership = Membership.create ~pe_count:p.Portfolio.pe_count ();
      bgp = Mpbgp.create ~mode ();
      customers = Hashtbl.create 256;
      vrfs = Hashtbl.create 1024;
      groups = Hashtbl.create 512;
      importers = Hashtbl.create 512;
      exporters = Hashtbl.create 512;
      site_route = Hashtbl.create 1024;
      site_info = Hashtbl.create 1024;
      lsps = Hashtbl.create 256 }
  in
  for pe = 0 to t.pe_count - 1 do Mpbgp.add_pe t.bgp pe done;
  Array.iter
    (fun (c : Service.customer) ->
       Hashtbl.replace t.customers c.Service.id
         { c_id = c.Service.id; c_name = c.Service.name;
           c_topology = c.Service.topology; c_tier = c.Service.tier })
    p.Portfolio.customers;
  t

(* The bulk group fill: one walk of the interned store in id order,
   appending each route to every group importing one of its export
   RTs — the same set {!routes_importing} finds per group. Ids come out
   ascending, so each list reversed is the sorted table; an extranet
   route can reach a group through both of its RTs, and since all of
   one id's appends happen together, the repeat is the list head. *)
let fill_groups t =
  let acc = Hashtbl.create (Hashtbl.length t.groups) in
  Hashtbl.iter (fun gk _ -> Hashtbl.replace acc gk (ref [])) t.groups;
  let into = Hashtbl.create (Hashtbl.length t.importers) in
  Hashtbl.iter
    (fun rt gks -> Hashtbl.replace into rt (List.map (Hashtbl.find acc) gks))
    t.importers;
  for id = 0 to Mpbgp.store_size t.bgp - 1 do
    match Mpbgp.find_route t.bgp id with
    | None -> ()
    | Some r ->
      List.iter
        (fun (rt : Mpbgp.rt) ->
           match Hashtbl.find_opt into rt.Mpbgp.rt_value with
           | None -> ()
           | Some cells ->
             List.iter
               (fun cell ->
                  match !cell with
                  | last :: _ when last = id -> ()
                  | ids -> cell := id :: ids)
               cells)
        r.Mpbgp.export_rts
  done;
  Hashtbl.iter
    (fun gk g ->
       let ids = !(Hashtbl.find acc gk) in
       let n = List.length ids in
       let a = Array.make n 0 in
       List.iteri (fun i id -> a.(n - 1 - i) <- id) ids;
       g.g_routes <- a)
    t.groups

(* Transport LSPs in bulk: a group's routes counted once per egress PE,
   those counts summed into a flat ingress x egress matrix for each
   member PE, and the matrix's non-zero cells written out — the same
   refcounts as one {!lsp_incr} per (member VRF, remote route). *)
let fill_lsps t =
  let n = t.pe_count in
  let per_egress = Array.make n 0 and refs = Array.make (n * n) 0 in
  Hashtbl.iter
    (fun _ g ->
       Array.fill per_egress 0 n 0;
       Array.iter
         (fun id ->
            let e = (route_exn t id).Mpbgp.next_hop_pe in
            per_egress.(e) <- per_egress.(e) + 1)
         g.g_routes;
       List.iter
         (fun pe ->
            for e = 0 to n - 1 do
              if e <> pe then
                refs.((pe * n) + e) <- refs.((pe * n) + e) + per_egress.(e)
            done)
         g.g_pes)
    t.groups;
  Array.iteri
    (fun k c ->
       if c > 0 then
         Hashtbl.replace t.lsps (lsp_key ~ingress:(k / n) ~egress:(k mod n)) c)
    refs

let compile ?mode (p : Portfolio.t) =
  let t = create ?mode p in
  (* Design every site, then one membership batch and one propagation
     round — no per-site full scans anywhere in the bulk path. *)
  let sites = ref [] in
  Array.iter
    (fun (c : Service.customer) ->
       let cust = find_customer t c.Service.id in
       List.iter
         (fun spec ->
            let site, _ = design_site t cust spec ~wire:false in
            sites := site :: !sites)
         c.Service.sites)
    p.Portfolio.customers;
  Membership.join_all t.membership (List.rev !sites);
  ignore (Mpbgp.run t.bgp);
  fill_groups t;
  fill_lsps t;
  t

(* --- incremental primitives --------------------------------------------- *)

let provision_site t ~customer ~sid ~pe =
  if pe < 0 || pe >= t.pe_count then
    invalid_arg (Printf.sprintf "Compile.provision_site: bad PE %d" pe);
  let c = find_customer t customer in
  let role = Service.default_role c.c_topology ~sid in
  let site, id = design_site t c { Service.sid; pe; role } ~wire:true in
  Membership.join t.membership site;
  ignore (Mpbgp.run t.bgp);
  let r = route_exn t id in
  let touched = ref 1 in
  List.iter
    (fun rt ->
       List.iter
         (fun gk ->
            let g = Hashtbl.find t.groups gk in
            if not (arr_mem g.g_routes id) then begin
              g.g_routes <- arr_insert g.g_routes id;
              touched := !touched + List.length g.g_pes;
              List.iter
                (fun pe' ->
                   if pe' <> r.Mpbgp.next_hop_pe then
                     lsp_incr t ~ingress:pe' ~egress:r.Mpbgp.next_hop_pe)
                g.g_pes
            end)
         (groups_of t.importers rt))
    r.Mpbgp.export_rts;
  !touched

let decommission_site t ~customer ~sid =
  let c = find_customer t customer in
  let gsid = Service.global_site_id ~customer ~sid in
  let site, role =
    match Hashtbl.find_opt t.site_info gsid with
    | Some si -> si
    | None ->
      invalid_arg
        (Printf.sprintf "Compile.decommission_site: no site %d.%d" customer
           sid)
  in
  let id = Hashtbl.find t.site_route gsid in
  let r = route_exn t id in
  ignore (Membership.leave t.membership ~site_id:gsid);
  ignore (Mpbgp.withdraw_site t.bgp ~pe:site.Site.pe_node ~site:gsid);
  ignore (Mpbgp.run t.bgp);
  let touched = ref 1 in
  (* Prune the route from every group that imported it, dropping the
     LSP references its readers held. *)
  List.iter
    (fun rt ->
       List.iter
         (fun gk ->
            let g = Hashtbl.find t.groups gk in
            if arr_mem g.g_routes id then begin
              g.g_routes <- arr_remove g.g_routes id;
              touched := !touched + List.length g.g_pes;
              List.iter
                (fun pe' ->
                   if pe' <> r.Mpbgp.next_hop_pe then
                     lsp_decr t ~ingress:pe' ~egress:r.Mpbgp.next_hop_pe)
                g.g_pes
            end)
         (groups_of t.importers rt))
    r.Mpbgp.export_rts;
  (* Shrink the VRF; tear it down when its last local site leaves, and
     the group when its last member VRF goes — a from-scratch compile
     of the shrunken portfolio would not have them. *)
  let vk = vrf_key site.Site.pe_node c.c_id role in
  let v = Hashtbl.find t.vrfs vk in
  v.v_locals <- rm_sorted gsid v.v_locals;
  if v.v_locals = [] then begin
    let g = v.v_group in
    g.g_pes <- rm_sorted v.v_pe g.g_pes;
    Array.iter
      (fun id' ->
         let r' = route_exn t id' in
         if r'.Mpbgp.next_hop_pe <> v.v_pe then
           lsp_decr t ~ingress:v.v_pe ~egress:r'.Mpbgp.next_hop_pe)
      g.g_routes;
    Hashtbl.remove t.vrfs vk;
    if g.g_pes = [] then begin
      Hashtbl.remove t.groups g.g_key;
      unlink t.importers g.g_key g.g_import;
      unlink t.exporters g.g_key g.g_export
    end
  end;
  Hashtbl.remove t.site_route gsid;
  Hashtbl.remove t.site_info gsid;
  !touched

let retier t ~customer ~tier =
  (find_customer t customer).c_tier <- tier;
  1

(* --- reporting ---------------------------------------------------------- *)

type metrics = {
  customers : int;
  sites : int;
  vrfs : int;
  groups : int;
  routes : int;
  table_entries : int;
  shared_entries : int;
  lsps : int;
  control_messages : int;
  rds : int;
  rts : int;
  bands : int array;
}

(* Remote view size: group entries minus the ones this PE originated. *)
let remote_count t (v : vrf) =
  Array.fold_left
    (fun acc id ->
       if (route_exn t id).Mpbgp.next_hop_pe <> v.v_pe then acc + 1 else acc)
    0 v.v_group.g_routes

let metrics (t : t) =
  let table = ref 0 and shared_locals = ref 0 in
  Hashtbl.iter
    (fun _ v ->
       table := !table + List.length v.v_locals + remote_count t v;
       shared_locals := !shared_locals + List.length v.v_locals)
    t.vrfs;
  let shared_groups =
    Hashtbl.fold (fun _ g acc -> acc + Array.length g.g_routes) t.groups 0
  in
  let bands = Array.make Mvpn_core.Qos_mapping.band_count 0 in
  Hashtbl.iter
    (fun _ c ->
       let b = Service.band_of_tier c.c_tier in
       bands.(b) <- bands.(b) + 1)
    t.customers;
  { customers = Hashtbl.length t.customers;
    sites = Membership.site_count t.membership;
    vrfs = Hashtbl.length t.vrfs;
    groups = Hashtbl.length t.groups;
    routes = Mpbgp.total_routes t.bgp;
    table_entries = !table;
    shared_entries = shared_groups + !shared_locals;
    lsps = Hashtbl.length t.lsps;
    control_messages = Membership.messages t.membership
                       + Mpbgp.messages_sent t.bgp;
    rds = Service.Pool.rds_allocated t.pool;
    rts = Service.Pool.rts_allocated t.pool;
    bands }

let per_pe (t : t) =
  let sites = Array.make t.pe_count 0 in
  let routes = Array.make t.pe_count 0 in
  Hashtbl.iter
    (fun _ v ->
       sites.(v.v_pe) <- sites.(v.v_pe) + List.length v.v_locals;
       routes.(v.v_pe) <-
         routes.(v.v_pe) + List.length v.v_locals + remote_count t v)
    t.vrfs;
  Array.init t.pe_count (fun pe -> (sites.(pe), routes.(pe)))

let qos_policy t ~customer =
  let c = find_customer t customer in
  (Service.band_of_tier c.c_tier, Service.objective_of_tier c.c_tier)

let vrf_locals (t : t) ~pe ~customer ~role =
  match Hashtbl.find_opt t.vrfs (vrf_key pe customer role) with
  | Some v -> v.v_locals
  | None -> []

let vrf_table (t : t) ~pe ~customer ~role =
  match Hashtbl.find_opt t.vrfs (vrf_key pe customer role) with
  | None -> []
  | Some v ->
    Array.fold_left
      (fun acc id ->
         let r = route_exn t id in
         if r.Mpbgp.next_hop_pe <> pe then r :: acc else acc)
      [] v.v_group.g_routes
    |> List.rev

(* Canonical by content, never by intern id or insertion order: an
   incremental history and a from-scratch compile of the same design
   must digest identically. *)
let fingerprint (t : t) =
  let b = Buffer.create 65536 in
  let sorted_by f tbl =
    List.sort (fun a b -> compare (f a) (f b))
      (Hashtbl.fold (fun _ v acc -> v :: acc) tbl [])
  in
  List.iter
    (fun c ->
       Printf.bprintf b "C%d:%s:%s:%s;" c.c_id c.c_name
         (Service.topology_name c.c_topology)
         (Service.tier_name c.c_tier))
    (sorted_by (fun c -> c.c_id) t.customers);
  (* One canonical entry array per group, shared by its member VRFs. *)
  let canon = Hashtbl.create 64 in
  let group_entries (g : group) =
    match Hashtbl.find_opt canon g.g_key with
    | Some e -> e
    | None ->
      let e =
        Array.map
          (fun id ->
             let r = route_exn t id in
             ( r.Mpbgp.next_hop_pe,
               Printf.sprintf "%s|%s|%d|%d"
                 (Mpbgp.rd_to_string r.Mpbgp.rd)
                 (Prefix.to_string r.Mpbgp.prefix)
                 r.Mpbgp.next_hop_pe r.Mpbgp.vpn_label ))
          g.g_routes
      in
      Array.sort (fun (_, x) (_, y) -> String.compare x y) e;
      Hashtbl.replace canon g.g_key e;
      e
  in
  let rt_values rts =
    String.concat ","
      (List.map string_of_int
         (List.sort Int.compare
            (List.map (fun (rt : Mpbgp.rt) -> rt.Mpbgp.rt_value) rts)))
  in
  List.iter
    (fun v ->
       Printf.bprintf b "V%d.%d.%s@%d:%s:e[%s]:i[%s]:l[%s];" v.v_vpn
         (role_bit v.v_role)
         (Service.role_name v.v_role)
         v.v_pe
         (Mpbgp.rd_to_string v.v_rd)
         (rt_values v.v_group.g_export)
         (rt_values v.v_group.g_import)
         (String.concat "," (List.map string_of_int v.v_locals));
       Array.iter
         (fun (nh, s) ->
            if nh <> v.v_pe then begin
              Buffer.add_string b s;
              Buffer.add_char b ';'
            end)
         (group_entries v.v_group))
    (sorted_by (fun v -> vrf_key v.v_pe v.v_vpn v.v_role) t.vrfs);
  List.iter
    (fun (k, n) -> Printf.bprintf b "L%d:%d;" k n)
    (List.sort compare (Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.lsps []));
  Digest.to_hex (Digest.string (Buffer.contents b))

let equal a b = String.equal (fingerprint a) (fingerprint b)

(* --- materialization ---------------------------------------------------- *)

type deployment = {
  backbone : Mvpn_core.Backbone.t;
  engine : Mvpn_sim.Engine.t;
  network : Mvpn_core.Network.t;
  mpls : Mvpn_core.Mpls_vpn.t;
}

let materialize ?(policy = Mvpn_core.Qos_mapping.Best_effort)
    (p : Portfolio.t) =
  let backbone = Backbone.build ~pops:p.Portfolio.pe_count () in
  let sites =
    Array.to_list p.Portfolio.customers
    |> List.concat_map (fun (c : Service.customer) ->
        List.map
          (fun (spec : Service.site_spec) ->
             Backbone.attach_site backbone
               ~id:
                 (Service.global_site_id ~customer:c.Service.id
                    ~sid:spec.Service.sid)
               ~name:
                 (Service.site_name ~customer:c.Service.id
                    ~sid:spec.Service.sid)
               ~vpn:c.Service.id
               ~prefix:(Service.site_prefix ~sid:spec.Service.sid)
               ~pop:spec.Service.pe)
          c.Service.sites)
  in
  let engine = Mvpn_sim.Engine.create () in
  let network =
    Mvpn_core.Network.create ~policy engine (Backbone.topology backbone)
  in
  let mpls =
    Mvpn_core.Mpls_vpn.deploy ~net:network ~backbone ~sites ()
  in
  { backbone; engine; network; mpls }
