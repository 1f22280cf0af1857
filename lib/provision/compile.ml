module Mpbgp = Mvpn_routing.Mpbgp
module Membership = Mvpn_core.Membership
module Backbone = Mvpn_core.Backbone
module Prefix = Mvpn_net.Prefix

(* --- small sorted-collection helpers ------------------------------------ *)

(* Insert into a list kept in descending order: adding a value above
   every other is a cons. *)
let rec ins_desc x = function
  | [] -> [x]
  | y :: _ as l when x > y -> x :: l
  | y :: rest when x = y -> y :: rest
  | y :: rest -> y :: ins_desc x rest

let remove x l = List.filter (fun y -> y <> x) l

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
  mutable g_pes : int list;  (* member VRF PEs, newest first *)
  mutable g_routes : int array;  (* interned route ids, sorted *)
}

type vrf = {
  v_pe : int;
  v_vpn : int;
  v_role : Service.role;
  v_rd : Mpbgp.rd;
  v_group : group;
  mutable v_locals : int list;  (* global site ids, descending *)
}

(* Every table here is keyed on packed ints (global site ids are
   [customer lsl 16 lor sid]). *)
module Int_tbl = Mvpn_sim.Int_tbl

type cust = {
  c_id : int;
  c_name : string;
  c_topology : Service.topology;
  mutable c_tier : Service.tier;
  mutable c_sites : int;  (* live sites: the members a join or leave tells *)
}

type t = {
  pe_count : int;
  pool : Service.Pool.t;
  mutable membership_messages : int;
  bgp : Mpbgp.t;
  customers : cust Int_tbl.t;
  vrfs : vrf Int_tbl.t;  (* vrf_key -> vrf *)
  groups : group Int_tbl.t;  (* group_key -> group *)
  importers : int list Int_tbl.t;  (* rt_value -> importing groups *)
  exporters : int list Int_tbl.t;  (* rt_value -> exporting groups *)
  sites : int Int_tbl.t;  (* gsid -> site_entry of its route and role *)
  lsps : int Int_tbl.t;  (* (ingress lsl 8) lor egress -> refcount *)
  mutable prefixes : Prefix.t option array;  (* sid -> its site prefix *)
}

let role_bit = function Service.Hub -> 1 | Service.Spoke -> 0

let group_key vpn role = (vpn lsl 1) lor role_bit role

let member_key gk pe = (gk lsl 8) lor pe

let vrf_key pe vpn role = member_key (group_key vpn role) pe

let lsp_key ~ingress ~egress = (ingress lsl 8) lor egress

(* A provisioned site is the id of the route it exports and the role of
   its VRF; the site's PE is the route's. *)
let site_entry ~route role = (route lsl 1) lor role_bit role
let entry_route e = e lsr 1
let entry_role e = if e land 1 = 1 then Service.Hub else Service.Spoke

let pe_count t = t.pe_count
let mpbgp t = t.bgp
let control_messages t = t.membership_messages + Mpbgp.messages_sent t.bgp

(* One join or leave, billed as a [Directory] registry of the
   customer's live sites would bill it. *)
let bill_membership t (c : cust) =
  t.membership_messages <-
    t.membership_messages
    + Membership.notify_cost Membership.Directory ~pe_count:t.pe_count
        ~others:c.c_sites

let find_customer t id =
  match Int_tbl.find_opt t.customers id with
  | Some c -> c
  | None -> invalid_arg (Printf.sprintf "Compile: unknown customer %d" id)

let route_exn t id =
  match Mpbgp.find_route t.bgp id with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Compile: dead route id %d" id)

let route_pe t id = Mpbgp.route_pe t.bgp id

let route_rts t id = Mpbgp.rt_set t.bgp (Mpbgp.route_rts t.bgp id)

let lsp_incr t ~ingress ~egress =
  let k = lsp_key ~ingress ~egress in
  Int_tbl.replace t.lsps k
    (1 + Option.value ~default:0 (Int_tbl.find_opt t.lsps k))

let lsp_decr t ~ingress ~egress =
  let k = lsp_key ~ingress ~egress in
  match Int_tbl.find_opt t.lsps k with
  | None | Some 0 ->
    invalid_arg
      (Printf.sprintf "Compile: LSP refcount underflow %d->%d" ingress egress)
  | Some 1 -> Int_tbl.remove t.lsps k
  | Some n -> Int_tbl.replace t.lsps k (n - 1)

let groups_of tbl (rt : Mpbgp.rt) =
  Option.value ~default:[] (Int_tbl.find_opt tbl rt.Mpbgp.rt_value)

let link tbl k rts =
  List.iter
    (fun (rt : Mpbgp.rt) ->
       Int_tbl.replace tbl rt.Mpbgp.rt_value (k :: groups_of tbl rt))
    rts

let unlink tbl k rts =
  List.iter
    (fun (rt : Mpbgp.rt) ->
       match remove k (groups_of tbl rt) with
       | [] -> Int_tbl.remove tbl rt.Mpbgp.rt_value
       | rest -> Int_tbl.replace tbl rt.Mpbgp.rt_value rest)
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
                 let v = Int_tbl.find t.vrfs (member_key gk pe) in
                 List.iter
                   (fun gsid ->
                      ids := entry_route (Int_tbl.find t.sites gsid) :: !ids)
                   v.v_locals)
              (Int_tbl.find t.groups gk).g_pes)
         (groups_of t.exporters rt))
    imports;
  Array.of_list (List.sort_uniq Int.compare !ids)

(* [fill] starts a new group with the routes already exported toward
   it — the incremental path, where a group can be (re)created long
   after its routes; the bulk compile fills every group after its one
   propagation round instead. *)
let ensure_group t (c : cust) role ~fill =
  let k = group_key c.c_id role in
  match Int_tbl.find_opt t.groups k with
  | Some g -> g
  | None ->
    let rts f = f t.pool ~topology:c.c_topology ~customer:c.c_id ~role in
    let g_import = rts Service.import_rts in
    let g_export = rts Service.export_rts in
    let g_routes = if fill then routes_importing t g_import else [||] in
    let g = { g_key = k; g_import; g_export; g_pes = []; g_routes } in
    Int_tbl.replace t.groups k g;
    link t.importers k g_import;
    link t.exporters k g_export;
    g

(* [wire] arms the LSP refcounts for the routes already in the group —
   the incremental path; the bulk compile passes [false] and fills LSPs
   in one sweep at the end. *)
let ensure_vrf t (c : cust) role pe ~wire =
  let k = vrf_key pe c.c_id role in
  match Int_tbl.find t.vrfs k with
  | v -> v
  | exception Not_found ->
    let g = ensure_group t c role ~fill:wire in
    g.g_pes <- pe :: g.g_pes;
    let v =
      { v_pe = pe; v_vpn = c.c_id; v_role = role;
        v_rd = Service.Pool.rd t.pool ~customer:c.c_id;
        v_group = g; v_locals = [] }
    in
    Int_tbl.add t.vrfs k v;
    if wire then
      Array.iter
        (fun id ->
           let egress = route_pe t id in
           if egress <> pe then lsp_incr t ~ingress:pe ~egress)
        g.g_routes;
    v

(* A site's prefix depends on its sid alone, so every site with the
   same sid shares one record. [sid] is in range: its global site id
   was built. *)
let site_prefix t sid =
  let n = Array.length t.prefixes in
  if sid >= n then begin
    let a = Array.make (min 0x10000 (max (sid + 1) (2 * n))) None in
    Array.blit t.prefixes 0 a 0 n;
    t.prefixes <- a
  end;
  match t.prefixes.(sid) with
  | Some p -> p
  | None ->
    let p = Service.site_prefix ~sid in
    t.prefixes.(sid) <- Some p;
    p

(* Design a site into existence: VRF (created if first on this PE),
   route exported with the pool's RD/RTs and the pure-function label,
   the membership join billed. Returns the route's id. *)
let design_site t (c : cust) (spec : Service.site_spec) ~wire =
  let gsid = Service.global_site_id ~customer:c.c_id ~sid:spec.Service.sid in
  if Int_tbl.mem t.sites gsid then
    invalid_arg
      (Printf.sprintf "Compile: site %d.%d already provisioned" c.c_id
         spec.Service.sid);
  let prefix = site_prefix t spec.Service.sid in
  let v = ensure_vrf t c spec.Service.role spec.Service.pe ~wire in
  let id =
    Mpbgp.export t.bgp
      { Mpbgp.rd = v.v_rd; prefix; next_hop_pe = spec.Service.pe;
        vpn_label = Service.vpn_label_of_site gsid;
        export_rts = v.v_group.g_export; site = gsid }
  in
  v.v_locals <- ins_desc gsid v.v_locals;
  Int_tbl.add t.sites gsid (site_entry ~route:id spec.Service.role);
  bill_membership t c;
  c.c_sites <- c.c_sites + 1;
  id

(* Tables sized from the portfolio: a customer has one or two groups
   and RTs, and a VRF on each PE it reaches (a table holds twice its
   buckets before it grows). *)
let create ?(mode = Mpbgp.Full_mesh) (p : Portfolio.t) =
  let customers = Array.length p.Portfolio.customers in
  let t =
    { pe_count = p.Portfolio.pe_count;
      pool = Service.Pool.create ();
      membership_messages = 0;
      bgp = Mpbgp.create ~mode ();
      customers = Int_tbl.create customers;
      vrfs = Int_tbl.create (2 * customers);
      groups = Int_tbl.create customers;
      importers = Int_tbl.create customers;
      exporters = Int_tbl.create customers;
      sites = Int_tbl.create (Portfolio.site_count p);
      lsps = Int_tbl.create 256; prefixes = [||] }
  in
  for pe = 0 to t.pe_count - 1 do Mpbgp.add_pe t.bgp pe done;
  Array.iter
    (fun (c : Service.customer) ->
       Int_tbl.replace t.customers c.Service.id
         { c_id = c.Service.id; c_name = c.Service.name;
           c_topology = c.Service.topology; c_tier = c.Service.tier;
           c_sites = 0 })
    p.Portfolio.customers;
  t

(* The bulk group fill: two walks of the interned store in id order.
   Each distinct export-RT list is resolved once to the groups that
   import one of its RTs (a group reached through both RTs of an
   extranet route counted once); the first walk counts each group's
   routes, the second writes them into arrays of exactly that size.
   Ids come out ascending, so every table is sorted — the same sets
   {!routes_importing} finds per group. *)
let fill_groups t =
  let groups =
    Array.of_list (Int_tbl.fold (fun _ g acc -> g :: acc) t.groups [])
  in
  let slot = Int_tbl.create (Array.length groups) in
  Array.iteri (fun i g -> Int_tbl.add slot g.g_key i) groups;
  let targets =
    Array.init (Mpbgp.rt_set_count t.bgp) (fun rs ->
        List.fold_left
          (fun acc rt ->
             List.fold_left
               (fun acc gk ->
                  let i = Int_tbl.find slot gk in
                  if List.mem i acc then acc else i :: acc)
               acc (groups_of t.importers rt))
          [] (Mpbgp.rt_set t.bgp rs))
  in
  let fill = Array.make (Array.length groups) 0 in
  let rec each f id = function
    | [] -> ()
    | i :: rest -> f i id; each f id rest
  in
  let walk f =
    for id = 0 to Mpbgp.store_size t.bgp - 1 do
      if Mpbgp.is_live t.bgp id then
        each f id targets.(Mpbgp.route_rts t.bgp id)
    done
  in
  walk (fun i _ -> fill.(i) <- fill.(i) + 1);
  Array.iteri
    (fun i g ->
       g.g_routes <- Array.make fill.(i) 0;
       fill.(i) <- 0)
    groups;
  walk (fun i id ->
      groups.(i).g_routes.(fill.(i)) <- id;
      fill.(i) <- fill.(i) + 1)

(* Transport LSPs in bulk: a group's routes counted once per egress PE,
   those counts summed into a flat ingress x egress matrix for each
   member PE, and the matrix's non-zero cells written out — the same
   refcounts as one {!lsp_incr} per (member VRF, remote route). *)
let fill_lsps t =
  let n = t.pe_count in
  let per_egress = Array.make n 0 and refs = Array.make (n * n) 0 in
  Int_tbl.iter
    (fun _ g ->
       Array.fill per_egress 0 n 0;
       Array.iter
         (fun id ->
            let e = route_pe t id in
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
         Int_tbl.replace t.lsps (lsp_key ~ingress:(k / n) ~egress:(k mod n)) c)
    refs

let compile ?mode (p : Portfolio.t) =
  let t = create ?mode p in
  (* Design every site, then one propagation round — no per-site full
     scans anywhere in the bulk path. *)
  Array.iter
    (fun (c : Service.customer) ->
       let cust = find_customer t c.Service.id in
       List.iter
         (fun spec -> ignore (design_site t cust spec ~wire:false))
         c.Service.sites)
    p.Portfolio.customers;
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
  let id = design_site t c { Service.sid; pe; role } ~wire:true in
  ignore (Mpbgp.run t.bgp);
  let touched = ref 1 in
  List.iter
    (fun rt ->
       List.iter
         (fun gk ->
            let g = Int_tbl.find t.groups gk in
            if not (arr_mem g.g_routes id) then begin
              g.g_routes <- arr_insert g.g_routes id;
              touched := !touched + List.length g.g_pes;
              List.iter
                (fun pe' -> if pe' <> pe then lsp_incr t ~ingress:pe' ~egress:pe)
                g.g_pes
            end)
         (groups_of t.importers rt))
    (route_rts t id);
  !touched

let decommission_site t ~customer ~sid =
  let c = find_customer t customer in
  let gsid = Service.global_site_id ~customer ~sid in
  let e =
    match Int_tbl.find_opt t.sites gsid with
    | Some e -> e
    | None ->
      invalid_arg
        (Printf.sprintf "Compile.decommission_site: no site %d.%d" customer
           sid)
  in
  let id = entry_route e and role = entry_role e in
  let egress = route_pe t id in
  c.c_sites <- c.c_sites - 1;
  bill_membership t c;
  ignore (Mpbgp.withdraw_site t.bgp ~pe:egress ~site:gsid);
  ignore (Mpbgp.run t.bgp);
  let touched = ref 1 in
  (* Prune the route from every group that imported it, dropping the
     LSP references its readers held. *)
  List.iter
    (fun rt ->
       List.iter
         (fun gk ->
            let g = Int_tbl.find t.groups gk in
            if arr_mem g.g_routes id then begin
              g.g_routes <- arr_remove g.g_routes id;
              touched := !touched + List.length g.g_pes;
              List.iter
                (fun pe' -> if pe' <> egress then lsp_decr t ~ingress:pe' ~egress)
                g.g_pes
            end)
         (groups_of t.importers rt))
    (route_rts t id);
  (* Shrink the VRF; tear it down when its last local site leaves, and
     the group when its last member VRF goes — a from-scratch compile
     of the shrunken portfolio would not have them. *)
  let vk = vrf_key egress c.c_id role in
  let v = Int_tbl.find t.vrfs vk in
  v.v_locals <- remove gsid v.v_locals;
  if v.v_locals = [] then begin
    let g = v.v_group in
    g.g_pes <- remove v.v_pe g.g_pes;
    Array.iter
      (fun id' ->
         let egress = route_pe t id' in
         if egress <> v.v_pe then lsp_decr t ~ingress:v.v_pe ~egress)
      g.g_routes;
    Int_tbl.remove t.vrfs vk;
    if g.g_pes = [] then begin
      Int_tbl.remove t.groups g.g_key;
      unlink t.importers g.g_key g.g_import;
      unlink t.exporters g.g_key g.g_export
    end
  end;
  Int_tbl.remove t.sites gsid;
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
    (fun acc id -> if route_pe t id <> v.v_pe then acc + 1 else acc)
    0 v.v_group.g_routes

let metrics (t : t) =
  let table = ref 0 and shared_locals = ref 0 in
  Int_tbl.iter
    (fun _ v ->
       table := !table + List.length v.v_locals + remote_count t v;
       shared_locals := !shared_locals + List.length v.v_locals)
    t.vrfs;
  let shared_groups =
    Int_tbl.fold (fun _ g acc -> acc + Array.length g.g_routes) t.groups 0
  in
  let bands = Array.make Mvpn_core.Qos_mapping.band_count 0 in
  Int_tbl.iter
    (fun _ c ->
       let b = Service.band_of_tier c.c_tier in
       bands.(b) <- bands.(b) + 1)
    t.customers;
  { customers = Int_tbl.length t.customers;
    sites = Int_tbl.length t.sites;
    vrfs = Int_tbl.length t.vrfs;
    groups = Int_tbl.length t.groups;
    routes = Mpbgp.total_routes t.bgp;
    table_entries = !table;
    shared_entries = shared_groups + !shared_locals;
    lsps = Int_tbl.length t.lsps;
    control_messages = control_messages t;
    rds = Service.Pool.rds_allocated t.pool;
    rts = Service.Pool.rts_allocated t.pool;
    bands }

let per_pe (t : t) =
  let sites = Array.make t.pe_count 0 in
  let routes = Array.make t.pe_count 0 in
  Int_tbl.iter
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
  match Int_tbl.find_opt t.vrfs (vrf_key pe customer role) with
  | Some v -> List.rev v.v_locals
  | None -> []

let vrf_table (t : t) ~pe ~customer ~role =
  match Int_tbl.find_opt t.vrfs (vrf_key pe customer role) with
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
      (Int_tbl.fold (fun _ v acc -> v :: acc) tbl [])
  in
  List.iter
    (fun c ->
       Printf.bprintf b "C%d:%s:%s:%s;" c.c_id c.c_name
         (Service.topology_name c.c_topology)
         (Service.tier_name c.c_tier))
    (sorted_by (fun c -> c.c_id) t.customers);
  (* One canonical entry array per group, shared by its member VRFs. *)
  let canon = Int_tbl.create 64 in
  let group_entries (g : group) =
    match Int_tbl.find_opt canon g.g_key with
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
      Int_tbl.replace canon g.g_key e;
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
         (String.concat "," (List.rev_map string_of_int v.v_locals));
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
    (List.sort compare (Int_tbl.fold (fun k n acc -> (k, n) :: acc) t.lsps []));
  Digest.to_hex (Digest.string (Buffer.contents b))

let equal a b = String.equal (fingerprint a) (fingerprint b)

(* --- materialization ---------------------------------------------------- *)

type deployment = {
  backbone : Mvpn_core.Backbone.t;
  engine : Mvpn_sim.Engine.t;
  network : Mvpn_core.Network.t;
  mpls : Mvpn_core.Mpls_vpn.t;
}

let materialize (p : Portfolio.t) =
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
    Mvpn_core.Network.create engine (Backbone.topology backbone)
  in
  let mpls =
    Mvpn_core.Mpls_vpn.deploy ~net:network ~backbone ~sites ()
  in
  { backbone; engine; network; mpls }
