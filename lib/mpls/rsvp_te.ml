module Topology = Mvpn_sim.Topology

let m_reroute_attempt = Mvpn_telemetry.Registry.counter "rsvp.reroute.attempt"
let m_reroute_skipped = Mvpn_telemetry.Registry.counter "rsvp.reroute.skipped"

type admission = Cspf | Igp_only

type class_type = Global_pool | Subpool

type tunnel = {
  id : int;
  src : int;
  dst : int;
  bandwidth : float;
  setup_priority : int;
  hold_priority : int;
  class_type : class_type;
  mutable path : int list;
  mutable up : bool;
}

type t = {
  topo : Topology.t;
  plane : Plane.t;
  php : bool;
  subpool_fraction : float;
  subpool : (int, float) Hashtbl.t;  (* link id -> premium bps reserved *)
  (* tunnel id -> topology generation at its last failed re-signal
     attempt; reroute_down skips the tunnel until the topology moves. *)
  reroute_failed : (int, int) Hashtbl.t;
  mutable tunnels : tunnel list;
  mutable next_id : int;
}

let create ?(php = true) ?(subpool_fraction = 0.4) topo plane =
  if subpool_fraction <= 0.0 || subpool_fraction > 1.0 then
    invalid_arg "Rsvp_te.create: subpool fraction outside (0, 1]";
  { topo; plane; php; subpool_fraction; subpool = Hashtbl.create 32;
    reroute_failed = Hashtbl.create 8; tunnels = []; next_id = 1 }

let subpool_reserved t (l : Topology.link) =
  Option.value ~default:0.0 (Hashtbl.find_opt t.subpool l.Topology.id)

let subpool_room t (l : Topology.link) =
  (l.Topology.bandwidth *. t.subpool_fraction) -. subpool_reserved t l

let bump_subpool t (l : Topology.link) delta =
  let v = subpool_reserved t l +. delta in
  if v <= 0.0 then Hashtbl.remove t.subpool l.Topology.id
  else Hashtbl.replace t.subpool l.Topology.id v

let links_of_path topo path =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      (match Topology.find_link topo a b with
       | Some l -> go (l :: acc) rest
       | None ->
         invalid_arg
           (Printf.sprintf "Rsvp_te: no link %d->%d on path" a b))
    | [_] | [] -> List.rev acc
  in
  go [] path

let ingress_fec tn = Fec.Tunnel_fec tn.id

(* Install the label-switched path: allocate one label per downstream
   hop, FTN at the ingress, swap at transits, pop at the end (PHP: the
   penultimate router pops; otherwise the egress pops). *)
let install_labels t tn =
  match tn.path with
  | [] | [_] -> ()
  | ingress :: rest ->
    (* Downstream routers allocate the labels they expect to receive. *)
    let hops = Array.of_list rest in
    let nhops = Array.length hops in
    let labels =
      Array.init nhops (fun i ->
          let router = hops.(i) in
          let egress = i = nhops - 1 in
          if egress && t.php then Label.implicit_null
          else Label.Allocator.alloc (Plane.allocator t.plane router))
    in
    (* Ingress FTN. *)
    (if labels.(0) = Label.implicit_null then
       (* Single-hop tunnel with PHP: traffic goes unlabelled. Keep an
          FTN entry with explicit null so the data path still has a
          steering entry for the tunnel. *)
       Plane.install_ftn t.plane ingress (ingress_fec tn)
         ~push:Label.explicit_null ~next_hop:hops.(0)
     else
       Plane.install_ftn t.plane ingress (ingress_fec tn)
         ~push:labels.(0) ~next_hop:hops.(0));
    (* Transit and egress LFIB entries. *)
    for i = 0 to nhops - 1 do
      let router = hops.(i) in
      let in_label = labels.(i) in
      if in_label <> Label.implicit_null && in_label <> Label.explicit_null
      then begin
        let entry =
          if i = nhops - 1 then
            { Lfib.op = Lfib.Pop_and_ip; next_hop = Lfib.local }
          else if labels.(i + 1) = Label.implicit_null then
            { Lfib.op = Lfib.Pop; next_hop = hops.(i + 1) }
          else { Lfib.op = Lfib.Swap labels.(i + 1); next_hop = hops.(i + 1) }
        in
        Lfib.install (Plane.lfib t.plane router) ~in_label entry
      end
    done

let release_tunnel t tn =
  if tn.path <> [] then begin
    List.iter
      (fun l ->
         Topology.release l tn.bandwidth;
         if tn.class_type = Subpool then bump_subpool t l (-.tn.bandwidth))
      (links_of_path t.topo tn.path);
    ignore (Plane.remove_ftn t.plane (List.hd tn.path) (ingress_fec tn));
    tn.path <- []
  end;
  tn.up <- false

(* Reserve bandwidth along a path; all-or-nothing. *)
let reserve_path topo path bw =
  let links = links_of_path topo path in
  let rec go done_ = function
    | [] -> true
    | l :: rest ->
      if Topology.reserve l bw then go (l :: done_) rest
      else begin
        List.iter (fun d -> Topology.release d bw) done_;
        false
      end
  in
  go [] links

let force_reserve_path topo path bw =
  List.iter
    (fun (l : Topology.link) -> l.Topology.reserved <- l.Topology.reserved +. bw)
    (links_of_path topo path)

(* The CSPF prune: a link can take a new reservation of [bandwidth] if
   it is up, has that much unreserved, and, for a sub-pool tunnel, that
   much sub-pool room. Admission and re-signalling run SPF over what
   passes it; an explicit route must pass it on every link. *)
let cspf_usable t ~class_type ~bandwidth (l : Topology.link) =
  l.Topology.up
  && Topology.available l >= bandwidth
  && (class_type = Global_pool || subpool_room t l >= bandwidth)

let cspf_path t ~class_type ~bandwidth ~src ~dst =
  Mvpn_routing.Spf.shortest_path
    ~usable:(cspf_usable t ~class_type ~bandwidth) t.topo ~src ~dst

(* Why an operator route is unusable, if it is: it must run from [src]
   to [dst] over existing links and visit no node twice. *)
let route_fault topo ~src ~dst path =
  let rec hops seen = function
    | a :: (b :: _ as rest) ->
      if List.mem b seen then
        Some (Printf.sprintf "explicit path revisits node %d" b)
      else if Topology.find_link topo a b = None then
        Some (Printf.sprintf "explicit path has no link %d->%d" a b)
      else hops (b :: seen) rest
    | [_] | [] -> None
  in
  match path with
  | [] | [_] -> Some "explicit path needs at least two nodes"
  | first :: _ ->
    if first <> src || List.nth path (List.length path - 1) <> dst then
      Some "explicit path does not run from src to dst"
    else hops [first] path

let preemptable_on t (l : Topology.link) ~setup_priority =
  List.fold_left
    (fun acc tn ->
       if tn.up && tn.hold_priority > setup_priority
       && List.exists
            (fun (pl : Topology.link) -> pl.Topology.id = l.Topology.id)
            (links_of_path t.topo tn.path)
       then acc +. tn.bandwidth
       else acc)
    0.0 t.tunnels

let signal ?explicit_path ?(setup_priority = 7) ?(hold_priority = 7)
    ?(admission = Cspf) ?(allow_preempt = false)
    ?(class_type = Global_pool) t ~src ~dst ~bandwidth =
  if setup_priority < 0 || setup_priority > 7
  || hold_priority < 0 || hold_priority > 7 then
    Error "priority outside 0-7"
  else if bandwidth < 0.0 then Error "negative bandwidth"
  else
    (* A bad operator route is refused before any tunnel id, reservation
       or label moves. *)
    match Option.bind explicit_path (route_fault t.topo ~src ~dst) with
    | Some e -> Error e
    | None ->
      (* The operator's route if every link passes [usable], else SPF
         over the links that do. *)
      let route_over usable =
        match explicit_path with
        | Some p ->
          if List.for_all usable (links_of_path t.topo p) then Some p
          else None
        | None -> Mvpn_routing.Spf.shortest_path ~usable t.topo ~src ~dst
      in
      let find_path () =
        match explicit_path, admission with
        | Some p, Igp_only -> Some p
        | None, Igp_only -> Mvpn_routing.Spf.shortest_path t.topo ~src ~dst
        | _, Cspf -> route_over (cspf_usable t ~class_type ~bandwidth)
      in
      let finish path forced =
        let tn =
          { id = t.next_id; src; dst; bandwidth; setup_priority;
            hold_priority; class_type; path; up = true }
        in
        t.next_id <- t.next_id + 1;
        (* CSPF admitted [path] (every link fits), so only the blind
           commitment can over-reserve. *)
        if forced then force_reserve_path t.topo path bandwidth
        else ignore (reserve_path t.topo path bandwidth);
        if class_type = Subpool then
          List.iter
            (fun l -> bump_subpool t l bandwidth)
            (links_of_path t.topo path);
        install_labels t tn;
        t.tunnels <- tn :: t.tunnels;
        Ok tn
      in
      match admission, find_path () with
      | Igp_only, Some path ->
        (* Blind commitment: reserve even past capacity. *)
        finish path true
      | Igp_only, None -> Error "no IGP path"
      | Cspf, Some path -> finish path false
      | Cspf, None ->
        if not allow_preempt then Error "no path satisfies constraints"
        else begin
          (* Retry treating worse-priority reservations as free. *)
          let usable (l : Topology.link) =
            l.Topology.up
            && Topology.available l +. preemptable_on t l ~setup_priority
               >= bandwidth
          in
          match route_over usable with
          | None -> Error "no path even with preemption"
          | Some path ->
            let path_links = links_of_path t.topo path in
            let on_path (tn : tunnel) =
              tn.up
              && List.exists
                   (fun (pl : Topology.link) ->
                      List.exists
                        (fun (l : Topology.link) ->
                           l.Topology.id = pl.Topology.id)
                        path_links)
                   (links_of_path t.topo tn.path)
            in
            (* Tear down victims, worst hold priority first, until the
               path fits. *)
            let victims =
              List.sort
                (fun a b -> Int.compare b.hold_priority a.hold_priority)
                (List.filter
                   (fun tn -> tn.hold_priority > setup_priority && on_path tn)
                   t.tunnels)
            in
            let fits () =
              List.for_all
                (fun l -> Topology.available l >= bandwidth)
                path_links
            in
            let rec evict = function
              | [] -> ()
              | v :: rest ->
                if not (fits ()) then begin
                  release_tunnel t v;
                  evict rest
                end
            in
            evict victims;
            if fits () then finish path false
            else Error "preemption could not free enough bandwidth"
        end

let tunnel t id = List.find_opt (fun tn -> tn.id = id) t.tunnels

let teardown t id =
  match tunnel t id with
  | Some tn when tn.up ->
    release_tunnel t tn;
    true
  | Some _ | None -> false

let tunnels t = t.tunnels

let handle_link_failure t =
  let victims =
    List.filter
      (fun tn ->
         tn.up
         && List.exists
              (fun (l : Topology.link) -> not l.Topology.up)
              (links_of_path t.topo tn.path))
      t.tunnels
  in
  List.iter (release_tunnel t) victims;
  List.length victims

(* Re-signal down tunnels. A tunnel whose last attempt failed against
   the current topology generation is skipped outright — CSPF over an
   unchanged graph cannot succeed where it just failed, so retry
   storms (backoff loops, flap bursts) cost nothing until the topology
   actually moves. *)
let reroute_down t =
  let gen = Topology.generation t.topo in
  let down = List.filter (fun tn -> not tn.up) t.tunnels in
  let restored = ref 0 in
  List.iter
    (fun tn ->
       match Hashtbl.find_opt t.reroute_failed tn.id with
       | Some g when g = gen -> Mvpn_telemetry.Counter.incr m_reroute_skipped
       | Some _ | None ->
         Mvpn_telemetry.Counter.incr m_reroute_attempt;
         match
           cspf_path t ~class_type:tn.class_type ~bandwidth:tn.bandwidth
             ~src:tn.src ~dst:tn.dst
         with
         | Some path when reserve_path t.topo path tn.bandwidth ->
           tn.path <- path;
           tn.up <- true;
           Hashtbl.remove t.reroute_failed tn.id;
           if tn.class_type = Subpool then
             List.iter
               (fun l -> bump_subpool t l tn.bandwidth)
               (links_of_path t.topo path);
           install_labels t tn;
           incr restored
         | Some _ | None -> Hashtbl.replace t.reroute_failed tn.id gen)
    down;
  (!restored, List.length down - !restored)

let overcommitted_links t =
  List.filter_map
    (fun (l : Topology.link) ->
       let excess = l.Topology.reserved -. l.Topology.bandwidth in
       if excess > 0.0 then Some (l, excess) else None)
    (Topology.links t.topo)

let reserved_fraction _t (l : Topology.link) =
  if l.Topology.bandwidth <= 0.0 then 0.0
  else l.Topology.reserved /. l.Topology.bandwidth
