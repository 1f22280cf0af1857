type mechanism = Directory | Flooded

(* Members are kept per VPN, newest first, so every op that concerns one
   VPN — leave, members, discover — walks only that VPN's list, never
   the whole population (E19: 10k VPNs, 100k+ sites). *)
type vpn = {
  mutable rev_members : Site.t list;  (* reverse join order *)
  mutable size : int;
}

type t = {
  mechanism : mechanism;
  pe_count : int;
  by_id : (int, Site.t) Hashtbl.t;
  vpns : (int, vpn) Hashtbl.t;  (* vpn id -> its live members *)
  pe_sizes : (int, int) Hashtbl.t;  (* pe -> attached member count *)
  mutable messages : int;
}

let create ?(mechanism = Directory) ~pe_count () =
  { mechanism; pe_count; by_id = Hashtbl.create 64;
    vpns = Hashtbl.create 16; pe_sizes = Hashtbl.create 16;
    messages = 0 }

let pe_attachment_count t ~pe =
  Option.value ~default:0 (Hashtbl.find_opt t.pe_sizes pe)

let bump_pe t pe d =
  let n = pe_attachment_count t ~pe + d in
  if n <= 0 then Hashtbl.remove t.pe_sizes pe
  else Hashtbl.replace t.pe_sizes pe n

let members t ~vpn =
  match Hashtbl.find_opt t.vpns vpn with
  | Some v -> List.rev v.rev_members
  | None -> []

(* Cost of telling the others about one join or leave, given how many
   members remain to be told. *)
let notify_cost t ~others =
  match t.mechanism with
  | Directory ->
    (* Register with (or deregister from) the server, then notify each
       remaining member of the same VPN. *)
    1 + others
  | Flooded ->
    (* Advertised to every PE in the provider network. *)
    t.pe_count

(* The join itself is O(1): dup check, notification cost and the per-PE
   attachment count all come from the index tables — mass provisioning
   joins in linear total time. *)
let join_one t (site : Site.t) =
  let vpn = site.Site.vpn in
  let v =
    match Hashtbl.find_opt t.vpns vpn with
    | Some v -> v
    | None ->
      let v = { rev_members = []; size = 0 } in
      Hashtbl.replace t.vpns vpn v;
      v
  in
  t.messages <- t.messages + notify_cost t ~others:v.size;
  v.rev_members <- site :: v.rev_members;
  v.size <- v.size + 1;
  Hashtbl.replace t.by_id site.Site.id site;
  bump_pe t site.Site.pe_node 1

let reject_member t (site : Site.t) =
  if Hashtbl.mem t.by_id site.Site.id then
    invalid_arg
      (Printf.sprintf "Membership.join: site %d already a member"
         site.Site.id)

let join t site =
  reject_member t site;
  join_one t site

let join_all t sites =
  (* Validate the whole batch before touching any state, so a bad batch
     is rejected atomically — including duplicates within the batch. *)
  let seen = Hashtbl.create (List.length sites) in
  List.iter
    (fun (site : Site.t) ->
       reject_member t site;
       if Hashtbl.mem seen site.Site.id then
         invalid_arg
           (Printf.sprintf "Membership.join: site %d already a member"
              site.Site.id);
       Hashtbl.replace seen site.Site.id ())
    sites;
  List.iter (join_one t) sites

let leave t ~site_id =
  match Hashtbl.find_opt t.by_id site_id with
  | None -> false
  | Some site ->
    let vpn = site.Site.vpn in
    let v = Hashtbl.find t.vpns vpn in
    v.rev_members <-
      List.filter (fun (s : Site.t) -> s.Site.id <> site_id) v.rev_members;
    v.size <- v.size - 1;
    if v.size = 0 then Hashtbl.remove t.vpns vpn;
    Hashtbl.remove t.by_id site_id;
    bump_pe t site.Site.pe_node (-1);
    t.messages <- t.messages + notify_cost t ~others:v.size;
    true

let discover t ~asking =
  t.messages <- t.messages + 1;
  List.filter
    (fun (s : Site.t) -> s.Site.id <> asking.Site.id)
    (members t ~vpn:asking.Site.vpn)

let vpn_ids t =
  List.sort Int.compare (Hashtbl.fold (fun vpn _ acc -> vpn :: acc) t.vpns [])

let site_count t = Hashtbl.length t.by_id

let messages t = t.messages
