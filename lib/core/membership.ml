type mechanism = Directory | Flooded

(* Members are kept per VPN, newest first, so every op that concerns one
   VPN — leave, members, discover — walks only that VPN's list, never
   the whole population (E19: 10k VPNs, 100k+ sites). *)
type vpn = {
  mutable rev_members : Site.t list;  (* reverse join order *)
  mutable size : int;
}

module Int_tbl = Mvpn_sim.Int_tbl

type t = {
  mechanism : mechanism;
  pe_count : int;
  by_id : Site.t Int_tbl.t;
  vpns : vpn Int_tbl.t;  (* vpn id -> its live members *)
  pe_sizes : int Int_tbl.t;  (* pe -> attached member count *)
  mutable messages : int;
}

let create ?(mechanism = Directory) ~pe_count () =
  { mechanism; pe_count; by_id = Int_tbl.create 64;
    vpns = Int_tbl.create 16; pe_sizes = Int_tbl.create 16;
    messages = 0 }

(* [find] rather than [find_opt]: a join looks up twice, and an option
   box per lookup would be most of what a join allocates. *)
let pe_attachment_count t ~pe =
  match Int_tbl.find t.pe_sizes pe with n -> n | exception Not_found -> 0

let bump_pe t pe d =
  let n = pe_attachment_count t ~pe + d in
  if n <= 0 then Int_tbl.remove t.pe_sizes pe
  else Int_tbl.replace t.pe_sizes pe n

let members t ~vpn =
  match Int_tbl.find_opt t.vpns vpn with
  | Some v -> List.rev v.rev_members
  | None -> []

let notify_cost mechanism ~pe_count ~others =
  match mechanism with
  | Directory ->
    (* Register with (or deregister from) the server, then notify each
       remaining member of the same VPN. *)
    1 + others
  | Flooded ->
    (* Advertised to every PE in the provider network. *)
    pe_count

let bill t ~others =
  t.messages <-
    t.messages + notify_cost t.mechanism ~pe_count:t.pe_count ~others

(* The join itself is O(1): dup check, notification cost and the per-PE
   attachment count all come from the index tables — mass provisioning
   joins in linear total time. *)
let join t (site : Site.t) =
  if Int_tbl.mem t.by_id site.Site.id then
    invalid_arg
      (Printf.sprintf "Membership.join: site %d already a member" site.Site.id);
  Int_tbl.add t.by_id site.Site.id site;
  let vpn = site.Site.vpn in
  let v =
    match Int_tbl.find t.vpns vpn with
    | v -> v
    | exception Not_found ->
      let v = { rev_members = []; size = 0 } in
      Int_tbl.replace t.vpns vpn v;
      v
  in
  bill t ~others:v.size;
  v.rev_members <- site :: v.rev_members;
  v.size <- v.size + 1;
  bump_pe t site.Site.pe_node 1

let leave t ~site_id =
  match Int_tbl.find_opt t.by_id site_id with
  | None -> false
  | Some site ->
    let vpn = site.Site.vpn in
    let v = Int_tbl.find t.vpns vpn in
    v.rev_members <-
      List.filter (fun (s : Site.t) -> s.Site.id <> site_id) v.rev_members;
    v.size <- v.size - 1;
    if v.size = 0 then Int_tbl.remove t.vpns vpn;
    Int_tbl.remove t.by_id site_id;
    bump_pe t site.Site.pe_node (-1);
    bill t ~others:v.size;
    true

(* The asker is looked up by id and answered from its stored record,
   never from the VPN the caller's record claims: a relabelled record
   learns only its own VPN, a departed or never-joined site nothing. *)
let discover t ~asking =
  t.messages <- t.messages + 1;
  match Int_tbl.find_opt t.by_id asking.Site.id with
  | None -> []
  | Some self ->
    List.filter
      (fun (s : Site.t) -> s.Site.id <> self.Site.id)
      (members t ~vpn:self.Site.vpn)

let vpn_ids t =
  List.sort Int.compare (Int_tbl.fold (fun vpn _ acc -> vpn :: acc) t.vpns [])

let site_count t = Int_tbl.length t.by_id

let messages t = t.messages
