module Prefix = Mvpn_net.Prefix
module Ipv4 = Mvpn_net.Ipv4

type rd = { rd_asn : int; rd_assigned : int }

type rt = { rt_asn : int; rt_value : int }

let rd_to_string rd = Printf.sprintf "%d:%d" rd.rd_asn rd.rd_assigned

let rt_to_string rt = Printf.sprintf "%d:%d" rt.rt_asn rt.rt_value

let rt_equal a b = a.rt_asn = b.rt_asn && a.rt_value = b.rt_value

type vpnv4_route = {
  rd : rd;
  prefix : Mvpn_net.Prefix.t;
  next_hop_pe : int;
  vpn_label : int;
  export_rts : rt list;
  site : int;
}

type session_mode = Full_mesh | Route_reflector of int

(* Index hashes: the fields folded by multiply-add, then a full
   avalanche finalizer, so keys that differ only in a few low or high
   bits (customer lsl 16 lor sid, a /24 network) still spread over the
   whole table. Without the finalizer, linear probing over such keys
   clusters into runs of thousands of slots. *)
let k_mul = 0x2545f4914f6cdd1d

let key_hash asn assigned prefix pe =
  Mvpn_sim.Int_tbl.hash
    ((((((assigned * k_mul) + asn) * k_mul) + prefix) * k_mul) + pe)

let site_hash pe site = Mvpn_sim.Int_tbl.hash ((site * k_mul) + pe)

module Pe_tbl = Mvpn_sim.Int_tbl

(* One route lives once, in the interned store, as a column of ints per
   field: the tables that hold it — every remote PE's Adj-RIB-In, any
   VRF route group built on top — keep only its integer id. The store
   holds no per-route pointer, so the major GC has nothing in it to
   follow, and a route costs eight words plus two bytes. RT lists, most
   of them shared by many routes, are interned once into [rt_sets] and
   a route stores the list's id.

   Ids are dense, so an Adj-RIB-In is a byte per id (1 = held) rather
   than a hash table: a delivery is a byte store. *)
type pe_state = {
  pe : int;
  mutable received : Bytes.t;  (* Adj-RIB-In bitmap over interned ids *)
}

let holds s id =
  id < Bytes.length s.received && Bytes.get s.received id = '\001'

let set_held s id held =
  Bytes.set s.received id (if held then '\001' else '\000')

(* The dirty journal is one byte per interned id, what the route needs
   at the next {!run}: [clean] nothing; [added] has never been
   propagated (deliver everywhere, count per table that gains it);
   [updated] changed content in place (everyone already has the id,
   count one UPDATE per session the mode implies); [retracted] must
   leave every Adj-RIB-In it reached (count per removal). An id goes on
   the [dirty] stack when its byte leaves [clean], so {!run} visits only
   journaled ids; one cleaned before the run (announced, then withdrawn)
   stays on the stack and is skipped there. *)
let clean = '\000'
let added = '\001'
let updated = '\002'
let retracted = '\003'

(* Open-addressed int tables with linear probing. A slot holds an id,
   [empty] or [tomb] (a removed entry, which a probe steps over and an
   insert may reuse). Both tables are keyed on fields of the id they
   hold, so a slot needs no key column. [used] counts live entries and
   tombstones; an insert that lifts it above half the slots rehashes,
   so a probe always meets an empty slot. *)
let empty = -1
let tomb = -2

type index = {
  mutable slots : int array;
  mutable used : int;
  mutable live : int;
}

let index_create () = { slots = Array.make 64 empty; used = 0; live = 0 }

type t = {
  mode : session_mode;
  mutable pes : pe_state list;  (* insertion order preserved via append *)
  by_pe : pe_state Pe_tbl.t;
  mutable messages : int;
  (* The store: per id, one entry in each column. *)
  mutable rd_asn : int array;
  mutable rd_assigned : int array;
  mutable prefix : int array;  (* network lsl 6 lor length *)
  mutable next_hop : int array;
  mutable label : int array;
  mutable site : int array;
  mutable rts : int array;  (* id into [rt_sets] *)
  mutable site_next : int array;  (* next id of the same (PE, site), or -1 *)
  mutable live : Bytes.t;  (* '\001' while [find_route] resolves the id *)
  mutable journal : Bytes.t;  (* id -> pending code *)
  mutable dirty : int array;  (* ids journaled since the last run *)
  mutable dirty_len : int;
  mutable next_id : int;
  mutable exported : int;  (* ids whose announcement stands *)
  mutable fresh : int list;  (* PEs added since last run, to back-fill *)
  (* (RD, prefix, PE) -> id, for every standing announcement. *)
  keys : index;
  (* (PE, site) -> the newest of its standing ids; [site_next] chains
     the rest. *)
  sites : index;
  rt_ids : (rt list, int) Hashtbl.t;
  mutable rt_sets : rt list array;
  mutable rt_count : int;
  (* The last set interned: a bulk export hands the same list for every
     site of a VRF, so one physical comparison skips the hash. *)
  mutable last_rts : rt list;
  mutable last_rts_id : int;
}

let create ?(mode = Full_mesh) () =
  let col () = Array.make 64 0 in
  let t =
    { mode; pes = []; by_pe = Pe_tbl.create 16; messages = 0;
      rd_asn = col (); rd_assigned = col (); prefix = col ();
      next_hop = col (); label = col (); site = col ();
      rts = col (); site_next = col (); live = Bytes.make 64 '\000';
      journal = Bytes.make 64 clean; dirty = col (); dirty_len = 0;
      next_id = 0; exported = 0; fresh = []; keys = index_create ();
      sites = index_create (); rt_ids = Hashtbl.create 64;
      rt_sets = Array.make 64 []; rt_count = 1; last_rts = [];
      last_rts_id = 0 }
  in
  (* Set 0 is the empty list, which also seeds the one-entry cache. *)
  Hashtbl.replace t.rt_ids [] 0;
  t

let find_pe t pe = Pe_tbl.find_opt t.by_pe pe

let add_pe t pe =
  if find_pe t pe <> None then
    invalid_arg (Printf.sprintf "Mpbgp.add_pe: duplicate PE %d" pe);
  let s = { pe; received = Bytes.empty } in
  t.pes <- t.pes @ [s];
  Pe_tbl.replace t.by_pe pe s;
  t.fresh <- pe :: t.fresh

let pe_count t = List.length t.pes

let session_count t =
  let n = pe_count t in
  match t.mode with
  | Full_mesh -> n * (n - 1) / 2
  | Route_reflector _ -> max 0 (n - 1)

let unknown_pe pe = invalid_arg (Printf.sprintf "Mpbgp: unknown PE %d" pe)

let get_pe t pe = match find_pe t pe with Some s -> s | None -> unknown_pe pe

let check_pe t pe = if not (Pe_tbl.mem t.by_pe pe) then unknown_pe pe

(* --- the two indexes ----------------------------------------------------- *)

(* A key of [keys] is (RD asn, RD assigned, prefix, PE); a key of
   [sites] is (site, PE), passed as [a] and [pe] with [b] and [c]
   unused. A slot's key is read from the id it holds. *)
let holds_key t idx id a b c pe =
  t.next_hop.(id) = pe
  && (if idx == t.keys then
        t.prefix.(id) = c && t.rd_assigned.(id) = b && t.rd_asn.(id) = a
      else t.site.(id) = a)

let hash t idx a b c pe =
  if idx == t.keys then key_hash a b c pe else site_hash pe a

let home t idx id =
  if idx == t.keys then
    key_hash t.rd_asn.(id) t.rd_assigned.(id) t.prefix.(id) t.next_hop.(id)
  else site_hash t.next_hop.(id) t.site.(id)

(* The slot of [idx] holding the id under the key, or [lnot s] for the
   slot [s] an insert of that key takes (the first tombstone on the
   probe path, else the empty slot ending it). *)
let slot t idx a b c pe =
  let slots = idx.slots in
  let mask = Array.length slots - 1 in
  let i = ref (hash t idx a b c pe land mask) in
  let free = ref (-1) and found = ref min_int in
  while !found = min_int do
    let id = slots.(!i) in
    if id = empty then found := lnot (if !free >= 0 then !free else !i)
    else if id = tomb then begin
      if !free < 0 then free := !i;
      i := (!i + 1) land mask
    end
    else if holds_key t idx id a b c pe then found := !i
    else i := (!i + 1) land mask
  done;
  !found

let key_slot t asn assigned prefix pe = slot t t.keys asn assigned prefix pe

let site_slot t pe site = slot t t.sites site 0 0 pe

(* Re-insert every live entry into fresh slots: twice as many when more
   than a quarter are live, else as many (which only drops the
   tombstones). *)
let rehash t idx =
  let old = idx.slots in
  let cap = Array.length old in
  let cap = if idx.live * 4 > cap then 2 * cap else cap in
  let slots = Array.make cap empty in
  let mask = cap - 1 in
  for j = 0 to Array.length old - 1 do
    let id = old.(j) in
    if id >= 0 then begin
      let i = ref (home t idx id land mask) in
      while slots.(!i) <> empty do i := (!i + 1) land mask done;
      slots.(!i) <- id
    end
  done;
  idx.slots <- slots;
  idx.used <- idx.live

(* Store [id] at the insert slot [s] a probe returned ([lnot s]). *)
let index_put t idx s id =
  if idx.slots.(s) = empty then idx.used <- idx.used + 1;
  idx.slots.(s) <- id;
  idx.live <- idx.live + 1;
  if idx.used * 2 > Array.length idx.slots then rehash t idx

let index_remove idx s =
  idx.slots.(s) <- tomb;
  idx.live <- idx.live - 1

let probe_length t idx =
  let slots = idx.slots in
  let mask = Array.length slots - 1 in
  let worst = ref 0 in
  Array.iteri
    (fun j id ->
       if id >= 0 then
         worst := max !worst (((j - home t idx id) land mask) + 1))
    slots;
  !worst

let longest_probe t = max (probe_length t t.keys) (probe_length t t.sites)

(* --- the store ----------------------------------------------------------- *)

let grow_col a n =
  let b = Array.make n 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_bytes b n fill =
  let c = Bytes.make n fill in
  Bytes.blit b 0 c 0 (Bytes.length b);
  c

let alloc t =
  if t.next_id = Array.length t.prefix then begin
    let n = 2 * t.next_id in
    t.rd_asn <- grow_col t.rd_asn n;
    t.rd_assigned <- grow_col t.rd_assigned n;
    t.prefix <- grow_col t.prefix n;
    t.next_hop <- grow_col t.next_hop n;
    t.label <- grow_col t.label n;
    t.site <- grow_col t.site n;
    t.rts <- grow_col t.rts n;
    t.site_next <- grow_col t.site_next n;
    t.live <- grow_bytes t.live n '\000';
    t.journal <- grow_bytes t.journal n clean
  end;
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let intern_rts t rts =
  if rts == t.last_rts then t.last_rts_id
  else begin
    let id =
      match Hashtbl.find_opt t.rt_ids rts with
      | Some id -> id
      | None ->
        let id = t.rt_count in
        if id = Array.length t.rt_sets then begin
          let bigger = Array.make (2 * id) [] in
          Array.blit t.rt_sets 0 bigger 0 id;
          t.rt_sets <- bigger
        end;
        t.rt_sets.(id) <- rts;
        t.rt_count <- id + 1;
        Hashtbl.replace t.rt_ids rts id;
        id
    in
    t.last_rts <- rts;
    t.last_rts_id <- id;
    id
  end

(* Set an id's journal code, stacking it if it was clean. *)
let mark t id code =
  if Bytes.get t.journal id = clean then begin
    if t.dirty_len = Array.length t.dirty then
      t.dirty <- grow_col t.dirty (2 * t.dirty_len);
    t.dirty.(t.dirty_len) <- id;
    t.dirty_len <- t.dirty_len + 1
  end;
  Bytes.set t.journal id code

(* Put [id] at the head of its (PE, site) chain. *)
let chain_push t id =
  let s = site_slot t t.next_hop.(id) t.site.(id) in
  if s >= 0 then begin
    t.site_next.(id) <- t.sites.slots.(s);
    t.sites.slots.(s) <- id
  end
  else begin
    t.site_next.(id) <- -1;
    index_put t t.sites (lnot s) id
  end

let chain_unlink t id =
  let s = site_slot t t.next_hop.(id) t.site.(id) in
  let head = t.sites.slots.(s) in
  if head = id then begin
    if t.site_next.(id) < 0 then index_remove t.sites s
    else t.sites.slots.(s) <- t.site_next.(id)
  end
  else begin
    let prev = ref head in
    while t.site_next.(!prev) <> id do prev := t.site_next.(!prev) done;
    t.site_next.(!prev) <- t.site_next.(id)
  end

let alive t id = Bytes.get t.live id = '\001'

(* A live id whose announcement stands: not withdrawn pending a run. *)
let standing t id = alive t id && Bytes.get t.journal id <> retracted

let export t route =
  let pe = route.next_hop_pe in
  check_pe t pe;
  let asn = route.rd.rd_asn and assigned = route.rd.rd_assigned in
  let prefix =
    (Ipv4.to_int (Prefix.network route.prefix) lsl 6)
    lor Prefix.length route.prefix
  in
  let rs = intern_rts t route.export_rts in
  let s = key_slot t asn assigned prefix pe in
  if s >= 0 then begin
    (* Same announcement: patch the stored fields in place. Only
       label/RT changes are UPDATE-worthy on the wire; the site rides
       along silently. *)
    let id = t.keys.slots.(s) in
    if t.site.(id) <> route.site then begin
      chain_unlink t id;
      t.site.(id) <- route.site;
      chain_push t id
    end;
    if t.label.(id) <> route.vpn_label || t.rts.(id) <> rs then begin
      t.label.(id) <- route.vpn_label;
      t.rts.(id) <- rs;
      if Bytes.get t.journal id = clean then mark t id updated
    end;
    id
  end
  else begin
    let id = alloc t in
    t.rd_asn.(id) <- asn;
    t.rd_assigned.(id) <- assigned;
    t.prefix.(id) <- prefix;
    t.next_hop.(id) <- pe;
    t.label.(id) <- route.vpn_label;
    t.site.(id) <- route.site;
    t.rts.(id) <- rs;
    Bytes.set t.live id '\001';
    index_put t t.keys (lnot s) id;
    chain_push t id;
    t.exported <- t.exported + 1;
    mark t id added;
    id
  end

let export_route t route = ignore (export t route)

let withdraw_site t ~pe ~site =
  check_pe t pe;
  let s = site_slot t pe site in
  if s < 0 then 0
  else begin
    let id = ref t.sites.slots.(s) and n = ref 0 in
    index_remove t.sites s;
    while !id >= 0 do
      let i = !id in
      id := t.site_next.(i);
      index_remove t.keys
        (key_slot t t.rd_asn.(i) t.rd_assigned.(i) t.prefix.(i) pe);
      t.exported <- t.exported - 1;
      if Bytes.get t.journal i = added then begin
        (* Announced and retracted between runs: nobody ever saw it. *)
        Bytes.set t.journal i clean;
        Bytes.set t.live i '\000'
      end
      else mark t i retracted;
      incr n
    done;
    !n
  end

(* One delivery of [id] to [d]: an UPDATE if [d] gains the route, or if
   it already holds it and the content [changed]. *)
let deliver ~changed d id =
  if holds d id then if changed then 1 else 0
  else begin
    set_held d id true;
    1
  end

let rec deliver_all ~changed ~skip ~skip' id = function
  | [] -> 0
  | d :: rest ->
    (if d.pe <> skip && d.pe <> skip' then deliver ~changed d id else 0)
    + deliver_all ~changed ~skip ~skip' id rest

(* Send an announcement from [src] under the session mode and count the
   UPDATEs: full mesh sends to every other PE; with a route reflector,
   clients send one copy to the RR which reflects to the remaining
   clients. *)
let propagate t ~changed src id =
  match t.mode with
  | Full_mesh -> deliver_all ~changed ~skip:src ~skip':src id t.pes
  | Route_reflector rr when src = rr ->
    deliver_all ~changed ~skip:rr ~skip':rr id t.pes
  | Route_reflector rr ->
    let to_rr = deliver ~changed (get_pe t rr) id in
    to_rr + deliver_all ~changed ~skip:src ~skip':rr id t.pes

let run t =
  let sent = ref 0 in
  (* Every Adj-RIB-In spans the whole store before any delivery. *)
  let cap = Array.length t.prefix in
  List.iter
    (fun d ->
       if Bytes.length d.received < cap then
         d.received <- grow_bytes d.received cap '\000')
    t.pes;
  (* Late-joining PEs first: back-fill every live route, one UPDATE per
     route the newcomer gains. Journaled routes are skipped — the
     journal pass below reaches the newcomer too. That covers all of the
     newcomer's own routes: it exported each one after joining. *)
  List.iter
    (fun pe ->
       let d = get_pe t pe in
       for id = 0 to t.next_id - 1 do
         if Bytes.get t.journal id = clean && alive t id then
           sent := !sent + deliver ~changed:false d id
       done)
    t.fresh;
  t.fresh <- [];
  for i = 0 to t.dirty_len - 1 do
    let id = t.dirty.(i) in
    let code = Bytes.get t.journal id in
    Bytes.set t.journal id clean;
    if code = retracted then begin
      List.iter
        (fun d ->
           if holds d id then begin
             set_held d id false;
             incr sent
           end)
        t.pes;
      Bytes.set t.live id '\000'
    end
    else if code <> clean && alive t id then
      sent :=
        !sent + propagate t ~changed:(code = updated) t.next_hop.(id) id
  done;
  t.dirty_len <- 0;
  (* A bulk round's stack (one slot per route) is not kept resident. *)
  if Array.length t.dirty > 4096 then t.dirty <- Array.make 64 0;
  t.messages <- t.messages + !sent;
  !sent

(* --- readers ------------------------------------------------------------- *)

let issued t id = id >= 0 && id < t.next_id

let check t fn id =
  if not (issued t id) then
    invalid_arg (Printf.sprintf "Mpbgp.%s: id %d never issued" fn id)

let is_live t id = check t "is_live" id; alive t id

let route_pe t id = check t "route_pe" id; t.next_hop.(id)

let route_rts t id = check t "route_rts" id; t.rts.(id)

let rt_set t rs =
  if rs < 0 || rs >= t.rt_count then
    invalid_arg (Printf.sprintf "Mpbgp.rt_set: set %d never interned" rs);
  t.rt_sets.(rs)

let rt_set_count t = t.rt_count

(* Cold paths: a record built from the columns on every read. *)
let route t id =
  { rd = { rd_asn = t.rd_asn.(id); rd_assigned = t.rd_assigned.(id) };
    prefix =
      Prefix.make (Ipv4.of_int32_exn (t.prefix.(id) lsr 6))
        (t.prefix.(id) land 63);
    next_hop_pe = t.next_hop.(id); vpn_label = t.label.(id);
    export_rts = t.rt_sets.(t.rts.(id)); site = t.site.(id) }

let find_route t id =
  if issued t id && alive t id then Some (route t id) else None

let iter_exported t f =
  for id = 0 to t.next_id - 1 do
    if standing t id then f id (route t id)
  done

(* Fold over a PE's Adj-RIB-In in descending id order, so a consing
   [f] yields ascending (export) order. *)
let fold_received t s f acc =
  let acc = ref acc in
  for id = min (Bytes.length s.received) t.next_id - 1 downto 0 do
    if Bytes.get s.received id = '\001' && alive t id then
      acc := f id !acc
  done;
  !acc

let routes_at t pe =
  let s = get_pe t pe in
  let own = ref [] in
  for id = t.next_id - 1 downto 0 do
    if t.next_hop.(id) = pe && standing t id then own := route t id :: !own
  done;
  fold_received t s (fun id acc -> route t id :: acc) !own

let rts_intersect a b =
  List.exists (fun x -> List.exists (rt_equal x) b) a

let imported t id import_rts =
  rts_intersect t.rt_sets.(t.rts.(id)) import_rts

let import t ~pe ~import_rts =
  fold_received t (get_pe t pe)
    (fun id acc -> if imported t id import_rts then route t id :: acc else acc)
    []

let import_ids t ~pe ~import_rts =
  fold_received t (get_pe t pe)
    (fun id acc -> if imported t id import_rts then id :: acc else acc)
    []

let total_routes t = t.exported

let store_size t = t.next_id

let messages_sent t = t.messages
