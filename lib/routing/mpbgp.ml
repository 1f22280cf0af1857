module Prefix = Mvpn_net.Prefix

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

type key = rd * int * int * int  (* rd, network, length, pe *)

let key_of (r : vpnv4_route) : key =
  ( r.rd,
    Mvpn_net.Ipv4.to_int (Prefix.network r.prefix),
    Prefix.length r.prefix,
    r.next_hop_pe )

(* One route record lives once, in the interned store; every table that
   holds it — the owner's exports, every remote PE's Adj-RIB-In, any
   VRF route group built on top — keeps only its integer id. At 100k+
   routes times a dozen importing PEs this is the difference between a
   dozen copies of every announcement and one.

   Ids are dense, so an Adj-RIB-In is a byte per id (1 = held) rather
   than a hash table: a delivery is a byte store. A site's exported keys
   are indexed by site id, so withdrawing a site touches only its own
   routes, never the PE's whole export table. *)

(* Hashed on its four ints alone: no generic traversal of the tuple and
   its RD record, no polymorphic compare. *)
module Key_tbl = Hashtbl.Make (struct
    type t = key

    let equal ((r, n, l, p) : t) ((r', n', l', p') : t) =
      n = n' && p = p' && l = l' && r.rd_assigned = r'.rd_assigned
      && r.rd_asn = r'.rd_asn

    let hash ((r, n, l, p) : t) =
      let h = (r.rd_assigned * 0x9e3779b1) + r.rd_asn in
      let h = (h * 0x9e3779b1) + n in
      let h = (h * 0x9e3779b1) + ((l lsl 8) lor p) in
      (h lxor (h lsr 29)) land max_int
  end)

type pe_state = {
  pe : int;
  exported : int Key_tbl.t;  (* logical announcement -> route id *)
  by_site : (int, key) Hashtbl.t;  (* site -> each key it exported *)
  mutable received : Bytes.t;  (* Adj-RIB-In bitmap over interned ids *)
}

let holds s id =
  id < Bytes.length s.received && Bytes.get s.received id = '\001'

let set_held s id held =
  Bytes.set s.received id (if held then '\001' else '\000')

(* [by_site] holds one binding per exported key ([Hashtbl.add]), so
   indexing a new export costs one hash. *)
let unbind_site s site =
  let ks = Hashtbl.find_all s.by_site site in
  List.iter (fun _ -> Hashtbl.remove s.by_site site) ks;
  ks

let reindex_site s k ~from ~into =
  List.iter
    (fun k' -> if k' <> k then Hashtbl.add s.by_site from k')
    (List.rev (unbind_site s from));
  Hashtbl.add s.by_site into k

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

type t = {
  mode : session_mode;
  mutable pes : pe_state list;  (* insertion order preserved via append *)
  by_pe : (int, pe_state) Hashtbl.t;
  mutable messages : int;
  mutable store : vpnv4_route option array;  (* id -> interned route *)
  mutable journal : Bytes.t;  (* id -> pending code, sized like [store] *)
  mutable dirty : int array;  (* ids journaled since the last run *)
  mutable dirty_len : int;
  mutable next_id : int;
  mutable fresh : int list;  (* PEs added since last run, to back-fill *)
}

let create ?(mode = Full_mesh) () =
  { mode; pes = []; by_pe = Hashtbl.create 16; messages = 0;
    store = Array.make 64 None; journal = Bytes.make 64 clean;
    dirty = Array.make 64 0; dirty_len = 0; next_id = 0; fresh = [] }

let find_pe t pe = Hashtbl.find_opt t.by_pe pe

let add_pe t pe =
  if find_pe t pe <> None then
    invalid_arg (Printf.sprintf "Mpbgp.add_pe: duplicate PE %d" pe);
  let s =
    { pe; exported = Key_tbl.create 32; by_site = Hashtbl.create 32;
      received = Bytes.empty }
  in
  t.pes <- t.pes @ [s];
  Hashtbl.replace t.by_pe pe s;
  t.fresh <- pe :: t.fresh

let pe_count t = List.length t.pes

let session_count t =
  let n = pe_count t in
  match t.mode with
  | Full_mesh -> n * (n - 1) / 2
  | Route_reflector _ -> max 0 (n - 1)

let get_pe t pe =
  match find_pe t pe with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Mpbgp: unknown PE %d" pe)

let alloc t r =
  if t.next_id = Array.length t.store then begin
    let n = 2 * Array.length t.store in
    let bigger = Array.make n None in
    Array.blit t.store 0 bigger 0 t.next_id;
    t.store <- bigger;
    let j = Bytes.make n clean in
    Bytes.blit t.journal 0 j 0 t.next_id;
    t.journal <- j
  end;
  let id = t.next_id in
  t.store.(id) <- Some r;
  t.next_id <- id + 1;
  id

(* Set an id's journal code, stacking it if it was clean. *)
let mark t id code =
  if Bytes.get t.journal id = clean then begin
    if t.dirty_len = Array.length t.dirty then begin
      let bigger = Array.make (2 * t.dirty_len) 0 in
      Array.blit t.dirty 0 bigger 0 t.dirty_len;
      t.dirty <- bigger
    end;
    t.dirty.(t.dirty_len) <- id;
    t.dirty_len <- t.dirty_len + 1
  end;
  Bytes.set t.journal id code

let export t route =
  let s = get_pe t route.next_hop_pe in
  let k = key_of route in
  match Key_tbl.find_opt s.exported k with
  | Some id ->
    (match t.store.(id) with
     | Some old when old = route -> id
     | old ->
       (* Same announcement, new content: patch the shared record in
          place. Only label/RT changes are UPDATE-worthy on the wire;
          diagnostic fields ride along silently. *)
       let noisy =
         match old with
         | Some o ->
           if o.site <> route.site then
             reindex_site s k ~from:o.site ~into:route.site;
           o.vpn_label <> route.vpn_label || o.export_rts <> route.export_rts
         | None -> true
       in
       t.store.(id) <- Some route;
       if noisy && Bytes.get t.journal id = clean then mark t id updated;
       id)
  | None ->
    let id = alloc t route in
    Key_tbl.add s.exported k id;
    Hashtbl.add s.by_site route.site k;
    mark t id added;
    id

let export_route t route = ignore (export t route)

let withdraw_site t ~pe ~site =
  let s = get_pe t pe in
  let victims = unbind_site s site in
  List.iter
    (fun k ->
       let id = Key_tbl.find s.exported k in
       Key_tbl.remove s.exported k;
       if Bytes.get t.journal id = added then begin
         (* Announced and retracted between runs: nobody ever saw it. *)
         Bytes.set t.journal id clean;
         t.store.(id) <- None
       end
       else mark t id retracted)
    victims;
  List.length victims

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
  let cap = Array.length t.store in
  List.iter
    (fun d ->
       let n = Bytes.length d.received in
       if n < cap then begin
         let b = Bytes.make cap '\000' in
         Bytes.blit d.received 0 b 0 n;
         d.received <- b
       end)
    t.pes;
  (* Late-joining PEs first: back-fill every live route, one UPDATE per
     route the newcomer gains. Journaled routes are skipped — the
     journal pass below reaches the newcomer too. That covers all of the
     newcomer's own routes: it exported each one after joining. *)
  List.iter
    (fun pe ->
       let d = get_pe t pe in
       for id = 0 to t.next_id - 1 do
         if Bytes.get t.journal id = clean && Option.is_some t.store.(id) then
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
      t.store.(id) <- None
    end
    else if code <> clean then
      match t.store.(id) with
      | None -> ()
      | Some r ->
        sent :=
          !sent + propagate t ~changed:(code = updated) r.next_hop_pe id
  done;
  t.dirty_len <- 0;
  (* A bulk round's stack (one slot per route) is not kept resident. *)
  if Array.length t.dirty > 4096 then t.dirty <- Array.make 64 0;
  t.messages <- t.messages + !sent;
  !sent

let find_route t id =
  if id < 0 || id >= t.next_id then None else t.store.(id)

let iter_exported t f =
  List.iter
    (fun s ->
       Key_tbl.iter
         (fun _ id ->
            match t.store.(id) with Some r -> f id r | None -> ())
         s.exported)
    t.pes

(* Fold over a PE's Adj-RIB-In in descending id order, so a consing
   [f] yields ascending (export) order. *)
let fold_received t s f acc =
  let acc = ref acc in
  for id = min (Bytes.length s.received) t.next_id - 1 downto 0 do
    if Bytes.get s.received id = '\001' then
      match t.store.(id) with Some r -> acc := f id r !acc | None -> ()
  done;
  !acc

let routes_at t pe =
  let s = get_pe t pe in
  let own =
    Key_tbl.fold
      (fun _ id acc ->
         match t.store.(id) with Some r -> r :: acc | None -> acc)
      s.exported []
  in
  fold_received t s (fun _ r acc -> r :: acc) own

let rts_intersect a b =
  List.exists (fun x -> List.exists (rt_equal x) b) a

let import t ~pe ~import_rts =
  fold_received t (get_pe t pe)
    (fun _ r acc ->
       if rts_intersect r.export_rts import_rts then r :: acc else acc)
    []

let import_ids t ~pe ~import_rts =
  fold_received t (get_pe t pe)
    (fun id r acc ->
       if rts_intersect r.export_rts import_rts then id :: acc else acc)
    []

let total_routes t =
  List.fold_left (fun acc s -> acc + Key_tbl.length s.exported) 0 t.pes

let store_size t = t.next_id

let messages_sent t = t.messages
