module Prefix = Mvpn_net.Prefix
module Radix = Mvpn_net.Radix

type route = {
  prefix : Prefix.t;
  as_path : int list;
  learned_from : int;
  local_pref : int;
}

type speaker = {
  asn : int;
  mutable peers : int list;
  (* Candidate routes per prefix, keyed by the advertising peer
     (or -1 for local origination). *)
  rib_in : (int * int * int, route) Hashtbl.t;
  (* key: (advertising peer, prefix network, prefix length) *)
  loc_rib : route Radix.t;
  pref_overrides : (int, int) Hashtbl.t;  (* neighbor -> local_pref *)
  mutable dirty : bool;
}

type t = {
  mutable speakers : speaker array;
  mutable n : int;
  mutable messages : int;
}

let create () = { speakers = [||]; n = 0; messages = 0 }

let add_speaker t ~asn =
  let id = t.n in
  let s =
    { asn; peers = []; rib_in = Hashtbl.create 32;
      loc_rib = Radix.create (); pref_overrides = Hashtbl.create 4;
      dirty = false }
  in
  let cap = Array.length t.speakers in
  if t.n = cap then begin
    let arr = Array.make (max 8 (2 * cap)) s in
    Array.blit t.speakers 0 arr 0 cap;
    t.speakers <- arr
  end;
  t.speakers.(id) <- s;
  t.n <- id + 1;
  id

let check t v =
  if v < 0 || v >= t.n then
    invalid_arg (Printf.sprintf "Bgp: unknown speaker %d" v)

let peer t a b =
  check t a;
  check t b;
  if a = b then invalid_arg "Bgp.peer: self-peering";
  let sa = t.speakers.(a) and sb = t.speakers.(b) in
  if List.mem b sa.peers then invalid_arg "Bgp.peer: duplicate session";
  sa.peers <- b :: sa.peers;
  sb.peers <- a :: sb.peers

let rib_key peer prefix =
  (peer, Mvpn_net.Ipv4.to_int (Prefix.network prefix), Prefix.length prefix)

let default_local_pref = 100

let originate t v prefix =
  check t v;
  let s = t.speakers.(v) in
  Hashtbl.replace s.rib_in (rib_key (-1) prefix)
    { prefix; as_path = []; learned_from = -1;
      local_pref = default_local_pref };
  s.dirty <- true

let better a b =
  (* true when a beats b *)
  if a.local_pref <> b.local_pref then a.local_pref > b.local_pref
  else if List.length a.as_path <> List.length b.as_path then
    List.length a.as_path < List.length b.as_path
  else a.learned_from < b.learned_from

(* Recompute a speaker's loc-RIB from rib_in; true if it changed. *)
let decide s =
  let best : (Prefix.t, route) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun _ r ->
       match Hashtbl.find_opt best r.prefix with
       | Some cur when better cur r -> ()
       | Some _ | None -> Hashtbl.replace best r.prefix r)
    s.rib_in;
  let changed = ref (Hashtbl.length best <> Radix.cardinal s.loc_rib) in
  if not !changed then
    Hashtbl.iter
      (fun p r ->
         match Radix.find s.loc_rib p with
         | Some cur
           when cur.as_path = r.as_path
             && cur.learned_from = r.learned_from -> ()
         | Some _ | None -> changed := true)
      best;
  if !changed then begin
    Radix.clear s.loc_rib;
    Hashtbl.iter (fun p r -> Radix.add s.loc_rib p r) best
  end;
  !changed

let run t =
  (* Initial decision for any originations. *)
  for v = 0 to t.n - 1 do
    let s = t.speakers.(v) in
    if s.dirty then begin
      ignore (decide s);
      s.dirty <- false
    end
  done;
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    (* Each speaker advertises its loc-RIB to each peer, applying the
       iBGP non-transit rule and the eBGP AS-path loop check. Staged so
       the round is order-independent. *)
    let staged = ref [] in
    for v = 0 to t.n - 1 do
      let s = t.speakers.(v) in
      List.iter
        (fun pid ->
           let p = t.speakers.(pid) in
           let ibgp_session = p.asn = s.asn in
           Radix.iter
             (fun prefix r ->
                let learned_ibgp =
                  r.learned_from >= 0
                  && t.speakers.(r.learned_from).asn = s.asn
                in
                (* iBGP rule: do not re-advertise iBGP-learned routes to
                   iBGP peers. *)
                if not (ibgp_session && learned_ibgp) then begin
                  let as_path =
                    if ibgp_session then r.as_path else s.asn :: r.as_path
                  in
                  (* Loop check at the receiver. *)
                  if not (List.mem p.asn as_path) then
                    staged :=
                      (pid, v,
                       { prefix; as_path; learned_from = v;
                         local_pref =
                           (match Hashtbl.find_opt p.pref_overrides v with
                            | Some lp -> lp
                            | None -> default_local_pref) })
                      :: !staged
                end)
             s.loc_rib)
        s.peers
    done;
    let changed = ref false in
    List.iter
      (fun (pid, from, r) ->
         let p = t.speakers.(pid) in
         let key = rib_key from r.prefix in
         (match Hashtbl.find_opt p.rib_in key with
          | Some old
            when old.as_path = r.as_path && old.local_pref = r.local_pref ->
            ()
          | Some _ | None ->
            t.messages <- t.messages + 1;
            Hashtbl.replace p.rib_in key r;
            p.dirty <- true);
         ())
      !staged;
    for v = 0 to t.n - 1 do
      let s = t.speakers.(v) in
      if s.dirty then begin
        if decide s then changed := true;
        s.dirty <- false
      end
    done;
    if !changed then incr rounds else continue_ := false
  done;
  !rounds

let messages_sent t = t.messages

let best_routes t v =
  check t v;
  List.map snd (Radix.to_list t.speakers.(v).loc_rib)

let lookup t v addr =
  check t v;
  Radix.lookup_value t.speakers.(v).loc_rib addr

let set_local_pref t v ~neighbor lp =
  check t v;
  Hashtbl.replace t.speakers.(v).pref_overrides neighbor lp
