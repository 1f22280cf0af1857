module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Fib = Mvpn_net.Fib

type lsa = {
  originator : int;
  seq : int;
  adjacencies : (int * int) list;  (* neighbor, cost; up links only *)
  prefixes : Prefix.t list;
}

type router = {
  id : int;
  lsdb : (int, lsa) Hashtbl.t;
  mutable lsdb_gen : int;  (* bumped by every LSDB write *)
  mutable prefix_gen : int;  (* bumped when a write changed some prefixes *)
  (* SPF over the LSDB as of [spf_gen] (-1: never run). *)
  mutable spf : Spf.tree;
  mutable spf_gen : int;
  (* The FIB and what it was built from: it is rebuilt only when the
     SPF distances/first hops or the LSDB prefixes moved since. *)
  mutable fib : Fib.t;
  mutable fib_tree : Spf.tree;
  mutable fib_prefix_gen : int;
  mutable attached : Prefix.t list;
  mutable own_seq : int;
}

type t = {
  topo : Topology.t;
  routers : router array;
  members : int -> bool;
  mutable messages : int;
}

let no_tree =
  { Spf.src = -1; dist = [||]; first_hop = [||]; parent = [||] }

let create ?(members = fun _ -> true) topo =
  let n = Topology.node_count topo in
  { topo;
    routers =
      Array.init n (fun id ->
          { id; lsdb = Hashtbl.create 16; lsdb_gen = 0; prefix_gen = 0;
            spf = no_tree; spf_gen = -1; fib = Fib.create ();
            fib_tree = no_tree; fib_prefix_gen = -1; attached = [];
            own_seq = 0 });
    members;
    messages = 0 }

let check_router t v =
  if v < 0 || v >= Array.length t.routers then
    invalid_arg (Printf.sprintf "Ospf: unknown router %d" v)

let attach_prefix t node prefix =
  check_router t node;
  let r = t.routers.(node) in
  if not (List.exists (Prefix.equal prefix) r.attached) then
    r.attached <- prefix :: r.attached

let current_lsa t r =
  let adjacencies =
    List.sort compare
      (List.filter_map
         (fun (nbr, l) ->
            if t.members nbr then Some (nbr, l.Topology.cost) else None)
         (Topology.up_neighbors t.topo r.id))
  in
  { originator = r.id; seq = r.own_seq; adjacencies;
    prefixes = List.sort Prefix.compare r.attached }

let lsa_content_equal a b =
  a.originator = b.originator
  && a.adjacencies = b.adjacencies
  && List.equal Prefix.equal a.prefixes b.prefixes

let lsdb_write r origin lsa =
  (match Hashtbl.find r.lsdb origin with
   | old when List.equal Prefix.equal old.prefixes lsa.prefixes -> ()
   | _ | (exception Not_found) -> r.prefix_gen <- r.prefix_gen + 1);
  Hashtbl.replace r.lsdb origin lsa;
  r.lsdb_gen <- r.lsdb_gen + 1

(* Re-originate: bump the sequence number only when content changed, so
   steady-state converge calls cost zero flooding rounds. *)
let originate t r =
  let fresh = current_lsa t r in
  match Hashtbl.find_opt r.lsdb r.id with
  | Some old when lsa_content_equal old fresh -> ()
  | Some _ | None ->
    r.own_seq <- r.own_seq + 1;
    lsdb_write r r.id { fresh with seq = r.own_seq }

(* One synchronous flooding round: every router offers its database to
   each up neighbor; the neighbor accepts LSAs that are new or newer.
   Changes are staged so the round is order-independent. *)
let flood_round t =
  let staged = ref [] in
  Array.iter
    (fun r ->
       if not (t.members r.id) then ()
       else
       List.iter
         (fun (nbr, _) ->
            if not (t.members nbr) then ()
            else
            let peer = t.routers.(nbr) in
            Hashtbl.iter
              (fun origin lsa ->
                 let newer =
                   match Hashtbl.find_opt peer.lsdb origin with
                   | None -> true
                   | Some have -> lsa.seq > have.seq
                 in
                 if newer then staged := (peer, origin, lsa) :: !staged)
              r.lsdb)
         (Topology.up_neighbors t.topo r.id))
    t.routers;
  (* Several neighbors may offer the same LSA in one round; count each
     transmission (that is the wire traffic) but apply once. *)
  t.messages <- t.messages + List.length !staged;
  let changed = ref false in
  List.iter
    (fun (peer, origin, lsa) ->
       match Hashtbl.find_opt peer.lsdb origin with
       | Some have when have.seq >= lsa.seq -> ()
       | Some _ | None ->
         lsdb_write peer origin lsa;
         changed := true)
    !staged;
  !changed

let rec lists_adjacency v = function
  | [] -> false
  | (b, _) :: rest -> b = v || lists_adjacency v rest

(* SPF over the router's own database, not the live topology: a router
   can only route on what flooding has told it. The LSDB becomes
   compressed sparse rows for {!Spf.dijkstra_csr}; an adjacency counts
   only if the neighbor's LSA lists it back (the two-way check real
   link-state SPF makes). LSAs keep adjacencies sorted by neighbor id,
   the order the relax loop expects. *)
let run_spf t r =
  let n = Array.length t.routers in
  let total =
    Hashtbl.fold (fun _ lsa acc -> acc + List.length lsa.adjacencies)
      r.lsdb 0
  in
  let off = Array.make (n + 1) 0 in
  let nbr = Array.make total 0 in
  let weight = Float.Array.make total Float.nan in
  let k = ref 0 in
  for v = 0 to n - 1 do
    off.(v) <- !k;
    match Hashtbl.find r.lsdb v with
    | exception Not_found -> ()
    | lsa ->
      List.iter
        (fun (u, cost) ->
           let two_way =
             match Hashtbl.find r.lsdb u with
             | back -> lists_adjacency v back.adjacencies
             | exception Not_found -> false
           in
           if two_way && u < n then begin
             nbr.(!k) <- u;
             Float.Array.set weight !k (float_of_int cost);
             incr k
           end)
        lsa.adjacencies
  done;
  off.(n) <- !k;
  Spf.dijkstra_csr ~off ~nbr ~weight ~src:r.id

let spf t r =
  if r.spf_gen <> r.lsdb_gen then begin
    r.spf <- run_spf t r;
    r.spf_gen <- r.lsdb_gen
  end;
  r.spf

(* What a FIB is built from: distances (never nan) and first hops. *)
let same_routes (a : Spf.tree) (b : Spf.tree) =
  a == b || (a.Spf.dist = b.Spf.dist && a.Spf.first_hop = b.Spf.first_hop)

let refresh_fib t r =
  let tree = spf t r in
  if r.fib_prefix_gen <> r.prefix_gen || not (same_routes r.fib_tree tree)
  then begin
    let dist = tree.Spf.dist and first_hop = tree.Spf.first_hop in
    let fib = Fib.create () in
    Hashtbl.iter
      (fun origin lsa ->
         List.iter
           (fun p ->
              if origin = r.id then
                Fib.add fib p
                  { Fib.next_hop = Fib.local_delivery; cost = 0;
                    source = Fib.Connected }
              else if Float.is_finite dist.(origin) then
                Fib.add fib p
                  { Fib.next_hop = first_hop.(origin);
                    cost = int_of_float dist.(origin); source = Fib.Igp })
           lsa.prefixes)
      r.lsdb;
    r.fib <- fib;
    r.fib_tree <- tree;
    r.fib_prefix_gen <- r.prefix_gen
  end

let converge t =
  Array.iter (fun r -> if t.members r.id then originate t r) t.routers;
  let rounds = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    if flood_round t then incr rounds else continue_ := false
  done;
  Array.iter (fun r -> if t.members r.id then refresh_fib t r) t.routers;
  !rounds

let converged t =
  let member_routers =
    Array.to_list t.routers
    |> List.filter (fun r -> t.members r.id)
  in
  match member_routers with
  | [] -> true
  | reference :: rest ->
    List.for_all
      (fun r ->
         Hashtbl.length r.lsdb = Hashtbl.length reference.lsdb
         && Hashtbl.fold
              (fun k lsa acc ->
                 acc
                 && match Hashtbl.find_opt reference.lsdb k with
                 | Some ref_lsa -> ref_lsa.seq = lsa.seq
                 | None -> false)
              r.lsdb true)
      rest

let messages_sent t = t.messages

let fib t node =
  check_router t node;
  t.routers.(node).fib

let next_hop_to_router t ~src ~dst =
  check_router t dst;
  check_router t src;
  let first_hop = (spf t t.routers.(src)).Spf.first_hop in
  if dst = src then None
  else if first_hop.(dst) >= 0 then Some first_hop.(dst)
  else None

let distance t ~src ~dst =
  check_router t dst;
  check_router t src;
  (spf t t.routers.(src)).Spf.dist.(dst)
