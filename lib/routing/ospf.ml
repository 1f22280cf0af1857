module Topology = Mvpn_sim.Topology
module Prefix = Mvpn_net.Prefix
module Fib = Mvpn_net.Fib

type lsa = {
  originator : int;
  seq : int;
  (* Neighbor, cost: up links to members only, by neighbor id. *)
  adjacencies : (int * int) list;
  prefixes : Prefix.t list;  (* sorted *)
}

(* An empty LSDB slot: its sequence number is older than any LSA's. *)
let no_lsa = { originator = -1; seq = -1; adjacencies = []; prefixes = [] }

(* A tree buffer not yet allocated (and the FIB's tree before the
   first build). *)
let no_tree = Spf.make_tree ~nodes:0

type router = {
  id : int;
  lsdb : lsa array;  (* by originator; [no_lsa] where none arrived *)
  mutable lsdb_gen : int;  (* bumped by every LSDB write *)
  mutable prefix_gen : int;  (* bumped when a write changed some prefixes *)
  (* SPF over the LSDB as of [spf_gen] (-1: never run), in one of two
     buffers: a run writes the buffer the FIB was not built from, so
     [fib_tree] survives for {!same_routes} to compare against. *)
  mutable spf : Spf.tree;
  mutable spare : Spf.tree;
  mutable spf_gen : int;
  (* The FIB, updated in place, and what it was built from: it is
     touched only when the SPF distances/first hops or the LSDB
     prefixes moved since. *)
  fib : Fib.t;
  mutable fib_tree : Spf.tree;
  mutable fib_prefix_gen : int;
  mutable attached : Prefix.t list;  (* sorted, no duplicates *)
  mutable own_seq : int;
}

type t = {
  topo : Topology.t;
  routers : router array;
  members : int -> bool;
  owners : (Prefix.t, int) Hashtbl.t;  (* attached prefix -> its router *)
  mutable messages : int;
  (* A flooding round's offers, (peer, LSA), staged so the round is
     order-independent; the arrays only grow. *)
  mutable staged_peer : int array;
  mutable staged_lsa : lsa array;
  mutable staged_n : int;
  (* The compressed sparse rows {!run_spf} rebuilds per router, and the
     relax loop's scratch. *)
  off : int array;
  mutable nbr : int array;
  mutable weight : floatarray;
  ws : Spf.workspace;
}

let create ?(members = fun _ -> true) topo =
  let n = Topology.node_count topo in
  { topo;
    routers =
      Array.init n (fun id ->
          { id; lsdb = Array.make n no_lsa; lsdb_gen = 0;
            prefix_gen = 0; spf = no_tree; spare = no_tree; spf_gen = -1;
            fib = Fib.create (); fib_tree = no_tree; fib_prefix_gen = -1;
            attached = []; own_seq = 0 });
    members;
    owners = Hashtbl.create 16;
    messages = 0;
    staged_peer = [||]; staged_lsa = [||]; staged_n = 0;
    off = Array.make (n + 1) 0; nbr = [||]; weight = Float.Array.create 0;
    ws = Spf.workspace () }

let check_router t v =
  if v < 0 || v >= Array.length t.routers then
    invalid_arg (Printf.sprintf "Ospf: unknown router %d" v)

let rec insert_sorted p = function
  | [] -> [p]
  | q :: rest as l ->
    if Prefix.compare p q < 0 then p :: l else q :: insert_sorted p rest

(* A prefix has one owner: the FIB build visits origins in id order,
   so two owners would make the route depend on that order. *)
let attach_prefix t node prefix =
  check_router t node;
  match Hashtbl.find_opt t.owners prefix with
  | Some owner when owner <> node ->
    invalid_arg
      (Printf.sprintf "Ospf.attach_prefix: %s is already attached at \
                       router %d"
         (Prefix.to_string prefix) owner)
  | Some _ -> ()
  | None ->
    Hashtbl.add t.owners prefix node;
    let r = t.routers.(node) in
    r.attached <- insert_sorted prefix r.attached

(* Does the stored adjacency list equal the live one — out-links
   [k .. stop - 1] of the sorted adjacency that are up and lead to a
   member? Walks both without building the live list. *)
let rec adjacency_matches t (a : Topology.adjacency) k stop lst =
  if k = stop then (match lst with [] -> true | _ :: _ -> false)
  else begin
    let l = Topology.link t.topo a.Topology.link_ids.(k) in
    let nbr = a.Topology.nbr.(k) in
    if not (l.Topology.up && t.members nbr) then
      adjacency_matches t a (k + 1) stop lst
    else
      match lst with
      | (u, cost) :: rest when u = nbr && cost = l.Topology.cost ->
        adjacency_matches t a (k + 1) stop rest
      | _ -> false
  end

let current_adjacencies t r =
  let a = Topology.adjacency t.topo in
  let acc = ref [] in
  for k = a.Topology.off.(r.id + 1) - 1 downto a.Topology.off.(r.id) do
    let l = Topology.link t.topo a.Topology.link_ids.(k) in
    let nbr = a.Topology.nbr.(k) in
    if l.Topology.up && t.members nbr then acc := (nbr, l.Topology.cost) :: !acc
  done;
  !acc

let lsdb_write r lsa =
  let old = r.lsdb.(lsa.originator) in
  if old == no_lsa
  || not (List.equal Prefix.equal old.prefixes lsa.prefixes)
  then r.prefix_gen <- r.prefix_gen + 1;
  r.lsdb.(lsa.originator) <- lsa;
  r.lsdb_gen <- r.lsdb_gen + 1

(* Re-originate: bump the sequence number only when content changed, so
   steady-state converge calls cost zero flooding rounds. The live
   adjacency is compared with the stored LSA before a new one is
   built. *)
let originate t r =
  let old = r.lsdb.(r.id) in
  let a = Topology.adjacency t.topo in
  if old == no_lsa
  || not
       (adjacency_matches t a a.Topology.off.(r.id) a.Topology.off.(r.id + 1)
          old.adjacencies)
  || not (List.equal Prefix.equal old.prefixes r.attached)
  then begin
    r.own_seq <- r.own_seq + 1;
    lsdb_write r
      { originator = r.id; seq = r.own_seq;
        adjacencies = current_adjacencies t r; prefixes = r.attached }
  end

let stage t peer lsa =
  let cap = Array.length t.staged_peer in
  if t.staged_n = cap then begin
    let ncap = max 64 (2 * cap) in
    let peers = Array.make ncap 0 and lsas = Array.make ncap no_lsa in
    Array.blit t.staged_peer 0 peers 0 cap;
    Array.blit t.staged_lsa 0 lsas 0 cap;
    t.staged_peer <- peers;
    t.staged_lsa <- lsas
  end;
  t.staged_peer.(t.staged_n) <- peer;
  t.staged_lsa.(t.staged_n) <- lsa;
  t.staged_n <- t.staged_n + 1

(* One synchronous flooding round: every router offers its database to
   each up neighbor; the neighbor accepts LSAs that are new or newer.
   Changes are staged so the round is order-independent. *)
let flood_round t =
  let n = Array.length t.routers in
  let a = Topology.adjacency t.topo in
  t.staged_n <- 0;
  for v = 0 to n - 1 do
    if t.members v then begin
      let r = t.routers.(v) in
      for k = a.Topology.off.(v) to a.Topology.off.(v + 1) - 1 do
        let nbr = a.Topology.nbr.(k) in
        if (Topology.link t.topo a.Topology.link_ids.(k)).Topology.up
        && t.members nbr
        then begin
          let have = t.routers.(nbr).lsdb in
          for origin = 0 to n - 1 do
            let lsa = r.lsdb.(origin) in
            if lsa.seq > have.(origin).seq then stage t nbr lsa
          done
        end
      done
    end
  done;
  (* Several neighbors may offer the same LSA in one round; count each
     transmission (that is the wire traffic) but apply once. *)
  t.messages <- t.messages + t.staged_n;
  let changed = ref false in
  for i = 0 to t.staged_n - 1 do
    let peer = t.routers.(t.staged_peer.(i)) and lsa = t.staged_lsa.(i) in
    if lsa.seq > peer.lsdb.(lsa.originator).seq then begin
      lsdb_write peer lsa;
      changed := true
    end
  done;
  Array.fill t.staged_lsa 0 t.staged_n no_lsa;
  !changed

let rec lists_adjacency v = function
  | [] -> false
  | (b, _) :: rest -> b = v || lists_adjacency v rest

(* Append LSA [v]'s two-way adjacencies to the rows from position [k];
   returns the next free position. *)
let rec fill_row t r v k = function
  | [] -> k
  | (u, cost) :: rest ->
    let k =
      if u < Array.length t.routers
      && lists_adjacency v r.lsdb.(u).adjacencies
      then begin
        t.nbr.(k) <- u;
        Float.Array.set t.weight k (float_of_int cost);
        k + 1
      end
      else k
    in
    fill_row t r v k rest

(* SPF over the router's own database, not the live topology: a router
   can only route on what flooding has told it. The LSDB becomes
   compressed sparse rows for {!Spf.dijkstra_csr}; an adjacency counts
   only if the neighbor's LSA lists it back (the two-way check real
   link-state SPF makes). LSAs keep adjacencies sorted by neighbor id,
   the order the relax loop expects. *)
let run_spf t r ~into =
  let n = Array.length t.routers in
  let total = ref 0 in
  for v = 0 to n - 1 do
    total := !total + List.length r.lsdb.(v).adjacencies
  done;
  if Array.length t.nbr < !total then begin
    let cap = max !total (2 * Array.length t.nbr) in
    t.nbr <- Array.make cap 0;
    t.weight <- Float.Array.make cap Float.nan
  end;
  let k = ref 0 in
  for v = 0 to n - 1 do
    t.off.(v) <- !k;
    k := fill_row t r v !k r.lsdb.(v).adjacencies
  done;
  t.off.(n) <- !k;
  Spf.dijkstra_csr t.ws ~off:t.off ~nbr:t.nbr ~weight:t.weight ~src:r.id
    ~into

let spf t r =
  if r.spf_gen <> r.lsdb_gen then begin
    if r.spf == r.fib_tree then begin
      let into =
        if r.spare == no_tree then
          Spf.make_tree ~nodes:(Array.length t.routers)
        else r.spare
      in
      r.spare <- r.spf;
      r.spf <- into
    end;
    run_spf t r ~into:r.spf;
    r.spf_gen <- r.lsdb_gen
  end;
  r.spf

(* What a FIB is built from: distances (never nan) and first hops. *)
let same_routes (a : Spf.tree) (b : Spf.tree) =
  a == b || (a.Spf.dist = b.Spf.dist && a.Spf.first_hop = b.Spf.first_hop)

let local_route =
  { Fib.next_hop = Fib.local_delivery; cost = 0; source = Fib.Connected }

(* Bring [fib]'s route for each prefix of [origin]'s LSA up to date:
   kept when equal (the same route block), replaced when it moved,
   removed when the origin is unreachable. Returns [live] plus the
   routes the FIB now holds for these prefixes. *)
let rec sync_prefixes fib ~self ~origin (tree : Spf.tree) live = function
  | [] -> live
  | p :: rest ->
    let live =
      if origin = self then begin
        (match Fib.find fib p with
         | Some r when r == local_route -> ()
         | Some _ | None -> Fib.add fib p local_route);
        live + 1
      end
      else if Float.is_finite tree.Spf.dist.(origin) then begin
        let next_hop = tree.Spf.first_hop.(origin)
        and cost = int_of_float tree.Spf.dist.(origin) in
        (match Fib.find fib p with
         | Some r
           when r.Fib.next_hop = next_hop && r.Fib.cost = cost
                && r.Fib.source = Fib.Igp -> ()
         | Some _ | None ->
           Fib.add fib p { Fib.next_hop; cost; source = Fib.Igp });
        live + 1
      end
      else begin
        ignore (Fib.remove fib p);
        live
      end
    in
    sync_prefixes fib ~self ~origin tree live rest

(* The FIB holds only LSA prefixes: LSDB slots are never emptied and an
   origin's prefix list only grows (attachments are never withdrawn),
   so visiting every prefix of every LSA reaches every route the table
   holds. *)
let refresh_fib t r =
  let tree = spf t r in
  if r.fib_prefix_gen <> r.prefix_gen || not (same_routes r.fib_tree tree)
  then begin
    let live = ref 0 in
    for origin = 0 to Array.length r.lsdb - 1 do
      live :=
        sync_prefixes r.fib ~self:r.id ~origin tree !live
          r.lsdb.(origin).prefixes
    done;
    assert (Fib.size r.fib = !live);
    r.fib_tree <- tree;
    r.fib_prefix_gen <- r.prefix_gen
  end

let converge t =
  let n = Array.length t.routers in
  for v = 0 to n - 1 do
    if t.members v then originate t t.routers.(v)
  done;
  let rounds = ref 0 in
  while flood_round t do
    incr rounds
  done;
  for v = 0 to n - 1 do
    if t.members v then refresh_fib t t.routers.(v)
  done;
  !rounds

(* Slot by slot: an empty slot's [no_lsa.seq] differs from any LSA's,
   so an LSA one side holds and the other lacks is a difference too. *)
let same_database reference r =
  Array.for_all2 (fun a b -> a.seq = b.seq) reference.lsdb r.lsdb

let converged t =
  let member_routers =
    Array.to_list t.routers
    |> List.filter (fun r -> t.members r.id)
  in
  match member_routers with
  | [] -> true
  | reference :: rest -> List.for_all (same_database reference) rest

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
