type link = {
  id : int;
  src : int;
  dst : int;
  bandwidth : float;
  delay : float;
  mutable cost : int;
  mutable up : bool;
  mutable reserved : float;
}

type t = {
  mutable names : string array;
  mutable nodes : int;
  mutable link_arr : link array;
  mutable link_n : int;
  mutable adj : (int * int) list array;  (* node -> (neighbor, link id) *)
  mutable generation : int;
  mutable duplex_hooks : (a:int -> b:int -> up:bool -> unit) list;
  (* Dense (src, dst) -> link-id matrix backing {!find_link_id}: built
     lazily on the first lookup (for topologies up to [mat_threshold]
     nodes), patched in place when a link is added at the same node
     count, and rebuilt when the node count moved. [mat_nodes] is the
     node count the matrix was built for; a mismatch marks it stale. *)
  mutable mat : int array;
  mutable mat_nodes : int;
  (* Out-links sorted by neighbor id, backing {!adjacency}: built
     lazily on first use and rebuilt when the link or node count moved
     since ([sadj_links] = -1 marks it unbuilt). *)
  mutable sadj : adjacency;
  mutable sadj_links : int;
  mutable sadj_nodes : int;
}

and adjacency = { off : int array; nbr : int array; link_ids : int array }

let mat_threshold = 1024

let create () =
  { names = [||]; nodes = 0; link_arr = [||]; link_n = 0; adj = [||];
    generation = 0; duplex_hooks = []; mat = [||]; mat_nodes = -1;
    sadj = { off = [| 0 |]; nbr = [||]; link_ids = [||] };
    sadj_links = -1; sadj_nodes = -1 }

let generation t = t.generation

let on_duplex_change t hook = t.duplex_hooks <- t.duplex_hooks @ [hook]

let grow_to arr n fill =
  let cap = Array.length arr in
  if n <= cap then arr
  else begin
    let narr = Array.make (max 16 (max n (2 * cap))) fill in
    Array.blit arr 0 narr 0 cap;
    narr
  end

let add_node ?name t =
  let id = t.nodes in
  let name = match name with Some n -> n | None -> Printf.sprintf "n%d" id in
  t.names <- grow_to t.names (id + 1) "";
  t.adj <- grow_to t.adj (id + 1) [];
  t.names.(id) <- name;
  t.adj.(id) <- [];
  t.nodes <- id + 1;
  id

let node_count t = t.nodes

let check_node t v =
  if v < 0 || v >= t.nodes then
    invalid_arg (Printf.sprintf "Topology: unknown node %d" v)

let node_name t v =
  check_node t v;
  t.names.(v)

let find_node t name =
  let rec go i =
    if i >= t.nodes then None
    else if String.equal t.names.(i) name then Some i
    else go (i + 1)
  in
  go 0

let link_count t = t.link_n

let link t id =
  if id < 0 || id >= t.link_n then
    invalid_arg (Printf.sprintf "Topology.link: unknown link %d" id);
  t.link_arr.(id)

(* Adjacency-list walk: the fallback for huge topologies and the
   mutation path (no matrix rebuild on every duplicate check). *)
let scan_link_id t a b =
  let rec go = function
    | [] -> -1
    | (nbr, lid) :: rest -> if nbr = b then lid else go rest
  in
  go t.adj.(a)

let build_mat t =
  let n = t.nodes in
  let m = Array.make (n * n) (-1) in
  for a = 0 to n - 1 do
    List.iter (fun (b, lid) -> m.(a * n + b) <- lid) t.adj.(a)
  done;
  t.mat <- m;
  t.mat_nodes <- n

let find_link_id t a b =
  if a < 0 || a >= t.nodes || b < 0 || b >= t.nodes then -1
  else if t.nodes <= mat_threshold then begin
    if t.mat_nodes <> t.nodes then build_mat t;
    t.mat.(a * t.mat_nodes + b)
  end
  else scan_link_id t a b

let find_link t a b =
  let id = find_link_id t a b in
  if id < 0 then None else Some t.link_arr.(id)

let add_oneway ?(cost = 1) t a b ~bandwidth ~delay =
  check_node t a;
  check_node t b;
  if a = b then invalid_arg "Topology.connect: self-loop";
  if scan_link_id t a b >= 0 then
    invalid_arg (Printf.sprintf "Topology.connect: duplicate link %d->%d" a b);
  let l =
    { id = t.link_n; src = a; dst = b; bandwidth; delay; cost; up = true;
      reserved = 0.0 }
  in
  t.link_arr <- grow_to t.link_arr (t.link_n + 1) l;
  t.link_arr.(t.link_n) <- l;
  t.link_n <- t.link_n + 1;
  t.adj.(a) <- (b, l.id) :: t.adj.(a);
  if t.mat_nodes = t.nodes then t.mat.(a * t.mat_nodes + b) <- l.id;
  t.generation <- t.generation + 1;
  l

let connect ?cost t a b ~bandwidth ~delay =
  let ab = add_oneway ?cost t a b ~bandwidth ~delay in
  let ba = add_oneway ?cost t b a ~bandwidth ~delay in
  (ab, ba)

let links t = List.init t.link_n (fun i -> t.link_arr.(i))

let neighbors t v =
  check_node t v;
  List.rev_map (fun (nbr, lid) -> (nbr, t.link_arr.(lid))) t.adj.(v)

let up_neighbors t v =
  List.filter (fun (_, l) -> l.up) (neighbors t v)

(* Each node's out-links in increasing neighbor id (a node has at most
   one link to each neighbor), concatenated in node order. *)
let build_adjacency t =
  let n = t.nodes and m = t.link_n in
  let off = Array.make (n + 1) 0 in
  let nbr = Array.make m 0 and link_ids = Array.make m 0 in
  for v = 0 to n - 1 do
    let k = ref off.(v) in
    List.iter
      (fun (b, lid) ->
         nbr.(!k) <- b;
         link_ids.(!k) <- lid;
         incr k)
      (List.sort (fun (a, _) (b, _) -> Int.compare a b) t.adj.(v));
    off.(v + 1) <- !k
  done;
  t.sadj <- { off; nbr; link_ids };
  t.sadj_links <- m;
  t.sadj_nodes <- n

let adjacency t =
  if t.sadj_links <> t.link_n || t.sadj_nodes <> t.nodes then
    build_adjacency t;
  t.sadj

let up_degree t v =
  check_node t v;
  let a = adjacency t in
  let d = ref 0 in
  for k = a.off.(v) to a.off.(v + 1) - 1 do
    if t.link_arr.(a.link_ids.(k)).up then incr d
  done;
  !d

(* Idempotent: a call that re-asserts the current state is a no-op —
   no events, no generation bump, no hook firing — so callers (retry
   loops, chaos replays) can re-assert freely without provoking
   spurious reconvergence. *)
let set_duplex_state t a b up =
  match find_link t a b, find_link t b a with
  | Some ab, Some ba ->
    let changed = ab.up <> up || ba.up <> up in
    if changed then begin
      ab.up <- up;
      ba.up <- up;
      t.generation <- t.generation + 1;
      if !Mvpn_telemetry.Control.enabled then
        Mvpn_telemetry.Event_log.record
          (Mvpn_telemetry.Registry.events ())
          (if up then Mvpn_telemetry.Event_log.Link_up { src = a; dst = b }
           else Mvpn_telemetry.Event_log.Link_down { src = a; dst = b });
      List.iter (fun hook -> hook ~a ~b ~up) t.duplex_hooks
    end
  | _ ->
    invalid_arg
      (Printf.sprintf "Topology.set_duplex_state: no connection %d<->%d" a b)

let available l = Float.max 0.0 (l.bandwidth -. l.reserved)

let reserve l bw =
  if bw <= available l then begin
    l.reserved <- l.reserved +. bw;
    true
  end else false

let release l bw = l.reserved <- Float.max 0.0 (l.reserved -. bw)

(* --- Builders --------------------------------------------------------- *)

let fresh_nodes t n = Array.init n (fun _ -> add_node t)

let line t n ~bandwidth ~delay =
  let ids = fresh_nodes t n in
  for i = 0 to n - 2 do
    ignore (connect t ids.(i) ids.(i + 1) ~bandwidth ~delay)
  done;
  ids

let ring t n ~bandwidth ~delay =
  if n < 3 then invalid_arg "Topology.ring: need at least 3 nodes";
  let ids = fresh_nodes t n in
  for i = 0 to n - 1 do
    ignore (connect t ids.(i) ids.((i + 1) mod n) ~bandwidth ~delay)
  done;
  ids

let star t n ~bandwidth ~delay =
  let hub = add_node t in
  let leaves = fresh_nodes t n in
  Array.iter (fun leaf -> ignore (connect t hub leaf ~bandwidth ~delay))
    leaves;
  (hub, leaves)

let full_mesh t n ~bandwidth ~delay =
  let ids = fresh_nodes t n in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      ignore (connect t ids.(i) ids.(j) ~bandwidth ~delay)
    done
  done;
  ids

let ring_with_chords t n ~chords ~bandwidth ~delay =
  let ids = ring t n ~bandwidth ~delay in
  List.iter
    (fun (i, j) ->
       if i < 0 || i >= n || j < 0 || j >= n then
         invalid_arg "Topology.ring_with_chords: chord index out of range";
       ignore (connect t ids.(i) ids.(j) ~bandwidth ~delay))
    chords;
  ids

let random_connected t rng ~n ~extra_links ~bandwidth ~delay =
  if n < 1 then invalid_arg "Topology.random_connected: need nodes";
  let ids = fresh_nodes t n in
  (* Random spanning tree: attach each new node to a random earlier one. *)
  for i = 1 to n - 1 do
    let j = Rng.int rng i in
    ignore (connect t ids.(i) ids.(j) ~bandwidth ~delay)
  done;
  let added = ref 0 and attempts = ref 0 in
  while !added < extra_links && !attempts < extra_links * 20 do
    incr attempts;
    let i = Rng.int rng n and j = Rng.int rng n in
    if i <> j && find_link t ids.(i) ids.(j) = None then begin
      ignore (connect t ids.(i) ids.(j) ~bandwidth ~delay);
      incr added
    end
  done;
  ids
