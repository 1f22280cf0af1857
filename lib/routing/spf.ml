module Topology = Mvpn_sim.Topology
module Heap = Mvpn_sim.Heap

type tree = {
  mutable src : int;
  dist : float array;
  first_hop : int array;
  parent : int array;
}

let make_tree ~nodes =
  { src = -1; dist = Array.make nodes infinity;
    first_hop = Array.make nodes (-1); parent = Array.make nodes (-1) }

(* Scratch of the relax loop, reused run after run: the settled flags,
   the frontier (an int {!Heap} that keeps its grown storage; a full
   run leaves it empty), the one-slot key cell and the weight row
   {!dijkstra_into} fills from a topology. *)
type workspace = {
  mutable settled : Bytes.t;
  frontier : int Heap.t;
  cell : floatarray;
  mutable weight : floatarray;
}

let workspace () =
  { settled = Bytes.empty; frontier = Heap.create ();
    cell = Float.Array.make 1 0.0; weight = Float.Array.create 0 }

(* The one relax loop. The frontier is ordered by (key, seq), so equal
   keys pop in push order; keys cross into and out of it through the
   workspace's floatarray cell, so no pop or push boxes a float. Every
   pop is due: the bound is [unbounded]'s +infinity. Once the
   workspace has grown to the graph, a run allocates nothing. *)
let unbounded = Float.Array.make 1 infinity

let dijkstra_csr ws ~off ~nbr ~weight ~src ~into =
  let n = Array.length off - 1 in
  if src < 0 || src >= n then
    invalid_arg (Printf.sprintf "Spf.dijkstra: unknown source %d" src);
  if Array.length into.dist <> n then
    invalid_arg
      (Printf.sprintf "Spf.dijkstra_csr: a %d-node tree for a %d-node graph"
         (Array.length into.dist) n);
  let dist = into.dist and first_hop = into.first_hop
  and parent = into.parent in
  Array.fill dist 0 n infinity;
  Array.fill first_hop 0 n (-1);
  Array.fill parent 0 n (-1);
  into.src <- src;
  if Bytes.length ws.settled < n then ws.settled <- Bytes.create n;
  let settled = ws.settled and frontier = ws.frontier and cell = ws.cell in
  Bytes.fill settled 0 n '\000';
  dist.(src) <- 0.0;
  Float.Array.set cell 0 0.0;
  Heap.push_at frontier cell src;
  while Heap.size frontier > 0 do
    let v =
      Heap.pop_due frontier ~bound:unbounded ~strict:false ~default:(-1)
        ~key_out:cell
    in
    if Bytes.get settled v = '\000' && Float.Array.get cell 0 <= dist.(v)
    then begin
      Bytes.set settled v '\001';
      for k = off.(v) to off.(v + 1) - 1 do
        let u = nbr.(k) and w = Float.Array.get weight k in
        (* A nan weight marks an unusable edge. *)
        if w = w && Bytes.get settled u = '\000' then begin
          let nd = dist.(v) +. w in
          (* Strict improvement, or same cost through a lower parent:
             deterministic tie-breaking for reproducible routing. *)
          if nd < dist.(u) || (nd = dist.(u) && parent.(u) > v) then begin
            dist.(u) <- nd;
            parent.(u) <- v;
            first_hop.(u) <- (if v = src then u else first_hop.(v));
            Float.Array.set cell 0 nd;
            Heap.push_at frontier cell u
          end
        end
      done
    end
  done

let dijkstra_into ws ?usable ?metric topo ~src ~into =
  let n = Topology.node_count topo in
  if src < 0 || src >= n then
    invalid_arg (Printf.sprintf "Spf.dijkstra: unknown source %d" src);
  let a = Topology.adjacency topo in
  let m = Array.length a.Topology.nbr in
  if Float.Array.length ws.weight <> m then
    ws.weight <- Float.Array.make m Float.nan;
  let weight = ws.weight in
  for k = 0 to m - 1 do
    let l = Topology.link topo a.Topology.link_ids.(k) in
    let ok = match usable with None -> l.Topology.up | Some f -> f l in
    (* One store per branch: a float joined from both would be boxed. *)
    if not ok then Float.Array.set weight k Float.nan
    else
      match metric with
      | None -> Float.Array.set weight k (float_of_int l.Topology.cost)
      | Some f -> Float.Array.set weight k (f l)
  done;
  dijkstra_csr ws ~off:a.Topology.off ~nbr:a.Topology.nbr ~weight ~src ~into

let dijkstra ?usable ?metric topo ~src =
  let into = make_tree ~nodes:(Topology.node_count topo) in
  dijkstra_into (workspace ()) ?usable ?metric topo ~src ~into;
  into

let path_of_tree tree dst =
  if dst = tree.src then Some [dst]
  else if dst < 0 || dst >= Array.length tree.dist then None
  else if Float.is_finite tree.dist.(dst) then begin
    let rec build v acc =
      if v = tree.src then v :: acc else build tree.parent.(v) (v :: acc)
    in
    Some (build dst [])
  end else None

let shortest_path ?usable ?metric topo ~src ~dst =
  path_of_tree (dijkstra ?usable ?metric topo ~src) dst
