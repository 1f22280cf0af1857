module Topology = Mvpn_sim.Topology
module Heap = Mvpn_sim.Heap

type tree = {
  src : int;
  dist : float array;
  first_hop : int array;
  parent : int array;
}

(* The one relax loop. The frontier is an int {!Heap} ordered by
   (key, seq), so equal keys pop in push order; keys cross into and out
   of it through one floatarray cell, so no pop or push boxes a float.
   It grows to its live size, and the run allocates the tree, the
   settled flags and the frontier's storage, nothing per pop. Every pop
   is due: the bound is [unbounded]'s +infinity. *)
let unbounded = Float.Array.make 1 infinity

let dijkstra_csr ~off ~nbr ~weight ~src =
  let n = Array.length off - 1 in
  if src < 0 || src >= n then
    invalid_arg (Printf.sprintf "Spf.dijkstra: unknown source %d" src);
  let dist = Array.make n infinity in
  let first_hop = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let frontier = Heap.create () in
  let cell = Float.Array.make 1 0.0 in
  dist.(src) <- 0.0;
  Heap.push_at frontier cell src;
  while Heap.size frontier > 0 do
    let v =
      Heap.pop_due frontier ~bound:unbounded ~strict:false ~default:(-1)
        ~key_out:cell
    in
    if (not settled.(v)) && Float.Array.get cell 0 <= dist.(v) then begin
      settled.(v) <- true;
      for k = off.(v) to off.(v + 1) - 1 do
        let u = nbr.(k) and w = Float.Array.get weight k in
        (* A nan weight marks an unusable edge. *)
        if w = w && not settled.(u) then begin
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
  done;
  { src; dist; first_hop; parent }

let dijkstra ?usable ?metric topo ~src =
  let n = Topology.node_count topo in
  if src < 0 || src >= n then
    invalid_arg (Printf.sprintf "Spf.dijkstra: unknown source %d" src);
  let a = Topology.adjacency topo in
  let m = Array.length a.Topology.nbr in
  let weight = Float.Array.make m Float.nan in
  for k = 0 to m - 1 do
    let l = Topology.link topo a.Topology.link_ids.(k) in
    let ok = match usable with None -> l.Topology.up | Some f -> f l in
    (* One store per branch: a float joined from both would be boxed. *)
    if ok then
      match metric with
      | None -> Float.Array.set weight k (float_of_int l.Topology.cost)
      | Some f -> Float.Array.set weight k (f l)
  done;
  dijkstra_csr ~off:a.Topology.off ~nbr:a.Topology.nbr ~weight ~src

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
