module Topology = Mvpn_sim.Topology
module Heap = Mvpn_sim.Heap

type tree = {
  src : int;
  dist : float array;
  first_hop : int array;
  parent : int array;
}

let default_usable (l : Topology.link) = l.Topology.up

let default_metric (l : Topology.link) = float_of_int l.Topology.cost

(* The one relax loop. The frontier is a flat binary min-heap over
   parallel arrays — keys in a floatarray, insertion sequence numbers
   and nodes in int arrays — ordered by (key, seq), so equal keys pop
   FIFO exactly as the event queue's heap would. Each edge is relaxed
   at most once (when its source settles), so [m + 1] slots hold every
   push: the whole run allocates O(n + m) words and nothing per pop. *)
let dijkstra_csr ~off ~nbr ~weight ~src =
  let n = Array.length off - 1 in
  if src < 0 || src >= n then
    invalid_arg (Printf.sprintf "Spf.dijkstra: unknown source %d" src);
  let dist = Array.make n infinity in
  let first_hop = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let cap = Array.length nbr + 1 in
  let keys = Float.Array.make cap 0.0 in
  let seqs = Array.make cap 0 in
  let nodes = Array.make cap 0 in
  let size = ref 0 and next_seq = ref 0 in
  let less i j =
    let ki = Float.Array.unsafe_get keys i
    and kj = Float.Array.unsafe_get keys j in
    ki < kj || (ki = kj && seqs.(i) < seqs.(j))
  in
  let swap i j =
    let k = Float.Array.unsafe_get keys i in
    Float.Array.unsafe_set keys i (Float.Array.unsafe_get keys j);
    Float.Array.unsafe_set keys j k;
    let s = seqs.(i) in
    seqs.(i) <- seqs.(j);
    seqs.(j) <- s;
    let v = nodes.(i) in
    nodes.(i) <- nodes.(j);
    nodes.(j) <- v
  in
  (* Push [v] with the key the caller stored at slot [!size] (a float
     argument would be boxed). *)
  let push v =
    let i = ref !size in
    seqs.(!i) <- !next_seq;
    nodes.(!i) <- v;
    incr next_seq;
    incr size;
    while !i > 0 && less !i ((!i - 1) / 2) do
      let p = (!i - 1) / 2 in
      swap !i p;
      i := p
    done
  in
  (* Remove the root; the caller read it first. *)
  let pop () =
    decr size;
    if !size > 0 then begin
      Float.Array.set keys 0 (Float.Array.get keys !size);
      seqs.(0) <- seqs.(!size);
      nodes.(0) <- nodes.(!size);
      let i = ref 0 and continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 in
        let r = l + 1 in
        let s = ref !i in
        if l < !size && less l !s then s := l;
        if r < !size && less r !s then s := r;
        if !s = !i then continue := false
        else begin
          swap !i !s;
          i := !s
        end
      done
    end
  in
  dist.(src) <- 0.0;
  Float.Array.set keys 0 0.0;
  push src;
  while !size > 0 do
    let d = Float.Array.get keys 0 and v = nodes.(0) in
    pop ();
    if (not settled.(v)) && d <= dist.(v) then begin
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
            Float.Array.set keys !size nd;
            push u
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

(* Widest path: Dijkstra variant maximizing bottleneck available
   bandwidth. *)
let widest_path topo ~src ~dst =
  let n = Topology.node_count topo in
  if src < 0 || src >= n || dst < 0 || dst >= n then None
  else begin
    let width = Array.make n neg_infinity in
    let parent = Array.make n (-1) in
    let settled = Array.make n false in
    let heap = Heap.create () in
    width.(src) <- infinity;
    (* Negate so the min-heap pops the widest candidate first. *)
    Heap.push heap neg_infinity src;
    let rec drain () =
      match Heap.pop heap with
      | None -> ()
      | Some (_, v) ->
        if not settled.(v) then begin
          settled.(v) <- true;
          List.iter
            (fun (nbr, l) ->
               if l.Topology.up && not settled.(nbr) then begin
                 let w = Float.min width.(v) (Topology.available l) in
                 if w > width.(nbr) then begin
                   width.(nbr) <- w;
                   parent.(nbr) <- v;
                   Heap.push heap (-.w) nbr
                 end
               end)
            (Topology.neighbors topo v)
        end;
        drain ()
    in
    drain ();
    if not settled.(dst) then None
    else begin
      let rec build v acc =
        if v = src then v :: acc else build parent.(v) (v :: acc)
      in
      Some (build dst [], width.(dst))
    end
  end

let path_cost ?(metric = default_metric) topo path =
  let rec go acc = function
    | a :: (b :: _ as rest) ->
      (match Topology.find_link topo a b with
       | Some l -> go (acc +. metric l) rest
       | None -> None)
    | [_] | [] -> Some acc
  in
  go 0.0 path

let k_shortest ?(k = 3) ?(usable = default_usable) topo ~src ~dst =
  match shortest_path ~usable topo ~src ~dst with
  | None -> []
  | Some first ->
    let paths = ref [first] in
    let candidates = ref [] in
    let path_cost_exn p =
      match path_cost topo p with Some c -> c | None -> infinity
    in
    let add_candidate p =
      if not (List.mem p !candidates) && not (List.mem p !paths) then
        candidates := p :: !candidates
    in
    let rec take_prefix n = function
      | [] -> []
      | x :: rest -> if n = 0 then [] else x :: take_prefix (n - 1) rest
    in
    (try
       for _ = 2 to k do
         let last = List.hd !paths in
         (* Spur from every node of the previous path except the last. *)
         List.iteri
           (fun i spur_node ->
              if i < List.length last - 1 then begin
                let root = take_prefix (i + 1) last in
                (* Links to exclude: the edge each known path with the
                   same root takes out of the spur node. *)
                let banned_edges =
                  List.filter_map
                    (fun p ->
                       if List.length p > i + 1
                       && take_prefix (i + 1) p = root then
                         Some (List.nth p i, List.nth p (i + 1))
                       else None)
                    (!paths @ !candidates)
                in
                let banned_nodes =
                  List.filteri (fun j _ -> j < i) root
                in
                let usable' l =
                  usable l
                  && (not
                        (List.mem
                           (l.Topology.src, l.Topology.dst)
                           banned_edges))
                  && (not (List.mem l.Topology.src banned_nodes))
                  && not (List.mem l.Topology.dst banned_nodes)
                in
                match shortest_path ~usable:usable' topo ~src:spur_node ~dst
                with
                | Some spur when List.length spur > 1 ->
                  let total = root @ List.tl spur in
                  add_candidate total
                | Some _ | None -> ()
              end)
           last;
         match
           List.sort
             (fun a b -> Float.compare (path_cost_exn a) (path_cost_exn b))
             !candidates
         with
         | [] -> raise Exit
         | best :: rest ->
           paths := best :: !paths;
           candidates := rest
       done
     with Exit -> ());
    List.rev !paths
