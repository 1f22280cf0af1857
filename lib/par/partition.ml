module Topology = Mvpn_sim.Topology

type t = {
  shards : int;
  owner : int array;
  cut : Mvpn_sim.Topology.link list;
}

(* The unit of assignment is a *cluster*: a hint group (all nodes
   sharing one hint value) or a single hintless node. Clusters get
   dense ids in order of their lowest member node, so the whole
   procedure is a pure function of (topology, hint, shards). *)

let compute ?hint topo ~shards =
  if shards < 1 then invalid_arg "Partition.compute: shards < 1";
  let n = Topology.node_count topo in
  if n = 0 then { shards = 1; owner = [||]; cut = [] }
  else begin
    let hint = match hint with Some h -> h | None -> fun _ -> None in
    (* Cluster nodes. *)
    let by_hint : (int, int) Hashtbl.t = Hashtbl.create 16 in
    let cluster = Array.make n (-1) in
    let n_clusters = ref 0 in
    for v = 0 to n - 1 do
      match hint v with
      | None ->
        cluster.(v) <- !n_clusters;
        incr n_clusters
      | Some r ->
        (match Hashtbl.find_opt by_hint r with
         | Some c -> cluster.(v) <- c
         | None ->
           Hashtbl.add by_hint r !n_clusters;
           cluster.(v) <- !n_clusters;
           incr n_clusters)
    done;
    let nc = !n_clusters in
    (* Cluster weights (node counts) and adjacency (link multiplicity
       between distinct clusters). *)
    let weight = Array.make nc 0 in
    for v = 0 to n - 1 do
      weight.(cluster.(v)) <- weight.(cluster.(v)) + 1
    done;
    let adj : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (l : Topology.link) ->
         let a = cluster.(l.Topology.src) and b = cluster.(l.Topology.dst) in
         if a <> b then
           Hashtbl.replace adj (a, b)
             (1 + Option.value ~default:0 (Hashtbl.find_opt adj (a, b))))
      (Topology.links topo);
    let neighbors = Array.make nc [] in
    Hashtbl.iter (fun (a, b) w -> neighbors.(a) <- (b, w) :: neighbors.(a)) adj;
    Array.iteri
      (fun c l ->
         neighbors.(c) <- List.sort (fun (a, _) (b, _) -> compare a b) l)
      neighbors;
    let k = max 1 (min shards nc) in
    let assign = Array.make nc (-1) in
    if k >= nc then
      (* One shard per cluster — nothing to grow. *)
      for c = 0 to nc - 1 do assign.(c) <- c done
    else begin
      (* Farthest-first seeds over the cluster graph (hop distance).
         Unreachable clusters sort first, so every component gets a
         seed before any component gets two. *)
      let seeds = Array.make k 0 in
      let dist = Array.make nc max_int in
      let bfs_from src =
        let q = Queue.create () in
        if dist.(src) > 0 then begin
          dist.(src) <- 0;
          Queue.push src q
        end;
        while not (Queue.is_empty q) do
          let c = Queue.pop q in
          List.iter
            (fun (d, _) ->
               if dist.(d) > dist.(c) + 1 then begin
                 dist.(d) <- dist.(c) + 1;
                 Queue.push d q
               end)
            neighbors.(c)
        done
      in
      seeds.(0) <- 0;
      bfs_from 0;
      for s = 1 to k - 1 do
        let best = ref 0 and best_d = ref (-1) in
        for c = 0 to nc - 1 do
          if dist.(c) > !best_d then begin
            best := c;
            best_d := dist.(c)
          end
        done;
        seeds.(s) <- !best;
        bfs_from !best
      done;
      (* Balanced multi-source growth: the lightest shard extends its
         BFS frontier first, so shards end up weight-balanced while
         staying connected within each component. *)
      let frontier = Array.init k (fun _ -> Queue.create ()) in
      let load = Array.make k 0 in
      Array.iteri (fun s c -> Queue.push c frontier.(s)) seeds;
      let rec grow () =
        let pick = ref (-1) in
        for s = k - 1 downto 0 do
          if not (Queue.is_empty frontier.(s))
          && (!pick < 0 || load.(s) <= load.(!pick)) then
            pick := s
        done;
        if !pick >= 0 then begin
          let s = !pick in
          let c = Queue.pop frontier.(s) in
          if assign.(c) < 0 then begin
            assign.(c) <- s;
            load.(s) <- load.(s) + weight.(c);
            List.iter
              (fun (d, _) -> if assign.(d) < 0 then Queue.push d frontier.(s))
              neighbors.(c)
          end;
          grow ()
        end
      in
      grow ();
      (* Clusters no frontier reached (isolated nodes, stray
         components beyond the seed count) join the lightest shard. *)
      for c = 0 to nc - 1 do
        if assign.(c) < 0 then begin
          let s = ref 0 in
          for t = 1 to k - 1 do
            if load.(t) < load.(!s) then s := t
          done;
          assign.(c) <- !s;
          load.(!s) <- load.(!s) + weight.(c)
        end
      done;
      (* Boundary refinement: move a cluster to a neighboring shard
         when that strictly reduces the number of cut links, without
         emptying its shard or overloading the target. *)
      let max_load = max 1 ((n * 13) / (10 * k) + 1) in
      let members = Array.make k 0 in
      Array.iter (fun s -> members.(s) <- members.(s) + 1) assign;
      for _pass = 1 to 2 do
        for c = 0 to nc - 1 do
          let a = assign.(c) in
          if members.(a) > 1 then begin
            let gain_to = Array.make k 0 in
            List.iter
              (fun (d, w) -> gain_to.(assign.(d)) <- gain_to.(assign.(d)) + w)
              neighbors.(c);
            let best = ref a in
            for s = 0 to k - 1 do
              if s <> a
              && gain_to.(s) > gain_to.(!best)
              && load.(s) + weight.(c) <= max_load then
                best := s
            done;
            if !best <> a then begin
              assign.(c) <- !best;
              load.(a) <- load.(a) - weight.(c);
              load.(!best) <- load.(!best) + weight.(c);
              members.(a) <- members.(a) - 1;
              members.(!best) <- members.(!best) + 1
            end
          end
        done
      done
    end;
    let owner = Array.init n (fun v -> assign.(cluster.(v))) in
    let cut =
      List.filter
        (fun (l : Topology.link) ->
           owner.(l.Topology.src) <> owner.(l.Topology.dst))
        (List.sort
           (fun (a : Topology.link) (b : Topology.link) ->
              compare a.Topology.id b.Topology.id)
           (Topology.links topo))
    in
    { shards = k; owner; cut }
  end

let sizes t =
  let s = Array.make t.shards 0 in
  Array.iter (fun o -> s.(o) <- s.(o) + 1) t.owner;
  s
