open Mvpn_routing
module Topology = Mvpn_sim.Topology
module Rng = Mvpn_sim.Rng
module Prefix = Mvpn_net.Prefix
module Fib = Mvpn_net.Fib
module Ipv4 = Mvpn_net.Ipv4

let pfx = Prefix.of_string_exn
let ip = Ipv4.of_string_exn

(* A diamond: 0 -1- 1 -1- 3, 0 -1- 2 -2- 3 (costs on edges). *)
let diamond () =
  let t = Topology.create () in
  let n = Array.init 4 (fun _ -> Topology.add_node t) in
  let bw = 1e9 and delay = 0.001 in
  ignore (Topology.connect ~cost:1 t n.(0) n.(1) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:1 t n.(1) n.(3) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:1 t n.(0) n.(2) ~bandwidth:bw ~delay);
  ignore (Topology.connect ~cost:2 t n.(2) n.(3) ~bandwidth:bw ~delay);
  (t, n)

(* --- Spf -------------------------------------------------------------- *)

let test_spf_shortest () =
  let t, n = diamond () in
  (match Spf.shortest_path t ~src:n.(0) ~dst:n.(3) with
   | Some path -> Alcotest.(check (list int)) "via 1" [0; 1; 3] path
   | None -> Alcotest.fail "no path");
  Alcotest.(check (option (list int))) "self" (Some [0])
    (Spf.shortest_path t ~src:0 ~dst:0)

let test_spf_respects_down_links () =
  let t, n = diamond () in
  Topology.set_duplex_state t n.(0) n.(1) false;
  match Spf.shortest_path t ~src:n.(0) ~dst:n.(3) with
  | Some path -> Alcotest.(check (list int)) "detour via 2" [0; 2; 3] path
  | None -> Alcotest.fail "no path"

let test_spf_unreachable () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  Alcotest.(check (option (list int))) "disconnected" None
    (Spf.shortest_path t ~src:a ~dst:b)

let test_spf_custom_metric () =
  let t, n = diamond () in
  (* Make the 0-1 hop expensive via a custom metric: path flips. *)
  let metric (l : Topology.link) =
    if (l.Topology.src = 0 && l.Topology.dst = 1)
    || (l.Topology.src = 1 && l.Topology.dst = 0)
    then 10.0
    else float_of_int l.Topology.cost
  in
  match Spf.shortest_path ~metric t ~src:n.(0) ~dst:n.(3) with
  | Some path -> Alcotest.(check (list int)) "via 2 now" [0; 2; 3] path
  | None -> Alcotest.fail "no path"

let test_spf_tree_first_hops () =
  let t, n = diamond () in
  let tree = Spf.dijkstra t ~src:n.(0) in
  Alcotest.(check int) "first hop to 3" 1 tree.Spf.first_hop.(3);
  Alcotest.(check int) "first hop to 2" 2 tree.Spf.first_hop.(2);
  Alcotest.(check (float 1e-9)) "distance" 2.0 tree.Spf.dist.(3)

let spf_triangle_inequality =
  QCheck.Test.make ~name:"spf distances satisfy the triangle inequality"
    ~count:40
    QCheck.(pair (int_range 3 12) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 17 + 11) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:4 ~bandwidth:1e9
           ~delay:0.001
       in
       let trees = Array.map (fun src -> Spf.dijkstra t ~src) ids in
       (* d(a,c) <= d(a,b) + d(b,c) for all triples (indices into ids). *)
       let d i j = trees.(i).Spf.dist.(ids.(j)) in
       let ok = ref true in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           for k = 0 to n - 1 do
             if Float.is_finite (d i j) && Float.is_finite (d j k)
             && d i k > d i j +. d j k +. 1e-9
             then ok := false
           done
         done
       done;
       !ok)

let spf_symmetric_on_duplex =
  QCheck.Test.make ~name:"spf distance is symmetric on duplex links"
    ~count:40
    QCheck.(pair (int_range 3 12) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 23 + 7) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:3 ~bandwidth:1e9
           ~delay:0.001
       in
       Array.for_all
         (fun a ->
            let ta = Spf.dijkstra t ~src:a in
            Array.for_all
              (fun b ->
                 let tb = Spf.dijkstra t ~src:b in
                 Float.abs (ta.Spf.dist.(b) -. tb.Spf.dist.(a)) < 1e-9)
              ids)
         ids)

(* --- Ospf ------------------------------------------------------------- *)

let test_ospf_domain_restriction () =
  (* Two islands joined by a link; routers restricted to their island
     must not learn the other island's prefixes even though the link is
     up. *)
  let t = Topology.create () in
  let left = Topology.line t 3 ~bandwidth:1e9 ~delay:0.001 in
  let right = Topology.line t 3 ~bandwidth:1e9 ~delay:0.001 in
  ignore (Topology.connect t left.(2) right.(0) ~bandwidth:1e9 ~delay:0.001);
  let members v = Array.exists (fun x -> x = v) left in
  let o = Ospf.create ~members t in
  Ospf.attach_prefix o left.(0) (pfx "10.1.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "intra-domain route" (Some left.(1))
    (Fib.next_hop (Ospf.fib o left.(2)) (ip "10.1.0.1"));
  (* The right island is outside the domain: its routers got nothing,
     and left-side LSAs never flooded there. *)
  Alcotest.(check int) "outside empty" 0 (Fib.size (Ospf.fib o right.(0)))

let test_ospf_convergence () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  let rounds = Ospf.converge o in
  Alcotest.(check bool) "some rounds" true (rounds > 0);
  Alcotest.(check bool) "converged" true (Ospf.converged o);
  Alcotest.(check (option int)) "fib route at 0" (Some 1)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"));
  (* Idempotent: nothing changed, zero extra rounds. *)
  Alcotest.(check int) "steady state" 0 (Ospf.converge o)

let test_ospf_local_delivery () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(2) (pfx "10.2.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "local" (Some Fib.local_delivery)
    (Fib.next_hop (Ospf.fib o n.(2)) (ip "10.2.0.1"))

let test_ospf_reconvergence_after_failure () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  ignore (Ospf.converge o);
  Alcotest.(check (option int)) "before failure via 1" (Some 1)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"));
  Topology.set_duplex_state t n.(1) n.(3) false;
  let rounds = Ospf.converge o in
  Alcotest.(check bool) "reflooding happened" true (rounds > 0);
  Alcotest.(check (option int)) "rerouted via 2" (Some 2)
    (Fib.next_hop (Ospf.fib o n.(0)) (ip "10.3.1.1"))

let test_ospf_partition () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  let c = Topology.add_node t and d = Topology.add_node t in
  ignore (Topology.connect t c d ~bandwidth:1e9 ~delay:0.001);
  let o = Ospf.create t in
  Ospf.attach_prefix o d (pfx "10.4.0.0/16");
  ignore (Ospf.converge o);
  (* a cannot know d's prefix: different partition. *)
  Alcotest.(check (option int)) "no route across partition" None
    (Fib.next_hop (Ospf.fib o a) (ip "10.4.0.1"));
  Alcotest.(check (option int)) "partition-local route" (Some d)
    (Fib.next_hop (Ospf.fib o c) (ip "10.4.0.1"))

let test_ospf_distance () =
  let t, n = diamond () in
  let o = Ospf.create t in
  ignore (Ospf.converge o);
  Alcotest.(check (float 1e-9)) "distance 0->3" 2.0
    (Ospf.distance o ~src:n.(0) ~dst:n.(3));
  Alcotest.(check (option int)) "next hop" (Some 1)
    (Ospf.next_hop_to_router o ~src:n.(0) ~dst:n.(3))

let test_ospf_messages_counted () =
  let t, _ = diamond () in
  let o = Ospf.create t in
  ignore (Ospf.converge o);
  Alcotest.(check bool) "lsa copies flowed" true (Ospf.messages_sent o > 0)

let ospf_agrees_with_spf =
  QCheck.Test.make ~name:"ospf fib next hops agree with global spf"
    ~count:30
    QCheck.(pair (int_range 3 10) small_int)
    (fun (n, seed) ->
       let t = Topology.create () in
       let rng = Rng.create (seed * 7 + 3) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:2 ~bandwidth:1e9
           ~delay:0.001
       in
       let o = Ospf.create t in
       let prefix_of i =
         Prefix.make (Ipv4.of_octets 10 i 0 0) 16
       in
       Array.iteri (fun i id -> Ospf.attach_prefix o id (prefix_of i)) ids;
       ignore (Ospf.converge o);
       (* For every src/dst pair, the OSPF next hop must lie on some
          shortest path: dist(src,dst) = cost(src,nh) + dist(nh,dst). *)
       Array.for_all
         (fun src ->
            Array.for_all
              (fun dst ->
                 src = dst
                 ||
                 let addr = Prefix.nth_host (prefix_of dst) 1 in
                 let _ = addr in
                 let tree = Spf.dijkstra t ~src in
                 match
                   Fib.next_hop (Ospf.fib o src)
                     (Prefix.nth_host
                        (prefix_of
                           (let rec idx i =
                              if ids.(i) = dst then i else idx (i + 1)
                            in
                            idx 0))
                        1)
                 with
                 | None -> not (Float.is_finite tree.Spf.dist.(dst))
                 | Some nh when nh = Fib.local_delivery -> src = dst
                 | Some nh ->
                   let nh_tree = Spf.dijkstra t ~src:nh in
                   (match Topology.find_link t src nh with
                    | None -> false
                    | Some l ->
                      Float.abs
                        (tree.Spf.dist.(dst)
                         -. (float_of_int l.Topology.cost
                             +. nh_tree.Spf.dist.(dst)))
                      < 1e-9))
              ids)
         ids)

(* --- One relax loop: equivalence with the list-and-boxed-heap SPFs ---- *)

(* Reference copies of the two Dijkstra loops [Spf.dijkstra_csr]
   replaced: the topology SPF (per-pop sorted neighbor lists, boxed
   heap) and OSPF's SPF over an LSDB (LSA adjacency lists with the
   two-way check). The flat kernel must reproduce both bit for bit. *)
let ref_dijkstra ?(usable = fun (l : Topology.link) -> l.Topology.up)
    ?(metric = fun (l : Topology.link) -> float_of_int l.Topology.cost) topo
    ~src =
  let module Heap = Mvpn_sim.Heap in
  let n = Topology.node_count topo in
  let dist = Array.make n infinity in
  let first_hop = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
      if not settled.(v) && d <= dist.(v) then begin
        settled.(v) <- true;
        let relax (nbr, l) =
          if usable l && not settled.(nbr) then begin
            let nd = dist.(v) +. metric l in
            if nd < dist.(nbr) || (nd = dist.(nbr) && parent.(nbr) > v)
            then begin
              dist.(nbr) <- nd;
              parent.(nbr) <- v;
              first_hop.(nbr) <- (if v = src then nbr else first_hop.(v));
              Heap.push heap nd nbr
            end
          end
        in
        List.iter relax
          (List.sort (fun (a, _) (b, _) -> Int.compare a b)
             (Topology.neighbors topo v))
      end;
      drain ()
  in
  drain ();
  (dist, first_hop, parent)

(* OSPF's converged view of a topology: one adjacency list per router,
   (neighbor, cost) over up links, sorted — what every router's LSDB
   says about its own partition once flooding settles. *)
let ref_lsdb topo =
  Array.init (Topology.node_count topo) (fun v ->
      List.sort compare
        (List.map
           (fun (nbr, (l : Topology.link)) -> (nbr, l.Topology.cost))
           (Topology.up_neighbors topo v)))

let ref_ospf_spf lsdb ~src =
  let module Heap = Mvpn_sim.Heap in
  let n = Array.length lsdb in
  let dist = Array.make n infinity in
  let first_hop = Array.make n (-1) in
  let parent = Array.make n (-1) in
  let settled = Array.make n false in
  let heap = Heap.create () in
  dist.(src) <- 0.0;
  Heap.push heap 0.0 src;
  let rec drain () =
    match Heap.pop heap with
    | None -> ()
    | Some (d, v) ->
      if not settled.(v) && d <= dist.(v) then begin
        settled.(v) <- true;
        List.iter
          (fun (nbr, cost) ->
             let two_way = List.exists (fun (b, _) -> b = v) lsdb.(nbr) in
             if two_way && nbr < n && not settled.(nbr) then begin
               let nd = dist.(v) +. float_of_int cost in
               if nd < dist.(nbr) || (nd = dist.(nbr) && parent.(nbr) > v)
               then begin
                 dist.(nbr) <- nd;
                 parent.(nbr) <- v;
                 first_hop.(nbr) <- (if v = src then nbr else first_hop.(v));
                 Heap.push heap nd nbr
               end
             end)
          lsdb.(v)
      end;
      drain ()
  in
  drain ();
  (dist, first_hop)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* A random connected topology with IGP costs in 1..3 (plenty of
   equal-cost ties), [down] duplex links taken down and as many single
   directions (asymmetric failures: one end still advertises the link,
   which the two-way check must refuse). *)
let random_topo ~n ~seed ~down =
  let t = Topology.create () in
  let rng = Rng.create seed in
  ignore
    (Topology.random_connected t rng ~n ~extra_links:n ~bandwidth:1e9
       ~delay:0.001);
  List.iter
    (fun (l : Topology.link) ->
       if l.Topology.src < l.Topology.dst then begin
         let c = 1 + Rng.int rng 3 in
         l.Topology.cost <- c;
         match Topology.find_link t l.Topology.dst l.Topology.src with
         | Some back -> back.Topology.cost <- c
         | None -> ()
       end)
    (Topology.links t);
  for _ = 1 to down do
    let l = Topology.link t (Rng.int rng (Topology.link_count t)) in
    Topology.set_duplex_state t l.Topology.src l.Topology.dst false
  done;
  for _ = 1 to down do
    (Topology.link t (Rng.int rng (Topology.link_count t))).Topology.up <-
      false
  done;
  t

let spf_matches_reference =
  QCheck.Test.make ~name:"flat spf equals the list-and-heap reference"
    ~count:60
    QCheck.(triple (int_range 2 14) small_int (int_range 0 4))
    (fun (n, seed, down) ->
       let t = random_topo ~n ~seed:(seed * 31 + 5) ~down in
       (* A custom usable (drops every fifth link id, offset by the
          seed) and metric (adds 0.5 on odd link ids) beside the
          defaults. *)
       let usable (l : Topology.link) =
         l.Topology.up && (l.Topology.id + seed) mod 5 <> 0
       in
       let metric (l : Topology.link) =
         float_of_int l.Topology.cost
         +. (0.5 *. float_of_int (l.Topology.id mod 2))
       in
       List.for_all
         (fun src ->
            let agree (tree : Spf.tree) (dist, first_hop, parent) =
              same_bits tree.Spf.dist dist
              && tree.Spf.first_hop = first_hop
              && tree.Spf.parent = parent
            in
            agree (Spf.dijkstra t ~src) (ref_dijkstra t ~src)
            && agree (Spf.dijkstra ~usable t ~src) (ref_dijkstra ~usable t ~src)
            && agree
                 (Spf.dijkstra ~usable ~metric t ~src)
                 (ref_dijkstra ~usable ~metric t ~src))
         (List.init n Fun.id))

let ospf_spf_matches_reference =
  QCheck.Test.make ~name:"ospf spf equals the lsdb reference"
    ~count:60
    QCheck.(triple (int_range 2 14) small_int (int_range 0 4))
    (fun (n, seed, down) ->
       let t = random_topo ~n ~seed:(seed * 13 + 1) ~down in
       let o = Ospf.create t in
       ignore (Ospf.converge o);
       let lsdb = ref_lsdb t in
       List.for_all
         (fun src ->
            let dist, first_hop = ref_ospf_spf lsdb ~src in
            List.for_all
              (fun dst ->
                 Int64.equal
                   (Int64.bits_of_float (Ospf.distance o ~src ~dst))
                   (Int64.bits_of_float dist.(dst))
                 && Ospf.next_hop_to_router o ~src ~dst
                    = (if dst = src || first_hop.(dst) < 0 then None
                       else Some first_hop.(dst)))
              (List.init n Fun.id))
         (List.init n Fun.id))

type ospf_op = Flap of int | Heal of int | Cost of int * int | Attach of int

(* After every converge of a random flap / heal / re-cost / attach
   sequence (partitions included), each router's FIB — reused or
   rebuilt — equals the one a fresh instance converged on the same
   topology and prefixes builds, route for route. *)
let ospf_incremental_matches_fresh =
  QCheck.Test.make ~name:"ospf fibs after flaps equal a fresh converge"
    ~count:40
    QCheck.(triple (int_range 3 10) small_int (int_range 1 12))
    (fun (n, seed, steps) ->
       let t = random_topo ~n ~seed:(seed * 7 + 2) ~down:0 in
       let rng = Rng.create (seed + 99) in
       let attached = ref [] in
       let attach o (v, p) = Ospf.attach_prefix o v p in
       let o = Ospf.create t in
       let next_prefix = ref 0 in
       let add v =
         let p =
           Prefix.make
             (Ipv4.of_octets 10 (!next_prefix / 256) (!next_prefix mod 256) 0)
             24
         in
         incr next_prefix;
         attached := (v, p) :: !attached;
         attach o (v, p)
       in
       for v = 0 to n - 1 do add v done;
       ignore (Ospf.converge o);
       let links = Array.of_list (Topology.links t) in
       let op () =
         let l = links.(Rng.int rng (Array.length links)) in
         match Rng.int rng 4 with
         | 0 -> Flap l.Topology.id
         | 1 -> Heal l.Topology.id
         | 2 -> Cost (l.Topology.id, 1 + Rng.int rng 3)
         | _ -> Attach (Rng.int rng n)
       in
       let apply = function
         | Flap id | Heal id as o' ->
           let l = Topology.link t id in
           Topology.set_duplex_state t l.Topology.src l.Topology.dst
             (match o' with Heal _ -> true | _ -> false)
         | Cost (id, c) ->
           let l = Topology.link t id in
           l.Topology.cost <- c;
           (match Topology.find_link t l.Topology.dst l.Topology.src with
            | Some back -> back.Topology.cost <- c
            | None -> ())
         | Attach v -> add v
       in
       let ok = ref true in
       for _ = 1 to steps do
         apply (op ());
         ignore (Ospf.converge o);
         let fresh = Ospf.create t in
         List.iter (attach fresh) (List.rev !attached);
         ignore (Ospf.converge fresh);
         for v = 0 to n - 1 do
           if Fib.to_list (Ospf.fib o v) <> Fib.to_list (Ospf.fib fresh v)
           then ok := false
         done
       done;
       !ok)

(* Queries run SPF only: they must not replace the router's FIB. *)
let test_ospf_queries_keep_fib () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  ignore (Ospf.converge o);
  let before = Array.map (fun v -> Ospf.fib o v) n in
  (* The table is updated in place, so its generation is what shows a
     write. *)
  let gens = Array.map (fun v -> Fib.generation (Ospf.fib o v)) n in
  Array.iter
    (fun src ->
       Array.iter
         (fun dst ->
            ignore (Ospf.distance o ~src ~dst);
            ignore (Ospf.next_hop_to_router o ~src ~dst))
         n)
    n;
  Array.iteri
    (fun i v ->
       Alcotest.(check bool)
         (Printf.sprintf "fib of %d untouched" v)
         true
         (Ospf.fib o v == before.(i)
          && Fib.generation (Ospf.fib o v) = gens.(i)))
    n;
  (* A converge that moves no route keeps every table too. *)
  ignore (Ospf.converge o);
  Array.iteri
    (fun i v ->
       Alcotest.(check bool) "steady converge reuses the fib" true
         (Ospf.fib o v == before.(i)
          && Fib.generation (Ospf.fib o v) = gens.(i)))
    n

(* A prefix has one owner; re-attaching it where it already is is a
   no-op. *)
let test_ospf_prefix_one_owner () =
  let t, n = diamond () in
  let o = Ospf.create t in
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  Ospf.attach_prefix o n.(3) (pfx "10.3.0.0/16");
  Alcotest.check_raises "second owner"
    (Invalid_argument
       "Ospf.attach_prefix: 10.3.0.0/16 is already attached at router 3")
    (fun () -> Ospf.attach_prefix o n.(2) (pfx "10.3.0.0/16"));
  ignore (Ospf.converge o);
  Alcotest.(check int) "one route per prefix" 1 (Fib.size (Ospf.fib o n.(0)))

(* The E16 backbone's shape: 16 POPs on a chorded ring, 32 CE sites
   hanging off them. *)
let e16_topology () =
  let t = Topology.create () in
  let pops =
    Topology.ring_with_chords t 16 ~chords:[ (0, 8); (4, 12); (2, 10) ]
      ~bandwidth:45e6 ~delay:0.004
  in
  for i = 0 to 31 do
    let ce = Topology.add_node t in
    ignore (Topology.connect t pops.(i mod 16) ce ~bandwidth:2e6 ~delay:0.001)
  done;
  t

(* [Gc.minor_words] is exact (unlike [Gc.allocated_bytes], which lags
   until a collection); on this graph every array the run makes is
   small enough to be a minor allocation. *)
let words_allocated f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_spf_allocates_linear () =
  let t = e16_topology () in
  let n = Topology.node_count t and m = Topology.link_count t in
  ignore (Spf.dijkstra t ~src:0);
  let words = words_allocated (fun () -> ignore (Spf.dijkstra t ~src:0)) in
  (* The tree and the settled flags (4n), one weight per link, the
     frontier's storage (three words a slot, grown by doubling to hold
     its live entries) and a handful of closures. A per-pop neighbor
     list, its sorted copy and a boxed heap slot per push cost several
     times that. *)
  let bound = float_of_int ((4 * n) + (4 * m) + 128) in
  if words > bound then
    Alcotest.failf "dijkstra on n=%d m=%d allocated %.0f words > %.0f" n m
      words bound

(* --- Bgp -------------------------------------------------------------- *)

let test_bgp_ebgp_propagation () =
  let b = Bgp.create () in
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:300 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  (match Bgp.lookup b s2 (ip "203.0.113.7") with
   | Some r ->
     Alcotest.(check (list int)) "as path" [200; 100] r.Bgp.as_path
   | None -> Alcotest.fail "route did not propagate");
  Alcotest.(check bool) "messages counted" true (Bgp.messages_sent b > 0)

let test_bgp_loop_prevention () =
  let b = Bgp.create () in
  (* Triangle of three ASes; the route must not loop forever. *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:300 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.peer b s2 s0;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  let rounds = Bgp.run b in
  Alcotest.(check bool) "terminates quickly" true (rounds <= 4);
  match Bgp.lookup b s1 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "direct path wins" [100] r.Bgp.as_path
  | None -> Alcotest.fail "no route"

let test_bgp_ibgp_no_transit () =
  let b = Bgp.create () in
  (* AS 100: s0; AS 200: s1 - s2 - s3 in a line of iBGP sessions.
     s1 learns from eBGP and must pass to its iBGP peers... but s2 must
     NOT re-advertise to s3 (full-mesh rule). *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2 = Bgp.add_speaker b ~asn:200 in
  let s3 = Bgp.add_speaker b ~asn:200 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s2;
  Bgp.peer b s2 s3;
  Bgp.originate b s0 (pfx "198.51.100.0/24");
  ignore (Bgp.run b);
  Alcotest.(check bool) "s2 has the route" true
    (Bgp.lookup b s2 (ip "198.51.100.1") <> None);
  Alcotest.(check bool) "s3 must not (needs full mesh)" true
    (Bgp.lookup b s3 (ip "198.51.100.1") = None)

let test_bgp_decision_shortest_as_path () =
  let b = Bgp.create () in
  (* Two paths from s3 to s0's prefix: via s1 (1 AS) and via s2 (2 ASes
     chained). *)
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2a = Bgp.add_speaker b ~asn:300 in
  let s2b = Bgp.add_speaker b ~asn:400 in
  let s3 = Bgp.add_speaker b ~asn:500 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s3;
  Bgp.peer b s0 s2a;
  Bgp.peer b s2a s2b;
  Bgp.peer b s2b s3;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  match Bgp.lookup b s3 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "short path chosen" [200; 100] r.Bgp.as_path
  | None -> Alcotest.fail "no route"

let test_bgp_local_pref_overrides () =
  let b = Bgp.create () in
  let s0 = Bgp.add_speaker b ~asn:100 in
  let s1 = Bgp.add_speaker b ~asn:200 in
  let s2a = Bgp.add_speaker b ~asn:300 in
  let s2b = Bgp.add_speaker b ~asn:400 in
  let s3 = Bgp.add_speaker b ~asn:500 in
  Bgp.peer b s0 s1;
  Bgp.peer b s1 s3;
  Bgp.peer b s0 s2a;
  Bgp.peer b s2a s2b;
  Bgp.peer b s2b s3;
  (* Prefer the long way via policy. *)
  Bgp.set_local_pref b s3 ~neighbor:s2b 200;
  Bgp.originate b s0 (pfx "203.0.113.0/24");
  ignore (Bgp.run b);
  match Bgp.lookup b s3 (ip "203.0.113.1") with
  | Some r ->
    Alcotest.(check (list int)) "policy wins over length" [400; 300; 100]
      r.Bgp.as_path
  | None -> Alcotest.fail "no route"

(* --- Mpbgp ------------------------------------------------------------ *)

let rd n : Mpbgp.rd = { Mpbgp.rd_asn = 65000; rd_assigned = n }
let rt n : Mpbgp.rt = { Mpbgp.rt_asn = 65000; rt_value = n }

let vpn_route ?(site = 0) ~rd:r ~pe ~label ~rts prefix =
  { Mpbgp.rd = r; prefix = pfx prefix; next_hop_pe = pe; vpn_label = label;
    export_rts = rts; site }

let test_mpbgp_distribution () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2; 3];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  let at2 = Mpbgp.import m ~pe:2 ~import_rts:[rt 1] in
  Alcotest.(check int) "pe2 imports" 1 (List.length at2);
  let r = List.hd at2 in
  Alcotest.(check int) "label carried" 100 r.Mpbgp.vpn_label;
  Alcotest.(check int) "next hop pe" 1 r.Mpbgp.next_hop_pe

let test_mpbgp_rt_filtering () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 2) ~pe:1 ~label:200 ~rts:[rt 2] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  let green = Mpbgp.import m ~pe:2 ~import_rts:[rt 1] in
  Alcotest.(check int) "only vpn 1 routes" 1 (List.length green);
  Alcotest.(check int) "right label" 100 (List.hd green).Mpbgp.vpn_label

let test_mpbgp_overlapping_prefixes () =
  (* The same 10.0.0.0/16 in two VPNs is kept distinct by the RD. *)
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1] "10.0.0.0/16");
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 2) ~pe:1 ~label:200 ~rts:[rt 2] "10.0.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "both survive" 2 (Mpbgp.total_routes m);
  Alcotest.(check int) "pe2 sees both" 2
    (List.length
       (List.filter
          (fun r -> r.Mpbgp.next_hop_pe = 1)
          (Mpbgp.routes_at m 2)))

let test_mpbgp_withdraw () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~site:7 ~rd:(rd 1) ~pe:1 ~label:100 ~rts:[rt 1]
       "10.0.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "withdrawn" 1 (Mpbgp.withdraw_site m ~pe:1 ~site:7);
  ignore (Mpbgp.run m);
  Alcotest.(check int) "gone at pe2" 0
    (List.length (Mpbgp.import m ~pe:2 ~import_rts:[rt 1]))

let test_mpbgp_session_counts () =
  let mesh = Mpbgp.create () in
  List.iter (Mpbgp.add_pe mesh) [1; 2; 3; 4; 5];
  Alcotest.(check int) "full mesh" 10 (Mpbgp.session_count mesh);
  let rr = Mpbgp.create ~mode:(Mpbgp.Route_reflector 1) () in
  List.iter (Mpbgp.add_pe rr) [1; 2; 3; 4; 5];
  Alcotest.(check int) "route reflector" 4 (Mpbgp.session_count rr)

let test_mpbgp_rr_delivers_everywhere () =
  let m = Mpbgp.create ~mode:(Mpbgp.Route_reflector 1) () in
  List.iter (Mpbgp.add_pe m) [1; 2; 3];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:2 ~label:300 ~rts:[rt 1] "10.7.0.0/16");
  ignore (Mpbgp.run m);
  Alcotest.(check int) "pe3 got it via rr" 1
    (List.length (Mpbgp.import m ~pe:3 ~import_rts:[rt 1]));
  Alcotest.(check int) "rr itself has it" 1
    (List.length (Mpbgp.import m ~pe:1 ~import_rts:[rt 1]))

let test_mpbgp_run_idempotent () =
  let m = Mpbgp.create () in
  List.iter (Mpbgp.add_pe m) [1; 2];
  Mpbgp.export_route m
    (vpn_route ~rd:(rd 1) ~pe:1 ~label:1 ~rts:[rt 1] "10.0.0.0/16");
  let first = Mpbgp.run m in
  Alcotest.(check bool) "work on first run" true (first > 0);
  Alcotest.(check int) "second run is a no-op" 0 (Mpbgp.run m)

(* Model check: random exports (including in-place updates of a key
   whose site changes), site withdrawals, late PEs and propagation
   rounds, against a brute-force model. The model holds each live
   announcement under its (RD, prefix, PE) key and each PE's
   Adj-RIB-In as the announcements delivered at the last round. A round
   costs one UPDATE per announcement a PE gains or loses, plus one per
   holder of an announcement whose label or RTs changed in place. *)
type mpbgp_op =
  | B_export of int * int * int * int * int * int
      (* pe, rd, prefix, site, label, rt mask *)
  | B_withdraw of int * int  (* pe, site *)
  | B_add_pe
  | B_run

let mpbgp_op_gen =
  let open QCheck.Gen in
  let small = int_range 0 2 in
  frequency
    [ (6,
       map
         (fun ((pe, rd, p), (site, label, mask)) ->
            B_export (pe, rd, p, site, label, mask))
         (pair (triple small small small)
            (triple small small (int_range 1 3))));
      (2, map2 (fun pe site -> B_withdraw (pe, site)) small small);
      (1, return B_add_pe);
      (3, return B_run) ]

let mpbgp_op_print = function
  | B_export (pe, r, p, s, l, m) ->
    Printf.sprintf "export(pe%d,rd%d,p%d,s%d,l%d,m%d)" pe r p s l m
  | B_withdraw (pe, s) -> Printf.sprintf "withdraw(pe%d,s%d)" pe s
  | B_add_pe -> "add_pe"
  | B_run -> "run"

type ann = {
  mutable route : Mpbgp.vpnv4_route;
  mutable noisy : bool;  (* label/RT change since the last round *)
}

let mpbgp_model_property =
  QCheck.Test.make ~name:"mpbgp indexes agree with a brute-force model"
    ~count:200
    QCheck.(
      pair bool
        (make ~shrink:Shrink.list
           ~print:(fun l -> String.concat " " (List.map mpbgp_op_print l))
           Gen.(list_size (int_range 0 40) mpbgp_op_gen)))
    (fun (rr, ops) ->
       let m =
         Mpbgp.create
           ~mode:(if rr then Mpbgp.Route_reflector 0 else Mpbgp.Full_mesh) ()
       in
       let pes = ref [ 0; 1 ] in
       List.iter (Mpbgp.add_pe m) !pes;
       let live : (int * int * int, ann) Hashtbl.t = Hashtbl.create 16 in
       let held : (int, ann list) Hashtbl.t = Hashtbl.create 8 in
       let msgs = ref 0 in
       let holds pe = Option.value ~default:[] (Hashtbl.find_opt held pe) in
       let rts_of mask =
         List.filter_map
           (fun v -> if mask land v <> 0 then Some (rt v) else None)
           [ 1; 2 ]
       in
       let nth_pe i = List.nth !pes (i mod List.length !pes) in
       let model_run () =
         let all = Hashtbl.fold (fun _ a acc -> a :: acc) live [] in
         List.iter
           (fun pe ->
              let before = holds pe in
              let after =
                List.filter (fun a -> a.route.Mpbgp.next_hop_pe <> pe) all
              in
              List.iter
                (fun a ->
                   if not (List.memq a before) then incr msgs
                   else if a.noisy then incr msgs)
                after;
              List.iter
                (fun a -> if not (List.memq a after) then incr msgs)
                before;
              Hashtbl.replace held pe after)
           !pes;
         List.iter (fun a -> a.noisy <- false) all
       in
       let by_content = List.sort compare in
       let agree () =
         Mpbgp.total_routes m = Hashtbl.length live
         && Mpbgp.messages_sent m = !msgs
         && List.for_all
              (fun pe ->
                 List.for_all
                   (fun import_rts ->
                      let want =
                        List.filter_map
                          (fun a ->
                             if
                               List.exists
                                 (fun x -> List.mem x import_rts)
                                 a.route.Mpbgp.export_rts
                             then Some a.route
                             else None)
                          (holds pe)
                      in
                      by_content (Mpbgp.import m ~pe ~import_rts)
                      = by_content want)
                   [ [ rt 1 ]; [ rt 2 ]; [ rt 1; rt 2 ] ])
              !pes
       in
       List.for_all
         (fun op ->
            let ok =
              match op with
              | B_export (pe, r, p, site, label, mask) ->
                let pe = nth_pe pe in
                let route =
                  vpn_route ~site ~rd:(rd r) ~pe ~label ~rts:(rts_of mask)
                    (Printf.sprintf "10.%d.0.0/16" p)
                in
                Mpbgp.export_route m route;
                (match Hashtbl.find_opt live (r, p, pe) with
                 | Some a ->
                   if a.route.Mpbgp.vpn_label <> label
                   || a.route.Mpbgp.export_rts <> route.Mpbgp.export_rts
                   then a.noisy <- true;
                   a.route <- route
                 | None ->
                   Hashtbl.replace live (r, p, pe) { route; noisy = false });
                true
              | B_withdraw (pe, site) ->
                let pe = nth_pe pe in
                let victims =
                  Hashtbl.fold
                    (fun k a acc ->
                       let _, _, pe' = k in
                       if pe' = pe && a.route.Mpbgp.site = site then k :: acc
                       else acc)
                    live []
                in
                List.iter (Hashtbl.remove live) victims;
                Mpbgp.withdraw_site m ~pe ~site = List.length victims
              | B_add_pe ->
                let pe = List.length !pes in
                Mpbgp.add_pe m pe;
                pes := !pes @ [ pe ];
                true
              | B_run ->
                model_run ();
                let before = Mpbgp.messages_sent m in
                let sent = Mpbgp.run m in
                sent = Mpbgp.messages_sent m - before
            in
            ok && agree ())
         ops)

(* --- Byte-coded journal: equivalence with the hash-table journal ------- *)

(* A reference copy of the MP-BGP core the byte-coded journal replaced:
   the dirty journal is a hash table from id to pending action, and
   [run] back-fills a late-joining PE by walking every other PE's
   export table. The tables, the interning and the message counting are
   as before; [Mpbgp] must agree with it on every observable. *)
module Ref_bgp = struct
  type key = Mpbgp.rd * int * int * int

  let key_of (r : Mpbgp.vpnv4_route) : key =
    ( r.Mpbgp.rd,
      Ipv4.to_int (Prefix.network r.Mpbgp.prefix),
      Prefix.length r.Mpbgp.prefix,
      r.Mpbgp.next_hop_pe )

  type pe_state = {
    pe : int;
    exported : (key, int) Hashtbl.t;
    by_site : (int, key) Hashtbl.t;
    mutable received : Bytes.t;
  }

  let holds s id =
    id < Bytes.length s.received && Bytes.get s.received id = '\001'

  let set_held s id held =
    Bytes.set s.received id (if held then '\001' else '\000')

  let unbind_site s site =
    let ks = Hashtbl.find_all s.by_site site in
    List.iter (fun _ -> Hashtbl.remove s.by_site site) ks;
    ks

  let reindex_site s k ~from ~into =
    List.iter
      (fun k' -> if k' <> k then Hashtbl.add s.by_site from k')
      (List.rev (unbind_site s from));
    Hashtbl.add s.by_site into k

  type pending = New | Update | Retract

  type t = {
    mode : Mpbgp.session_mode;
    mutable pes : pe_state list;
    mutable messages : int;
    mutable store : Mpbgp.vpnv4_route option array;
    mutable next_id : int;
    pending : (int, pending) Hashtbl.t;
    mutable fresh : int list;
  }

  let create mode =
    { mode; pes = []; messages = 0; store = Array.make 64 None;
      next_id = 0; pending = Hashtbl.create 64; fresh = [] }

  let get_pe t pe = List.find (fun s -> s.pe = pe) t.pes

  let add_pe t pe =
    let s =
      { pe; exported = Hashtbl.create 32; by_site = Hashtbl.create 32;
        received = Bytes.empty }
    in
    t.pes <- t.pes @ [ s ];
    t.fresh <- pe :: t.fresh

  let alloc t r =
    if t.next_id = Array.length t.store then begin
      let bigger = Array.make (2 * Array.length t.store) None in
      Array.blit t.store 0 bigger 0 t.next_id;
      t.store <- bigger
    end;
    let id = t.next_id in
    t.store.(id) <- Some r;
    t.next_id <- id + 1;
    id

  let export t (route : Mpbgp.vpnv4_route) =
    let s = get_pe t route.Mpbgp.next_hop_pe in
    let k = key_of route in
    match Hashtbl.find_opt s.exported k with
    | Some id ->
      (match t.store.(id) with
       | Some old when old = route -> id
       | old ->
         let noisy =
           match old with
           | Some o ->
             if o.Mpbgp.site <> route.Mpbgp.site then
               reindex_site s k ~from:o.Mpbgp.site ~into:route.Mpbgp.site;
             o.Mpbgp.vpn_label <> route.Mpbgp.vpn_label
             || o.Mpbgp.export_rts <> route.Mpbgp.export_rts
           | None -> true
         in
         t.store.(id) <- Some route;
         if noisy && not (Hashtbl.mem t.pending id) then
           Hashtbl.replace t.pending id Update;
         id)
    | None ->
      let id = alloc t route in
      Hashtbl.add s.exported k id;
      Hashtbl.add s.by_site route.Mpbgp.site k;
      Hashtbl.add t.pending id New;
      id

  let withdraw_site t ~pe ~site =
    let s = get_pe t pe in
    let victims = unbind_site s site in
    List.iter
      (fun k ->
         let id = Hashtbl.find s.exported k in
         Hashtbl.remove s.exported k;
         match Hashtbl.find_opt t.pending id with
         | Some New ->
           Hashtbl.remove t.pending id;
           t.store.(id) <- None
         | _ -> Hashtbl.replace t.pending id Retract)
      victims;
    List.length victims

  let targets t src f =
    match t.mode with
    | Mpbgp.Full_mesh -> List.iter (fun d -> if d.pe <> src then f d) t.pes
    | Mpbgp.Route_reflector rr ->
      if src = rr then List.iter (fun d -> if d.pe <> rr then f d) t.pes
      else begin
        f (get_pe t rr);
        List.iter (fun d -> if d.pe <> src && d.pe <> rr then f d) t.pes
      end

  let run t =
    let sent = ref 0 in
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
    let deliver ~changed dst id =
      if holds dst id then begin
        if changed then incr sent
      end
      else begin
        set_held dst id true;
        incr sent
      end
    in
    List.iter
      (fun pe ->
         List.iter
           (fun src ->
              if src.pe <> pe then
                Hashtbl.iter
                  (fun _ id ->
                     if not (Hashtbl.mem t.pending id) then
                       targets t src.pe (fun d ->
                           if d.pe = pe then deliver ~changed:false d id))
                  src.exported)
           t.pes)
      t.fresh;
    t.fresh <- [];
    let entries = Hashtbl.fold (fun id p acc -> (id, p) :: acc) t.pending [] in
    Hashtbl.reset t.pending;
    List.iter
      (fun (id, p) ->
         match p with
         | Retract ->
           List.iter
             (fun d ->
                if holds d id then begin
                  set_held d id false;
                  incr sent
                end)
             t.pes;
           t.store.(id) <- None
         | New | Update ->
           (match t.store.(id) with
            | None -> ()
            | Some r ->
              targets t r.Mpbgp.next_hop_pe (fun d ->
                  deliver ~changed:(p = Update) d id)))
      entries;
    t.messages <- t.messages + !sent;
    !sent

  let find_route t id =
    if id < 0 || id >= t.next_id then None else t.store.(id)

  let routes_at t pe =
    let s = get_pe t pe in
    let own =
      Hashtbl.fold
        (fun _ id acc ->
           match t.store.(id) with Some r -> r :: acc | None -> acc)
        s.exported []
    in
    let acc = ref own in
    for id = min (Bytes.length s.received) t.next_id - 1 downto 0 do
      if Bytes.get s.received id = '\001' then
        match t.store.(id) with Some r -> acc := r :: !acc | None -> ()
    done;
    !acc
end

let journal_equivalence =
  QCheck.Test.make ~name:"byte journal equals the hash-table journal"
    ~count:300
    QCheck.(
      triple bool (int_range 1 3)
        (make ~shrink:Shrink.list
           ~print:(fun l -> String.concat " " (List.map mpbgp_op_print l))
           Gen.(list_size (int_range 0 60) mpbgp_op_gen)))
    (fun (rr, initial, ops) ->
       let mode = if rr then Mpbgp.Route_reflector 0 else Mpbgp.Full_mesh in
       let m = Mpbgp.create ~mode () and r = Ref_bgp.create mode in
       let pes = ref [] in
       let add pe =
         Mpbgp.add_pe m pe;
         Ref_bgp.add_pe r pe;
         pes := !pes @ [ pe ]
       in
       for pe = 0 to initial - 1 do add pe done;
       let issued = ref 0 in
       let rts_of mask =
         List.filter_map
           (fun v -> if mask land v <> 0 then Some (rt v) else None)
           [ 1; 2 ]
       in
       let nth_pe i = List.nth !pes (i mod List.length !pes) in
       let by_content = List.sort compare in
       let agree () =
         Mpbgp.messages_sent m = r.Ref_bgp.messages
         && List.for_all
              (fun pe ->
                 by_content (Mpbgp.routes_at m pe)
                 = by_content (Ref_bgp.routes_at r pe))
              !pes
         && List.for_all
              (fun id -> Mpbgp.find_route m id = Ref_bgp.find_route r id)
              (List.init (!issued + 1) Fun.id)
       in
       List.for_all
         (fun op ->
            match op with
            | B_export (pe, d, p, site, label, mask) ->
              let route =
                vpn_route ~site ~rd:(rd d) ~pe:(nth_pe pe) ~label
                  ~rts:(rts_of mask) (Printf.sprintf "10.%d.0.0/16" p)
              in
              let id = Mpbgp.export m route in
              issued := max !issued id;
              id = Ref_bgp.export r route
            | B_withdraw (pe, site) ->
              let pe = nth_pe pe in
              Mpbgp.withdraw_site m ~pe ~site
              = Ref_bgp.withdraw_site r ~pe ~site
            | B_add_pe ->
              add (List.length !pes);
              true
            | B_run -> Mpbgp.run m = Ref_bgp.run r && agree ())
         ops
       && Mpbgp.run m = Ref_bgp.run r
       && agree ())

(* --- Struct-of-arrays store: tombstone churn and clustering ------------- *)

(* Model check of the store and its two open-addressed indexes under
   churn: a small key space re-exported, withdrawn and re-exported
   before and after runs (so index slots turn into tombstones and are
   reused), sites moved by re-exports, and bulk batches of fresh keys
   that grow the indexes through several rehashes and then leave as
   one withdrawal. The model is a list of standing announcements plus
   a per-id record of what [find_route] must return. *)
type churn_op =
  | C_export of int * int * int * int * int  (* pe, key, site, label, rt mask *)
  | C_withdraw of int * int  (* pe, site *)
  | C_bulk of int * int  (* site, count: keys of their own at PE 0 *)
  | C_run

let churn_op_gen =
  let open QCheck.Gen in
  frequency
    [ (8,
       map
         (fun ((pe, key, site), (label, mask)) ->
            C_export (pe, key, site, label, mask))
         (pair
            (triple (int_range 0 2) (int_range 0 7) (int_range 0 3))
            (pair (int_range 0 1) (int_range 1 3))));
      (4, map2 (fun pe site -> C_withdraw (pe, site)) (int_range 0 2)
            (int_range 0 3));
      (1, map2 (fun site n -> C_bulk (site, n)) (int_range 10 12)
            (int_range 20 150));
      (1, map (fun site -> C_withdraw (0, site)) (int_range 10 12));
      (3, return C_run) ]

let churn_op_print = function
  | C_export (pe, k, s, l, m) ->
    Printf.sprintf "export(pe%d,k%d,s%d,l%d,m%d)" pe k s l m
  | C_withdraw (pe, s) -> Printf.sprintf "withdraw(pe%d,s%d)" pe s
  | C_bulk (s, n) -> Printf.sprintf "bulk(s%d,%d)" s n
  | C_run -> "run"

let rts_of_mask mask =
  List.filter_map
    (fun v -> if mask land v <> 0 then Some (rt v) else None)
    [ 1; 2 ]

type churn_id = {
  mutable c_route : Mpbgp.vpnv4_route;
  mutable c_live : bool;  (* what find_route resolves *)
  mutable c_fresh : bool;  (* exported since the last run *)
  mutable c_retracting : bool;  (* withdrawn, dies at the next run *)
}

let store_churn_property =
  QCheck.Test.make ~name:"store indexes survive tombstone churn" ~count:200
    (QCheck.make ~shrink:QCheck.Shrink.list
       ~print:(fun l -> String.concat " " (List.map churn_op_print l))
       QCheck.Gen.(list_size (int_range 0 60) churn_op_gen))
    (fun ops ->
       let pes = [ 0; 1; 2 ] in
       let m = Mpbgp.create () in
       List.iter (Mpbgp.add_pe m) pes;
       let ids : churn_id array ref = ref [||] in
       let standing = ref [] in  (* (key, id), newest first *)
       let held = Hashtbl.create 4 in  (* pe -> ids delivered at the last run *)
       let key_of (r : Mpbgp.vpnv4_route) =
         (r.Mpbgp.rd, Prefix.to_string r.Mpbgp.prefix, r.Mpbgp.next_hop_pe)
       in
       let export (r : Mpbgp.vpnv4_route) =
         let want =
           match List.assoc_opt (key_of r) !standing with
           | Some id ->
             !ids.(id).c_route <- r;
             id
           | None ->
             let id = Array.length !ids in
             ids :=
               Array.append !ids
                 [| { c_route = r; c_live = true; c_fresh = true;
                      c_retracting = false } |];
             standing := (key_of r, id) :: !standing;
             id
         in
         Mpbgp.export m r = want
       in
       let withdraw pe site =
         let victims, rest =
           List.partition
             (fun ((_, _, pe'), id) ->
                pe' = pe && !ids.(id).c_route.Mpbgp.site = site)
             !standing
         in
         standing := rest;
         List.iter
           (fun (_, id) ->
              let c = !ids.(id) in
              if c.c_fresh then c.c_live <- false else c.c_retracting <- true)
           victims;
         Mpbgp.withdraw_site m ~pe ~site = List.length victims
       in
       let run () =
         Array.iter
           (fun c ->
              if c.c_retracting then begin
                c.c_live <- false;
                c.c_retracting <- false
              end;
              c.c_fresh <- false)
           !ids;
         List.iter
           (fun pe ->
              Hashtbl.replace held pe
                (List.filter_map
                   (fun ((_, _, pe'), id) -> if pe' <> pe then Some id else None)
                   !standing))
           pes;
         ignore (Mpbgp.run m)
       in
       let by_content = List.sort compare in
       let agree () =
         Mpbgp.total_routes m = List.length !standing
         && Mpbgp.store_size m = Array.length !ids
         && Mpbgp.find_route m (Array.length !ids) = None
         && Array.for_all Fun.id
              (Array.mapi
                 (fun id c ->
                    Mpbgp.find_route m id
                    = if c.c_live then Some c.c_route else None)
                 !ids)
         && List.for_all
              (fun pe ->
                 let own =
                   List.filter_map
                     (fun ((_, _, pe'), id) ->
                        if pe' = pe then Some !ids.(id).c_route else None)
                     !standing
                 in
                 let got =
                   List.map
                     (fun id -> !ids.(id).c_route)
                     (Option.value ~default:[] (Hashtbl.find_opt held pe))
                 in
                 by_content (Mpbgp.routes_at m pe) = by_content (own @ got))
              pes
       in
       List.for_all
         (fun op ->
            let ok =
              match op with
              | C_export (pe, key, site, label, mask) ->
                (* Keys 2k and 2k+1 differ in the RD's ASN alone. *)
                let rd =
                  { Mpbgp.rd_asn = 65000 + (key land 1);
                    rd_assigned = (key lsr 1) land 1 }
                in
                export
                  (vpn_route ~site ~rd ~pe ~label ~rts:(rts_of_mask mask)
                     (Printf.sprintf "10.%d.0.0/16" (key lsr 2)))
              | C_withdraw (pe, site) -> withdraw pe site
              | C_bulk (site, n) ->
                List.for_all export
                  (List.init n (fun i ->
                       vpn_route ~site ~rd:(rd (100 + site)) ~pe:0 ~label:i
                         ~rts:[ rt 1 ]
                         (Printf.sprintf "10.%d.%d.0/24" (i lsr 8)
                            (i land 0xff))))
              | C_run -> run (); true
            in
            ok && agree ())
         ops)

(* Keys that differ in one field only share every other one, so once
   their index holds a few dozen of them, nearly every probe passes
   another's slot: each key field must take part in the comparison. *)
let test_store_keys_differ_in_one_field () =
  let variants =
    [ ("rd asn", fun i -> ({ Mpbgp.rd_asn = i; rd_assigned = 1 }, 0, 0));
      ("rd assigned", fun i -> (rd i, 0, 0));
      ("prefix", fun i -> (rd 1, i, 0));
      ("pe", fun i -> (rd 1, 0, i)) ]
  in
  List.iter
    (fun (field, key) ->
       let m = Mpbgp.create () in
       for pe = 0 to 39 do Mpbgp.add_pe m pe done;
       let routes =
         List.init 40 (fun i ->
             let r, p, pe = key i in
             vpn_route ~site:(100 + i) ~rd:r ~pe ~label:i ~rts:[ rt 1 ]
               (Printf.sprintf "10.%d.0.0/16" p))
       in
       List.iteri
         (fun i r ->
            Alcotest.(check int) (field ^ ": fresh id") i (Mpbgp.export m r))
         routes;
       Alcotest.(check int) (field ^ ": routes") 40 (Mpbgp.total_routes m);
       List.iteri
         (fun i r ->
            Alcotest.(check bool) (field ^ ": resolves") true
              (Mpbgp.find_route m i = Some r))
         routes;
       (* One site per route: each withdrawal takes exactly its own. *)
       List.iteri
         (fun i (r : Mpbgp.vpnv4_route) ->
            Alcotest.(check int) (field ^ ": withdrawn") 1
              (Mpbgp.withdraw_site m ~pe:r.Mpbgp.next_hop_pe ~site:(100 + i)))
         routes;
       Alcotest.(check int) (field ^ ": none left") 0 (Mpbgp.total_routes m))
    variants

(* The key shape of E19's 10k portfolio — customers 1..10k (the RD),
   sids 0..511 (the /24 and the site), 12 PEs — must not cluster in the
   store's linear-probing indexes. The longest probe is 26 slots; it is
   59 with the multiply-add fold alone (no avalanche finalizer), whose
   low bits see only the sid and the low bits of the customer. *)
let test_store_probe_clustering () =
  let m = Mpbgp.create () in
  for pe = 0 to 11 do Mpbgp.add_pe m pe done;
  for c = 1 to 10_000 do
    for j = 0 to 11 do
      let sid = ((j * 43) + c) mod 512 in
      Mpbgp.export_route m
        { Mpbgp.rd = rd c;
          prefix = Prefix.make (Ipv4.of_octets 10 (sid lsr 8) (sid land 0xff) 0) 24;
          next_hop_pe = ((c * 7) + j) mod 12; vpn_label = 16 + sid;
          export_rts = [ rt (4 * c) ]; site = (c lsl 16) lor sid }
    done
  done;
  Alcotest.(check int) "routes" 120_000 (Mpbgp.total_routes m);
  let worst = Mpbgp.longest_probe m in
  if worst > 40 then Alcotest.failf "longest probe %d slots (want <= 40)" worst

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "routing"
    [ ("spf",
       [ Alcotest.test_case "shortest" `Quick test_spf_shortest;
         Alcotest.test_case "down links" `Quick
           test_spf_respects_down_links;
         Alcotest.test_case "unreachable" `Quick test_spf_unreachable;
         Alcotest.test_case "custom metric" `Quick test_spf_custom_metric;
         Alcotest.test_case "tree first hops" `Quick
           test_spf_tree_first_hops;
         qt spf_triangle_inequality;
         qt spf_symmetric_on_duplex;
         qt spf_matches_reference;
         Alcotest.test_case "allocates O(n + m)" `Quick
           test_spf_allocates_linear ]);
      ("ospf",
       [ Alcotest.test_case "convergence" `Quick test_ospf_convergence;
         Alcotest.test_case "domain restriction" `Quick
           test_ospf_domain_restriction;
         Alcotest.test_case "local delivery" `Quick
           test_ospf_local_delivery;
         Alcotest.test_case "reconvergence" `Quick
           test_ospf_reconvergence_after_failure;
         Alcotest.test_case "partition" `Quick test_ospf_partition;
         Alcotest.test_case "distance" `Quick test_ospf_distance;
         Alcotest.test_case "messages counted" `Quick
           test_ospf_messages_counted;
         qt ospf_agrees_with_spf;
         qt ospf_spf_matches_reference;
         qt ospf_incremental_matches_fresh;
         Alcotest.test_case "queries keep the fib" `Quick
           test_ospf_queries_keep_fib;
         Alcotest.test_case "a prefix has one owner" `Quick
           test_ospf_prefix_one_owner ]);
      ("bgp",
       [ Alcotest.test_case "ebgp propagation" `Quick
           test_bgp_ebgp_propagation;
         Alcotest.test_case "loop prevention" `Quick
           test_bgp_loop_prevention;
         Alcotest.test_case "ibgp no transit" `Quick
           test_bgp_ibgp_no_transit;
         Alcotest.test_case "shortest as path" `Quick
           test_bgp_decision_shortest_as_path;
         Alcotest.test_case "local pref" `Quick
           test_bgp_local_pref_overrides ]);
      ("mpbgp",
       [ Alcotest.test_case "distribution" `Quick test_mpbgp_distribution;
         Alcotest.test_case "rt filtering" `Quick test_mpbgp_rt_filtering;
         Alcotest.test_case "overlapping prefixes" `Quick
           test_mpbgp_overlapping_prefixes;
         Alcotest.test_case "withdraw" `Quick test_mpbgp_withdraw;
         Alcotest.test_case "session counts" `Quick
           test_mpbgp_session_counts;
         Alcotest.test_case "route reflector" `Quick
           test_mpbgp_rr_delivers_everywhere;
         Alcotest.test_case "run idempotent" `Quick
           test_mpbgp_run_idempotent;
         qt mpbgp_model_property;
         qt journal_equivalence;
         qt store_churn_property;
         Alcotest.test_case "store keys differ in one field" `Quick
           test_store_keys_differ_in_one_field;
         Alcotest.test_case "probe clustering on the E19 key shape" `Quick
           test_store_probe_clustering ]) ]
