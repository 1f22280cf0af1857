open Mvpn_par
module Topology = Mvpn_sim.Topology
module Packet = Mvpn_net.Packet
module Flow = Mvpn_net.Flow
module Ipv4 = Mvpn_net.Ipv4
module T = Mvpn_telemetry

(* --- Partition --------------------------------------------------------- *)

let ring_topo n =
  let topo = Topology.create () in
  ignore (Topology.ring topo n ~bandwidth:1e9 ~delay:1e-3);
  topo

let test_partition_k1_identity () =
  let topo = ring_topo 9 in
  let p = Partition.compute topo ~shards:1 in
  Alcotest.(check int) "one shard" 1 p.Partition.shards;
  Array.iter (fun o -> Alcotest.(check int) "owner 0" 0 o) p.Partition.owner;
  Alcotest.(check int) "no cut links" 0 (List.length p.Partition.cut)

let test_partition_clamp () =
  let topo = ring_topo 4 in
  let p = Partition.compute topo ~shards:100 in
  Alcotest.(check bool) "clamped to node count" true
    (p.Partition.shards <= 4);
  Array.iter
    (fun s -> Alcotest.(check bool) "no empty shard" true (s > 0))
    (Partition.sizes p);
  Alcotest.check_raises "zero shards rejected"
    (Invalid_argument "Partition.compute: shards < 1") (fun () ->
      ignore (Partition.compute topo ~shards:0))

let test_partition_isolated_nodes () =
  let topo = Topology.create () in
  for _ = 0 to 5 do
    ignore (Topology.add_node topo)
  done;
  ignore (Topology.connect topo 0 1 ~bandwidth:1e9 ~delay:1e-3);
  ignore (Topology.connect topo 1 2 ~bandwidth:1e9 ~delay:1e-3);
  (* nodes 3, 4, 5 have no links at all *)
  let p = Partition.compute topo ~shards:3 in
  Array.iteri
    (fun node o ->
       if o < 0 || o >= p.Partition.shards then
         Alcotest.failf "node %d unowned (owner %d)" node o)
    p.Partition.owner;
  Alcotest.(check int) "sizes cover every node" 6
    (Array.fold_left ( + ) 0 (Partition.sizes p))

let test_partition_cut_is_exact () =
  let topo = Topology.create () in
  ignore
    (Topology.ring_with_chords topo 16
       ~chords:[ (0, 8); (2, 10); (4, 12); (6, 14); (1, 9) ]
       ~bandwidth:1e9 ~delay:1e-3);
  let p = Partition.compute topo ~shards:4 in
  let owner = p.Partition.owner in
  let cut_ids =
    List.map (fun (l : Topology.link) -> l.Topology.id) p.Partition.cut
  in
  Alcotest.(check int) "each cut link listed once"
    (List.length cut_ids)
    (List.length (List.sort_uniq Int.compare cut_ids));
  List.iter
    (fun (l : Topology.link) ->
       Alcotest.(check bool) "cut endpoints in different shards" true
         (owner.(l.Topology.src) <> owner.(l.Topology.dst)))
    p.Partition.cut;
  (* ... and every cross-shard link of the topology is in the cut. *)
  List.iter
    (fun (l : Topology.link) ->
       if owner.(l.Topology.src) <> owner.(l.Topology.dst) then
         Alcotest.(check bool)
           (Printf.sprintf "link %d in cut" l.Topology.id)
           true
           (List.mem l.Topology.id cut_ids))
    (Topology.links topo)

let partition_covers =
  QCheck.Test.make ~name:"partition always covers every node" ~count:60
    QCheck.(triple (int_range 2 24) (int_bound 12) (int_range 1 9))
    (fun (n, extra, shards) ->
      let topo = Topology.create () in
      ignore
        (Topology.random_connected topo
           (Mvpn_sim.Rng.create (n + extra))
           ~n ~extra_links:extra ~bandwidth:1e9 ~delay:1e-3);
      let p = Partition.compute topo ~shards in
      Array.for_all (fun o -> o >= 0 && o < p.Partition.shards)
        p.Partition.owner
      && Array.fold_left ( + ) 0 (Partition.sizes p) = n
      && Array.for_all (fun s -> s > 0) (Partition.sizes p)
      && List.for_all
           (fun (l : Topology.link) ->
             p.Partition.owner.(l.Topology.src)
             <> p.Partition.owner.(l.Topology.dst))
           p.Partition.cut)

(* --- Exchange ----------------------------------------------------------- *)

let dummy_packet =
  let flow =
    Flow.make (Ipv4.of_octets 10 0 0 1) (Ipv4.of_octets 10 0 0 2)
  in
  fun () -> Packet.make ~now:0.0 flow

let test_exchange_channels () =
  let ex = Exchange.create ~shards:3 () in
  Alcotest.(check (list (pair int int))) "starts empty" []
    (Exchange.channels ex);
  Exchange.open_channel ex ~src:2 ~dst:0;
  Exchange.open_channel ex ~src:0 ~dst:1;
  Exchange.open_channel ex ~src:0 ~dst:1;
  Alcotest.(check (list (pair int int))) "sorted, idempotent"
    [ (0, 1); (2, 0) ]
    (Exchange.channels ex);
  Alcotest.check_raises "send needs an open channel"
    (Invalid_argument "Exchange.send: no channel 1 -> 2") (fun () ->
      Exchange.send ex ~src:1 ~dst:2 ~arrival:1.0 ~sent:0.5 ~src_node:0
        ~dst_node:1 (dummy_packet ()))

let test_exchange_drain_order () =
  let ex = Exchange.create ~shards:3 () in
  Exchange.open_channel ex ~src:0 ~dst:2;
  Exchange.open_channel ex ~src:1 ~dst:2;
  let send src arrival =
    Exchange.send ex ~src ~dst:2 ~arrival ~sent:(arrival -. 0.1)
      ~src_node:src ~dst_node:9 (dummy_packet ())
  in
  send 1 5.0;
  send 0 3.0;
  send 0 1.0;
  send 1 2.0;
  let got = Exchange.drain ex ~dst:2 in
  Alcotest.(check (list (pair int int)))
    "groups by ascending source, send order within each"
    [ (0, 0); (0, 1); (1, 0); (1, 1) ]
    (List.map
       (fun (m : Exchange.msg) -> (m.Exchange.src_shard, m.Exchange.seq))
       got);
  Alcotest.(check int) "drain empties" 0
    (List.length (Exchange.drain ex ~dst:2))

let test_exchange_overflow_soft () =
  let ex = Exchange.create ~capacity:2 ~shards:2 () in
  Exchange.open_channel ex ~src:0 ~dst:1;
  for i = 1 to 5 do
    Exchange.send ex ~src:0 ~dst:1 ~arrival:(float_of_int i) ~sent:0.0
      ~src_node:0 ~dst_node:1 (dummy_packet ())
  done;
  Alcotest.(check int) "overflows counted" 3 (Exchange.overflows ex);
  (* soft bound: nothing is dropped or blocked *)
  Alcotest.(check int) "all messages kept" 5
    (List.length (Exchange.drain ex ~dst:1))

(* --- Clock -------------------------------------------------------------- *)

let test_clock_single_shard () =
  let c = Clock.create ~shards:1 ~horizon:10.0 ~inbound:[| [] |] in
  Alcotest.(check bool) "lookahead" true (Clock.lookahead c);
  Alcotest.(check (float 0.0)) "no inbound -> horizon" 10.0
    (Clock.next_bound c ~shard:0 ~completed:0.0)

let test_clock_zero_delay_disables_lookahead () =
  let c =
    Clock.create ~shards:2 ~horizon:10.0 ~inbound:[| [ (1, 0.0) ]; [] |]
  in
  Alcotest.(check bool) "barrier mode" false (Clock.lookahead c)

let test_clock_lookahead_windows () =
  let c =
    Clock.create ~shards:2 ~horizon:10.0
      ~inbound:[| []; [ (0, 0.5) ] |]
  in
  (* shard 1's first window: neighbor published nothing (0.0), so the
     bound is 0 + 0.5. *)
  Alcotest.(check (float 1e-9)) "first window" 0.5
    (Clock.next_bound c ~shard:1 ~completed:0.0);
  (* next_bound blocks until the neighbor publishes past the completed
     point; publish from another domain and watch it wake. *)
  let waiter =
    Domain.spawn (fun () -> Clock.next_bound c ~shard:1 ~completed:0.5)
  in
  Clock.publish c ~shard:0 2.0;
  Alcotest.(check (float 1e-9)) "window follows publication" 2.5
    (Domain.join waiter);
  (* publications are monotone: an older value cannot move the bound
     backwards. *)
  Clock.publish c ~shard:0 1.0;
  Alcotest.(check (float 1e-9)) "monotone" 2.5
    (Clock.next_bound c ~shard:1 ~completed:0.5);
  Clock.publish c ~shard:0 100.0;
  Alcotest.(check (float 1e-9)) "clamped to horizon" 10.0
    (Clock.next_bound c ~shard:1 ~completed:2.5)

let test_clock_barrier_and_min_next () =
  let c =
    Clock.create ~shards:2 ~horizon:10.0
      ~inbound:[| [ (1, 0.0) ]; [ (0, 0.0) ] |]
  in
  let flag = Atomic.make 0 in
  let worker () =
    Atomic.incr flag;
    Clock.barrier c;
    let seen = Atomic.get flag in
    (* both increments happened before anyone left the barrier *)
    let m1 = Clock.min_next c ~shard:1 3.0 in
    let m2 = Clock.min_next c ~shard:1 7.0 in
    (seen, m1, m2)
  in
  let d = Domain.spawn worker in
  Atomic.incr flag;
  Clock.barrier c;
  let m1 = Clock.min_next c ~shard:0 5.0 in
  let m2 = Clock.min_next c ~shard:0 4.0 in
  let seen, w1, w2 = Domain.join d in
  Alcotest.(check int) "barrier separates" 2 seen;
  Alcotest.(check (float 0.0)) "min of both (round 1)" 3.0 m1;
  Alcotest.(check (float 0.0)) "agreed" 3.0 w1;
  Alcotest.(check (float 0.0)) "min of both (round 2)" 4.0 m2;
  Alcotest.(check (float 0.0)) "agreed (round 2)" 4.0 w2

(* --- Runner: the headline invariant ------------------------------------- *)

let totals (o : Runner.outcome) =
  ( o.Runner.delivered, o.Runner.dropped, o.Runner.events,
    o.Runner.scheduled, o.Runner.classes, T.Slo.in_budget o.Runner.slo,
    T.Slo.violation_count o.Runner.slo )

let with_telemetry f =
  T.Control.enable ();
  Fun.protect ~finally:T.Control.disable f

let small_cfg ~pops ~vpns ~sites ~seed =
  { Runner.default_config with
    Runner.pops; vpns; sites_per_vpn = sites; load = 0.7; duration = 2.0;
    seed }

let runner_matches_sequential =
  QCheck.Test.make ~name:"parallel totals equal sequential for K=1,2,4"
    ~count:5
    QCheck.(
      quad (int_range 4 8) (int_range 1 2) (int_range 2 3) (int_range 1 1000))
    (fun (pops, vpns, sites, seed) ->
      let cfg = small_cfg ~pops ~vpns ~sites ~seed in
      with_telemetry (fun () ->
          let base = totals (Runner.run_sequential cfg) in
          List.for_all
            (fun k ->
              totals (Runner.run_parallel { cfg with Runner.shards = k })
              = base)
            [ 1; 2; 4 ]))

let test_runner_k8_deterministic () =
  let cfg =
    { (small_cfg ~pops:10 ~vpns:2 ~sites:3 ~seed:77) with Runner.shards = 8 }
  in
  with_telemetry (fun () ->
      let a = Runner.run_parallel cfg in
      let b = Runner.run_parallel cfg in
      Alcotest.(check bool) "same totals" true (totals a = totals b);
      Alcotest.(check int) "same exchanges" a.Runner.exchanged
        b.Runner.exchanged;
      Alcotest.(check int) "same leftovers" a.Runner.leftover
        b.Runner.leftover;
      Alcotest.(check bool) "same partition" true
        (a.Runner.sizes = b.Runner.sizes
        && a.Runner.cut_links = b.Runner.cut_links);
      Alcotest.(check bool) "matches sequential" true
        (totals (Runner.run_sequential cfg) = totals a))

let test_runner_barrier_mode_parity () =
  (* Zero core propagation delay kills every cut link's lookahead; the
     runner must fall back to epoch barriers and still land on the
     sequential totals. *)
  let cfg =
    { (small_cfg ~pops:8 ~vpns:2 ~sites:2 ~seed:5) with
      Runner.shards = 4; core_delay = Some 0.0 }
  in
  with_telemetry (fun () ->
      let par = Runner.run_parallel cfg in
      Alcotest.(check bool) "barrier fallback engaged" false
        par.Runner.lookahead;
      Alcotest.(check bool) "totals still match" true
        (totals (Runner.run_sequential cfg) = totals par))

(* The prepare_replica contract both entry points keep: one call per
   replica, on the replica that then runs, after the timeline sampler
   has scheduled its first tick and before any workload is armed. *)
let test_prepare_replica_order () =
  let cfg =
    { (small_cfg ~pops:6 ~vpns:2 ~sites:2 ~seed:3) with
      Runner.sample_interval = Some 0.5 }
  in
  (* What a bare build leaves scheduled; the sampler adds one tick. *)
  let built =
    T.Control.with_disabled (fun () ->
        Mvpn_sim.Engine.pending (Mvpn_core.Scenario.engine (Runner.build cfg)))
  in
  let check_run name run cfg ~replicas =
    let lock = Mutex.create () in
    let seen = ref [] in
    let prepare sc =
      let pending = Mvpn_sim.Engine.pending (Mvpn_core.Scenario.engine sc) in
      let armed = Mvpn_core.Scenario.class_reports sc <> [] in
      Mutex.protect lock (fun () -> seen := (sc, pending, armed) :: !seen)
    in
    ignore
      (with_telemetry (fun () ->
           run { cfg with Runner.prepare_replica = Some prepare }));
    Alcotest.(check int) (name ^ ": one call per replica") replicas
      (List.length !seen);
    List.iter
      (fun (sc, pending, armed) ->
         Alcotest.(check int) (name ^ ": after the sampler's first tick")
           (built + 1) pending;
         Alcotest.(check bool) (name ^ ": before the workload") false armed;
         Alcotest.(check bool) (name ^ ": on the replica that ran") true
           (Mvpn_sim.Engine.processed (Mvpn_core.Scenario.engine sc) > 0))
      !seen
  in
  check_run "sequential" Runner.run_sequential cfg ~replicas:1;
  check_run "K=2" Runner.run_parallel { cfg with Runner.shards = 2 }
    ~replicas:2

(* --- Fatelog ------------------------------------------------------------- *)

type fate = float * int * int * bool * float  (* time vpn band dropped latency *)

(* Per-shard streams, each time-sorted; times come from a few integer
   values, so equal times across (and within) shards are common. *)
let fate_streams_gen =
  let open QCheck.Gen in
  let fate =
    map
      (fun ((t, vpn, band), (dropped, lat)) ->
         (float_of_int t, vpn, band, dropped, if dropped then 0.0 else lat))
      (pair
         (triple (int_range 0 6) (int_range 0 5000) (int_range 0 7))
         (pair bool (float_bound_inclusive 1.0)))
  in
  let stream =
    map
      (List.stable_sort (fun (a, _, _, _, _) (b, _, _, _, _) ->
           Float.compare a b))
      (list_size (int_range 0 25) fate)
  in
  list_size (int_range 1 5) stream

let fatelog_merge_equals_sort =
  QCheck.Test.make ~name:"fate merge equals the (time, shard, seq) sort"
    ~count:300
    (QCheck.make fate_streams_gen)
    (fun streams ->
       let logs =
         Array.of_list
           (List.map
              (fun stream ->
                 let fl = Fatelog.create () in
                 List.iter
                   (fun (time, vpn, band, dropped, latency) ->
                      Fatelog.add fl ~time ~vpn ~band ~dropped ~latency)
                   stream;
                 fl)
              streams)
       in
       let merged = ref [] in
       Fatelog.iter_merged logs (fun ~time ~vpn ~band ~dropped ~latency ->
           merged := (time, vpn, band, dropped, latency) :: !merged);
       (* The sort the runner did before the merge. *)
       let sorted : fate list =
         List.concat
           (List.mapi
              (fun shard stream ->
                 List.mapi (fun seq f -> (shard, seq, f)) stream)
              streams)
         |> List.sort (fun (sa, qa, (ta, _, _, _, _)) (sb, qb, (tb, _, _, _, _)) ->
                match Float.compare ta tb with
                | 0 -> compare (sa, qa) (sb, qb)
                | c -> c)
         |> List.map (fun (_, _, f) -> f)
       in
       List.rev !merged = sorted)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "par"
    [ ("partition",
       [ Alcotest.test_case "K=1 identity" `Quick test_partition_k1_identity;
         Alcotest.test_case "clamps shard count" `Quick test_partition_clamp;
         Alcotest.test_case "isolated nodes owned" `Quick
           test_partition_isolated_nodes;
         Alcotest.test_case "cut is exactly the cross links" `Quick
           test_partition_cut_is_exact;
         qt partition_covers ]);
      ("exchange",
       [ Alcotest.test_case "channels" `Quick test_exchange_channels;
         Alcotest.test_case "drain order" `Quick test_exchange_drain_order;
         Alcotest.test_case "soft overflow" `Quick
           test_exchange_overflow_soft ]);
      ("clock",
       [ Alcotest.test_case "single shard" `Quick test_clock_single_shard;
         Alcotest.test_case "zero delay -> barrier mode" `Quick
           test_clock_zero_delay_disables_lookahead;
         Alcotest.test_case "lookahead windows" `Quick
           test_clock_lookahead_windows;
         Alcotest.test_case "barrier and min_next" `Quick
           test_clock_barrier_and_min_next ]);
      ("fatelog", [ qt fatelog_merge_equals_sort ]);
      ("runner",
       [ qt runner_matches_sequential;
         Alcotest.test_case "K=8 deterministic" `Quick
           test_runner_k8_deterministic;
         Alcotest.test_case "barrier-mode parity" `Quick
           test_runner_barrier_mode_parity;
         Alcotest.test_case "prepare_replica order" `Quick
           test_prepare_replica_order ]) ]
