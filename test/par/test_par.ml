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
      Exchange.send ex ~src:1 ~dst:2 (Float.Array.of_list [ 1.0; 0.5 ])
        ~src_node:0 ~dst_node:1 (dummy_packet ()))

(* Pop everything in the inbox: (source shard, seq, arrival) in pop
   order. *)
let pop_all ib =
  let key = Float.Array.make 1 0.0 in
  let rec go acc =
    if Exchange.length ib = 0 then List.rev acc
    else begin
      let s = Exchange.pop ib ~key_out:key in
      go ((Exchange.src_shard ib s, Exchange.seq ib s, Float.Array.get key 0)
          :: acc)
    end
  in
  go []

let test_exchange_drain_order () =
  let ex = Exchange.create ~shards:3 () in
  Exchange.open_channel ex ~src:0 ~dst:2;
  Exchange.open_channel ex ~src:1 ~dst:2;
  let send src arrival =
    Exchange.send ex ~src ~dst:2
      (Float.Array.of_list [ arrival; arrival -. 0.1 ])
      ~src_node:src ~dst_node:9 (dummy_packet ())
  in
  send 1 5.0;
  send 0 3.0;
  send 0 1.0;
  send 1 2.0;
  let ib = Exchange.inbox () in
  Exchange.drain_into ex ~dst:2 ib;
  Alcotest.(check int) "drained all" 4 (Exchange.length ib);
  Alcotest.(check bool) "ready below the least arrival" false
    (Exchange.ready ib ~bound:(Float.Array.make 1 1.0) ~inclusive:false);
  Alcotest.(check bool) "ready at it, inclusive" true
    (Exchange.ready ib ~bound:(Float.Array.make 1 1.0) ~inclusive:true);
  Alcotest.(check (list (triple int int (float 0.0))))
    "pops by arrival; seq is the send order within each channel"
    [ (0, 1, 1.0); (1, 1, 2.0); (0, 0, 3.0); (1, 0, 5.0) ]
    (pop_all ib);
  Exchange.drain_into ex ~dst:2 ib;
  Alcotest.(check int) "drain empties the channels" 0 (Exchange.length ib)

let test_exchange_overflow_soft () =
  let ex = Exchange.create ~capacity:2 ~shards:2 () in
  Exchange.open_channel ex ~src:0 ~dst:1;
  for i = 1 to 5 do
    Exchange.send ex ~src:0 ~dst:1
      (Float.Array.of_list [ float_of_int i; 0.0 ])
      ~src_node:0 ~dst_node:1 (dummy_packet ())
  done;
  Alcotest.(check int) "overflows counted" 3 (Exchange.overflows ex);
  (* soft bound: nothing is dropped or blocked *)
  let ib = Exchange.inbox () in
  Exchange.drain_into ex ~dst:1 ib;
  Alcotest.(check int) "all messages kept" 5 (Exchange.length ib)

(* The model: the list-based inbox the shard kept before the heap —
   every message drained, sorted by this comparator. *)
type msg = { arrival : float; sent : float; src_shard : int; seq : int }

let msg_order a b =
  match Float.compare a.arrival b.arrival with
  | 0 ->
    (match Float.compare a.sent b.sent with
     | 0 ->
       (match Int.compare a.src_shard b.src_shard with
        | 0 -> Int.compare a.seq b.seq
        | c -> c)
     | c -> c)
  | c -> c

(* Batches of sends toward shard 3 from two or three source shards.
   Batch [k]'s arrivals lie on a quarter grid in [k, k + 2) and its
   send times on a tenth grid below them, so equal arrivals — and
   equal (arrival, sent) pairs — are common. After each batch the
   inbox is drained and popped up to [k + 1], the next batch's least
   possible arrival, as a lookahead window would be. *)
let inbox_batches_gen =
  let open QCheck.Gen in
  let send = triple (int_range 0 2) (int_range 0 7) (int_range 1 2) in
  int_range 2 3 >>= fun sources ->
  list_size (int_range 1 5) (list_size (int_range 0 12) send)
  >|= fun batches ->
    List.mapi
      (fun k batch ->
         List.map
           (fun (src, a, d) ->
              let arrival = float_of_int k +. (0.25 *. float_of_int a) in
              (src mod sources, arrival, arrival -. (0.1 *. float_of_int d)))
           batch)
      batches

let inbox_pops_in_msg_order =
  QCheck.Test.make ~name:"inbox pops in the msg_order of every send"
    ~count:300
    (QCheck.make inbox_batches_gen)
    (fun batches ->
       let ex = Exchange.create ~shards:4 () in
       List.iter (fun src -> Exchange.open_channel ex ~src ~dst:3) [ 0; 1; 2 ];
       let ib = Exchange.inbox () in
       let cell = Float.Array.make 2 0.0 and key = Float.Array.make 1 0.0 in
       let seqs = Array.make 3 0 in
       let sent_msgs = ref [] and popped = ref [] in
       List.iteri
         (fun k batch ->
            List.iter
              (fun (src, arrival, sent) ->
                 Float.Array.set cell 0 arrival;
                 Float.Array.set cell 1 sent;
                 Exchange.send ex ~src ~dst:3 cell ~src_node:src ~dst_node:7
                   (dummy_packet ());
                 sent_msgs :=
                   { arrival; sent; src_shard = src; seq = seqs.(src) }
                   :: !sent_msgs;
                 seqs.(src) <- seqs.(src) + 1)
              batch;
            Exchange.drain_into ex ~dst:3 ib;
            let bound = Float.Array.make 1 (float_of_int (k + 1)) in
            while Exchange.ready ib ~bound ~inclusive:false do
              let s = Exchange.pop ib ~key_out:key in
              popped :=
                (Exchange.src_shard ib s, Exchange.seq ib s,
                 Float.Array.get key 0)
                :: !popped
            done)
         batches;
       let got = List.rev_append !popped (pop_all ib) in
       let want =
         List.map
           (fun m -> (m.src_shard, m.seq, m.arrival))
           (List.sort msg_order !sent_msgs)
       in
       got = want)

(* A warmed-up exchange moves a packet across shards without
   allocating: channel and inbox slots are reused, and the floats
   travel through cells. *)
let test_exchange_round_trip_allocates_nothing () =
  let ex = Exchange.create ~shards:2 () in
  Exchange.open_channel ex ~src:0 ~dst:1;
  let ib = Exchange.inbox () in
  let cell = Float.Array.make 2 0.0 and key = Float.Array.make 1 0.0 in
  let p = dummy_packet () in
  let round_trip i =
    Float.Array.set cell 0 (float_of_int i);
    Float.Array.set cell 1 (float_of_int i -. 0.5);
    Exchange.send ex ~src:0 ~dst:1 cell ~src_node:0 ~dst_node:1 p;
    Exchange.drain_into ex ~dst:1 ib;
    let s = Exchange.pop ib ~key_out:key in
    if Exchange.packet ib s != p then Alcotest.fail "wrong packet"
  in
  for i = 1 to 100 do
    round_trip i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 1000 do
    round_trip i
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 1000 round trips" 0.0 dw;
  Alcotest.(check (float 0.0)) "last arrival" 1000.0 (Float.Array.get key 0)

(* --- Clock -------------------------------------------------------------- *)

(* The clock takes and hands back times in one-slot cells. *)
let next_bound c ~shard =
  let out = Float.Array.make 1 nan in
  Clock.next_bound c ~shard out;
  Float.Array.get out 0

let publish c ~shard v = Clock.publish c ~shard (Float.Array.make 1 v)

let test_clock_single_shard () =
  let c = Clock.create ~shards:1 ~horizon:10.0 ~inbound:[| [] |] in
  Alcotest.(check bool) "lookahead" true (Clock.lookahead c);
  Alcotest.(check (float 0.0)) "no inbound -> horizon" 10.0
    (next_bound c ~shard:0)

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
  Alcotest.(check (float 1e-9)) "first window" 0.5 (next_bound c ~shard:1);
  (* next_bound blocks until the neighbor publishes past the completed
     point; publish from another domain and watch it wake. The window
     runs one delay past what shard 1 completed (0.5), not to the
     neighbour's publication plus the delay (2.5). *)
  publish c ~shard:1 0.5;
  let waiter = Domain.spawn (fun () -> next_bound c ~shard:1) in
  publish c ~shard:0 2.0;
  Alcotest.(check (float 1e-9)) "window follows publication" 1.0
    (Domain.join waiter);
  (* publications are monotone: an older value cannot move the bound
     backwards. Completed at 1.2, the cap is 1.7; the neighbour's
     publication, 2.0 + 0.5, does not bind, where a lowered 1.0 would
     give 1.5. *)
  publish c ~shard:1 1.2;
  publish c ~shard:0 1.0;
  Alcotest.(check (float 1e-9)) "monotone" 1.7 (next_bound c ~shard:1);
  publish c ~shard:0 100.0;
  publish c ~shard:1 9.7;
  Alcotest.(check (float 1e-9)) "clamped to horizon" 10.0
    (next_bound c ~shard:1)

(* However far the neighbour is ahead, a window spans at most the
   shard's least inbound delay: here 0.5 of the two links in. *)
let test_clock_cap () =
  let c =
    Clock.create ~shards:3 ~horizon:1000.0
      ~inbound:[| []; []; [ (0, 0.5); (1, 2.0) ] |]
  in
  publish c ~shard:0 500.0;
  publish c ~shard:1 500.0;
  Alcotest.(check (float 1e-9)) "first window capped" 0.5
    (next_bound c ~shard:2);
  publish c ~shard:2 3.0;
  Alcotest.(check (float 1e-9)) "capped past completed" 3.5
    (next_bound c ~shard:2);
  publish c ~shard:0 1000.0;
  publish c ~shard:1 1000.0;
  publish c ~shard:2 999.75;
  Alcotest.(check (float 1e-9)) "cap clamped to the horizon" 1000.0
    (next_bound c ~shard:2);
  (* The least publication bounds when it is nearer than the cap. *)
  let c =
    Clock.create ~shards:2 ~horizon:1000.0 ~inbound:[| []; [ (0, 0.5) ] |]
  in
  publish c ~shard:0 4.2;
  publish c ~shard:1 4.0;
  Alcotest.(check (float 1e-9)) "neighbour nearer than the cap" 4.5
    (next_bound c ~shard:1)

(* Driven in one domain, the shard with the least publication never
   waits, and every bound it gets lies above its publication and at or
   below the horizon: the run always advances, and ends with every
   shard at the horizon. *)
let clock_bound_above_completed =
  QCheck.Test.make ~name:"the bound is always > completed" ~count:100
    QCheck.(pair (int_range 2 4) (list_of_size (Gen.return 12) (int_range 1 9)))
    (fun (k, ds) ->
       let ds = Array.of_list ds in
       let horizon = 40.0 in
       (* A ring both ways, delays drawn in quarter units. *)
       let inbound =
         Array.init k (fun i ->
             [ ((i + k - 1) mod k, 0.25 *. float_of_int ds.(2 * i));
               ((i + 1) mod k, 0.25 *. float_of_int ds.((2 * i) + 1)) ]
             |> List.sort_uniq (fun (a, _) (b, _) -> compare a b))
       in
       let c = Clock.create ~shards:k ~horizon ~inbound in
       let done_ = Array.make k 0.0 in
       let ok = ref true and steps = ref 0 in
       while Array.exists (fun d -> d < horizon) done_ && !ok do
         let i = ref 0 in
         Array.iteri (fun j d -> if d < done_.(!i) then i := j) done_;
         let b = next_bound c ~shard:!i in
         if not (b > done_.(!i) && b <= horizon) then ok := false;
         done_.(!i) <- b;
         publish c ~shard:!i b;
         incr steps;
         if !steps > 100_000 then ok := false
       done;
       !ok)

(* The window loop's clock calls allocate nothing while no shard has
   to wait: the bound crosses both calls in the caller's cell and the
   publications are unboxed atomics. Two shards taking turns in one
   domain never wait. *)
let test_clock_window_allocates_nothing () =
  let c =
    Clock.create ~shards:2 ~horizon:1e12
      ~inbound:[| [ (1, 0.5) ]; [ (0, 0.5) ] |]
  in
  let b0 = Float.Array.make 1 0.0 and b1 = Float.Array.make 1 0.0 in
  let windows n =
    for _ = 1 to n do
      Clock.next_bound c ~shard:0 b0;
      Clock.publish c ~shard:0 b0;
      Clock.next_bound c ~shard:1 b1;
      Clock.publish c ~shard:1 b1
    done
  in
  windows 100;
  let w0 = Gc.minor_words () in
  windows 1000;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 2000 windows" 0.0 dw;
  Alcotest.(check (float 1e-9)) "lockstep: one delay per window" 550.0
    (Float.Array.get b1 0)

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
      let base = totals (Runner.run_sequential cfg) in
      List.for_all
        (fun k ->
          totals (Runner.run_parallel { cfg with Runner.shards = k }) = base)
        [ 1; 2; 4 ])

let test_runner_k8_deterministic () =
  let cfg =
    { (small_cfg ~pops:10 ~vpns:2 ~sites:3 ~seed:77) with Runner.shards = 8 }
  in
  let a = Runner.run_parallel cfg in
  let b = Runner.run_parallel cfg in
  Alcotest.(check bool) "same totals" true (totals a = totals b);
  Alcotest.(check int) "same exchanges" a.Runner.exchanged b.Runner.exchanged;
  Alcotest.(check int) "same leftovers" a.Runner.leftover b.Runner.leftover;
  Alcotest.(check bool) "same partition" true
    (a.Runner.sizes = b.Runner.sizes
    && a.Runner.cut_links = b.Runner.cut_links);
  Alcotest.(check bool) "matches sequential" true
    (totals (Runner.run_sequential cfg) = totals a)

let test_runner_barrier_mode_parity () =
  (* Zero core propagation delay kills every cut link's lookahead; the
     runner must fall back to epoch barriers and still land on the
     sequential totals. *)
  let cfg =
    { (small_cfg ~pops:8 ~vpns:2 ~sites:2 ~seed:5) with
      Runner.shards = 4; core_delay = Some 0.0 }
  in
  let par = Runner.run_parallel cfg in
  Alcotest.(check bool) "barrier fallback engaged" false par.Runner.lookahead;
  Alcotest.(check bool) "totals still match" true
    (totals (Runner.run_sequential cfg) = totals par)

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
    Mvpn_sim.Engine.pending (Mvpn_core.Scenario.engine (Runner.build cfg))
  in
  let check_run name run cfg ~replicas =
    let lock = Mutex.create () in
    let seen = ref [] in
    let prepare sc =
      let pending = Mvpn_sim.Engine.pending (Mvpn_core.Scenario.engine sc) in
      let armed = Mvpn_core.Scenario.class_reports sc <> [] in
      Mutex.protect lock (fun () -> seen := (sc, pending, armed) :: !seen)
    in
    let o = run { cfg with Runner.prepare_replica = prepare } in
    Alcotest.(check int) (name ^ ": one call per replica") replicas
      (List.length !seen);
    Alcotest.(check int) (name ^ ": every replica handed back") replicas
      (Array.length o.Runner.replicas);
    List.iter
      (fun (sc, pending, armed) ->
         Alcotest.(check int) (name ^ ": after the sampler's first tick")
           (built + 1) pending;
         Alcotest.(check bool) (name ^ ": before the workload") false armed;
         Alcotest.(check bool) (name ^ ": on the replica that ran") true
           (Mvpn_sim.Engine.processed (Mvpn_core.Scenario.engine sc) > 0);
         Alcotest.(check bool) (name ^ ": in the outcome") true
           (Array.exists (( == ) sc) o.Runner.replicas))
      !seen
  in
  check_run "sequential" Runner.run_sequential cfg ~replicas:1;
  check_run "K=2" Runner.run_parallel { cfg with Runner.shards = 2 }
    ~replicas:2

(* Every run closes its books at the horizon. A replica whose drop
   table loses one booking (the packet is still retired from [live])
   must make the run raise, naming the ledger's terms; the same run
   without the leak completes. The dropped packet enters at a CE and
   dies at its PE on "vrf-no-route", inside every replica. *)
let test_runner_closes_books () =
  let module Network = Mvpn_core.Network in
  let module Scenario = Mvpn_core.Scenario in
  let cfg = small_cfg ~pops:6 ~vpns:1 ~sites:2 ~seed:9 in
  let prepare ~leak sc =
    let net = Scenario.network sc and eng = Scenario.engine sc in
    Network.set_drop_leak net leak;
    Mvpn_sim.Engine.schedule eng ~delay:0.5 (fun () ->
        let site = Scenario.site sc ~vpn:1 ~idx:0 in
        Network.inject net site.Mvpn_core.Site.ce_node
          (Packet.make ~vpn:1 ~now:(Mvpn_sim.Engine.now eng)
             (Flow.make (Mvpn_core.Site.host site 1)
                (Ipv4.of_octets 172 31 0 1))))
  in
  let run ~leak shards =
    Runner.run_parallel
      { cfg with Runner.shards; prepare_replica = prepare ~leak }
  in
  List.iter
    (fun shards ->
       let name = Printf.sprintf "K=%d" shards in
       let o = run ~leak:0 shards in
       Alcotest.(check int) (name ^ ": one drop per replica") shards
         o.Runner.dropped;
       (* [net.drops] is set from the drop table, so a repeat must read
          its own table, not the difference from the last run's. *)
       Alcotest.(check int) (name ^ ": a repeat counts its own drops") shards
         (run ~leak:0 shards).Runner.dropped;
       match run ~leak:1 shards with
       | _ -> Alcotest.failf "%s: a leaked drop booking went unnoticed" name
       | exception Failure msg ->
         Alcotest.(check bool) (name ^ ": names the ledger's terms") true
           (String.starts_with
              ~prefix:"packet ledger does not close: injected=" msg))
    [ 1; 2 ]

(* A run owns its measurements: identical runs in one process, three
   sequential with the timeline sampler armed and two at K=2, each
   export only what that run measured. The calling domain's counters
   still grow by exactly each run's totals (the fold a caller that
   accumulates across runs relies on). *)
let member key = function T.Json.Obj m -> List.assoc_opt key m | _ -> None

let counters_of (o : Runner.outcome) name =
  match Option.bind (member "counters" o.Runner.registry_json) (member name) with
  | Some (T.Json.Int n) -> n
  | _ -> -1

(* The export's sim-scope series, by name; host-scope ones (GC churn,
   wall time) are left out, as [mvpn timeline] leaves them out. *)
let sim_series (o : Runner.outcome) =
  match member "series" o.Runner.registry_json with
  | Some (T.Json.Obj ss) ->
    List.filter (fun (_, s) -> member "scope" s = Some (T.Json.String "sim")) ss
  | _ -> []

(* The export with its host-scope series left out. *)
let sim_part (o : Runner.outcome) =
  match o.Runner.registry_json with
  | T.Json.Obj m ->
    T.Json.to_string
      (T.Json.Obj
         (List.map
            (function
              | "series", _ -> ("series", T.Json.Obj (sim_series o))
              | kv -> kv)
            m))
  | j -> T.Json.to_string j

let sample_times s =
  match member "samples" s with
  | Some (T.Json.List xs) ->
    List.filter_map
      (function T.Json.List [ T.Json.Float t; _ ] -> Some t | _ -> None)
      xs
  | _ -> []

let test_runner_owns_its_registry () =
  let interval = Mvpn_core.Sampler.default_interval in
  let cfg =
    { Runner.default_config with
      Runner.duration = 5.0; sample_interval = Some interval }
  in
  let names = [ "net.delivered"; "net.drops"; "sim.events"; "sim.scheduled" ] in
  let totals (o : Runner.outcome) =
    [ o.Runner.delivered; o.Runner.dropped; o.Runner.events;
      o.Runner.scheduled ]
  in
  let run name entry =
    let before = List.map T.Registry.counter_value names in
    let w0 = Gc.minor_words () in
    let o = entry () in
    let words = Gc.minor_words () -. w0 in
    let grew =
      List.map2 ( - ) (List.map T.Registry.counter_value names) before
    in
    Alcotest.(check (list int))
      (name ^ ": registry_json counters are the run's totals")
      (totals o) (List.map (counters_of o) names);
    Alcotest.(check (list int))
      (name ^ ": the caller's counters grew by the run's totals")
      (totals o) grew;
    List.iter
      (fun (series, s) ->
         let ts = sample_times s in
         Alcotest.(check bool)
           (Printf.sprintf "%s: %s holds one run's samples" name series)
           true
           (ts <> []
           && List.length ts
              <= 1 + int_of_float (o.Runner.horizon /. interval)
           && List.for_all2 ( < ) (List.rev (List.tl (List.rev ts)))
                (List.tl ts)))
      (sim_series o);
    (o, words)
  in
  let seq =
    List.init 3 (fun i ->
        run (Printf.sprintf "seq run %d" (i + 1)) (fun () ->
            Runner.run_sequential cfg))
  in
  let par =
    List.init 2 (fun i ->
        run (Printf.sprintf "K=2 run %d" (i + 1)) (fun () ->
            Runner.run_parallel { cfg with Runner.shards = 2 }))
  in
  let same what runs =
    let first = sim_part (fst (List.hd runs)) in
    List.iteri
      (fun i (o, _) ->
         Alcotest.(check string)
           (Printf.sprintf "%s run %d: sim-scope export as run 1's" what
              (i + 1))
           first (sim_part o))
      runs
  in
  same "seq" seq;
  same "K=2" par;
  Alcotest.(check bool) "the runs exported sim series" true
    (sim_series (fst (List.hd seq)) <> []);
  let w2 = snd (List.nth seq 1) and w3 = snd (List.nth seq 2) in
  Alcotest.(check bool)
    (Printf.sprintf "seq runs 2 and 3 allocate alike (%.0f, %.0f words)"
       w2 w3)
    true
    (Float.abs (w3 -. w2) <= 0.01 *. w2)

(* A fault [prepare_replica] schedules exactly on a sampler tick ties
   with that tick. The first tick, scheduled by the sampler before
   preparation, runs before the flap; the recovery, scheduled before
   the second tick, runs before it. Each flap event reads how many
   samples its replica's series hold, so every replica must break both
   ties this way. Ticks and flaps run on every replica, so only the
   traffic part of the fingerprint is shard-invariant (as E18 compares
   storms); the executed events differ by exactly the second replica's
   copies, and the merged sim-scope series equal the sequential
   ones. *)
let test_flap_on_sampler_tick () =
  let module Scenario = Mvpn_core.Scenario in
  let interval = 0.5 in
  let lock = Mutex.create () in
  let seen = ref [] in
  let flap sc =
    match Scenario.first_pair_core_link sc with
    | None -> Alcotest.fail "the first site pair shares a PE"
    | Some (u, v) ->
      let topo = Mvpn_core.Network.topology (Scenario.network sc) in
      let set up () =
        let samples =
          match T.Registry.find_series "ts.band.0.depth_pkts" with
          | Some s -> T.Timeseries.length s
          | None -> 0
        in
        Mutex.protect lock (fun () -> seen := (up, samples) :: !seen);
        Topology.set_duplex_state topo u v up
      in
      let eng = Scenario.engine sc in
      Mvpn_sim.Engine.schedule_at eng ~time:interval (set false);
      Mvpn_sim.Engine.schedule_at eng ~time:(2.0 *. interval) (set true)
  in
  let cfg =
    { (small_cfg ~pops:6 ~vpns:2 ~sites:2 ~seed:3) with
      Runner.sample_interval = Some interval; prepare_replica = flap }
  in
  let traffic (o : Runner.outcome) =
    ( o.Runner.delivered, o.Runner.dropped, o.Runner.classes,
      T.Slo.in_budget o.Runner.slo, T.Slo.violation_count o.Runner.slo )
  in
  let seq = Runner.run_sequential cfg in
  let par = Runner.run_parallel { cfg with Runner.shards = 2 } in
  Alcotest.(check int) "two shards ran" 2 par.Runner.shards;
  Alcotest.(check (list (pair bool int)))
    "each replica's flap after the first tick, its recovery before \
     the second"
    [ (false, 1); (false, 1); (false, 1); (true, 1); (true, 1);
      (true, 1) ]
    (List.sort compare !seen);
  Alcotest.(check bool) "the flap dropped packets" true
    (seq.Runner.dropped > 0);
  Alcotest.(check bool) "same traffic fingerprint" true
    (traffic seq = traffic par);
  Alcotest.(check int) "events differ by one replica's ticks and flap"
    (int_of_float (seq.Runner.horizon /. interval) + 2)
    (par.Runner.events - seq.Runner.events);
  Alcotest.(check bool) "the run exported sim series" true
    (sim_series seq <> []);
  Alcotest.(check string) "same sim-scope series"
    (T.Json.to_string (T.Json.Obj (sim_series seq)))
    (T.Json.to_string (T.Json.Obj (sim_series par)))

(* One shard is the sequential run: the same export byte for byte,
   the event log included, which a K=1 run through the shard machinery
   lost (each shard records into its own domain's log). *)
let test_runner_k1_is_sequential () =
  let cfg = { Runner.default_config with Runner.duration = 2.0 } in
  let seq = Runner.run_sequential cfg in
  let k1 = Runner.run_parallel { cfg with Runner.shards = 1 } in
  Alcotest.(check bool) "the run logged events" true
    (match member "events" seq.Runner.registry_json with
     | Some (T.Json.List (_ :: _)) -> true
     | _ -> false);
  Alcotest.(check string) "registry_json as the sequential run's"
    (T.Json.to_string seq.Runner.registry_json)
    (T.Json.to_string k1.Runner.registry_json);
  Alcotest.(check int) "one replica" 1 (Array.length k1.Runner.replicas)

(* A run owns the telemetry switch: with the caller's switch off it
   counts exactly what it counts with the switch on, and either way
   hands the caller's setting back. *)
let test_runner_owns_telemetry () =
  let cfg = small_cfg ~pops:6 ~vpns:2 ~sites:2 ~seed:5 in
  let view o = (totals o, T.Json.to_string o.Runner.registry_json) in
  List.iter
    (fun (name, entry) ->
       let off = view (entry cfg) in
       Alcotest.(check bool) (name ^ ": the switch is left off") false
         (T.Control.is_enabled ());
       let on =
         T.Control.with_enabled (fun () ->
             let o = entry cfg in
             Alcotest.(check bool) (name ^ ": the switch is left on") true
               (T.Control.is_enabled ());
             view o)
       in
       Alcotest.(check bool) (name ^ ": the run delivered") true
         (let delivered, _, _, _, _, _, _ = fst on in
          delivered > 0);
       Alcotest.(check bool) (name ^ ": same totals, switch off or on") true
         (fst off = fst on);
       Alcotest.(check string) (name ^ ": same registry_json") (snd on)
         (snd off))
    [ ("sequential", Runner.run_sequential);
      ("K=2", fun cfg -> Runner.run_parallel { cfg with Runner.shards = 2 }) ]

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

(* The merge the runner's replay uses ({!T.Fatelog.replay} walks
   [iter_merged]) visits each fate once, in the (time, shard, seq)
   sort's order, and the log hands back the values recorded. Drops
   are recorded over a latency cell holding garbage, which the log
   must ignore. *)
let fatelog_merge_equals_sort =
  QCheck.Test.make ~name:"fate merge equals the (time, shard, seq) sort"
    ~count:300
    (QCheck.make fate_streams_gen)
    (fun streams ->
       let clock = Float.Array.make 1 0.0 and lat = Float.Array.make 1 0.0 in
       let logs =
         Array.of_list
           (List.map
              (fun stream ->
                 let fl = T.Fatelog.create () in
                 List.iter
                   (fun (time, vpn, band, dropped, latency) ->
                      Float.Array.set clock 0 time;
                      Float.Array.set lat 0 (if dropped then 1.0 else latency);
                      T.Fatelog.record fl ~vpn ~band ~dropped ~clock
                        ~latency:lat)
                   stream;
                 fl)
              streams)
       in
       let merged = ref [] in
       T.Fatelog.iter_merged logs (fun shard seq ->
           merged := (shard, seq, T.Fatelog.fate logs.(shard) seq) :: !merged);
       (* The sort the runner did before the merge. *)
       let sorted : (int * int * fate) list =
         List.concat
           (List.mapi
              (fun shard stream ->
                 List.mapi (fun seq f -> (shard, seq, f)) stream)
              streams)
         |> List.sort (fun (sa, qa, (ta, _, _, _, _)) (sb, qb, (tb, _, _, _, _)) ->
                match Float.compare ta tb with
                | 0 -> compare (sa, qa) (sb, qb)
                | c -> c)
       in
       List.rev !merged = sorted)

(* The partition [Runner.run_parallel] cuts from [Scenario.layout]
   alone is the one a fully built and deployed scenario gives: the
   same owners, cut links and sizes. *)
let test_partition_from_layout () =
  let module Scenario = Mvpn_core.Scenario in
  let module Backbone = Mvpn_core.Backbone in
  let cut (p : Partition.t) =
    List.map (fun (l : Topology.link) -> l.Topology.id) p.Partition.cut
  in
  List.iter
    (fun (pops, vpns, sites, core_delay) ->
       let lay =
         Scenario.layout ~pops ~vpns ~sites_per_vpn:sites ?core_delay ()
       in
       let sc =
         T.Control.with_disabled (fun () ->
             Scenario.build ~pops ~vpns ~sites_per_vpn:sites ?core_delay
               (Scenario.Mpls_deployment
                  { policy =
                      Mvpn_core.Qos_mapping.Diffserv
                        Mvpn_core.Qos_mapping.default_diffserv_sched;
                    use_te = false }))
       in
       let built =
         { Scenario.backbone = Scenario.backbone sc; sites = Scenario.sites sc }
       in
       List.iter
         (fun shards ->
            let name =
              Printf.sprintf "pops %d, %d vpns x %d sites, core delay %s, K=%d"
                pops vpns sites
                (match core_delay with
                 | Some d -> string_of_float d
                 | None -> "default")
                shards
            in
            let a =
              Partition.compute ~hint:(Scenario.region_hint lay)
                (Backbone.topology lay.Scenario.backbone) ~shards
            and b =
              Partition.compute ~hint:(Scenario.region_hint built)
                (Mvpn_core.Network.topology (Scenario.network sc)) ~shards
            in
            Alcotest.(check int) (name ^ ": shards") b.Partition.shards
              a.Partition.shards;
            Alcotest.(check (array int)) (name ^ ": owners") b.Partition.owner
              a.Partition.owner;
            Alcotest.(check (list int)) (name ^ ": cut") (cut b) (cut a);
            Alcotest.(check (array int)) (name ^ ": sizes")
              (Partition.sizes b) (Partition.sizes a))
         [ 2; 4; 8 ])
    [ (6, 2, 3, None); (12, 2, 4, None); (12, 4, 8, Some 0.004);
      (16, 4, 8, None); (16, 2, 3, Some 0.0) ]

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
         Alcotest.test_case "layout cuts as the built scenario" `Quick
           test_partition_from_layout;
         qt partition_covers ]);
      ("exchange",
       [ Alcotest.test_case "channels" `Quick test_exchange_channels;
         Alcotest.test_case "drain order" `Quick test_exchange_drain_order;
         Alcotest.test_case "soft overflow" `Quick
           test_exchange_overflow_soft;
         qt inbox_pops_in_msg_order;
         Alcotest.test_case "round trip allocates nothing" `Quick
           test_exchange_round_trip_allocates_nothing ]);
      ("clock",
       [ Alcotest.test_case "single shard" `Quick test_clock_single_shard;
         Alcotest.test_case "zero delay -> barrier mode" `Quick
           test_clock_zero_delay_disables_lookahead;
         Alcotest.test_case "lookahead windows" `Quick
           test_clock_lookahead_windows;
         Alcotest.test_case "a neighbour far ahead still caps the window"
           `Quick test_clock_cap;
         qt clock_bound_above_completed;
         Alcotest.test_case "window allocates nothing" `Quick
           test_clock_window_allocates_nothing;
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
           test_prepare_replica_order;
         Alcotest.test_case "closes the books" `Quick
           test_runner_closes_books;
         Alcotest.test_case "flap on a sampler tick" `Quick
           test_flap_on_sampler_tick;
         Alcotest.test_case "owns its registry" `Quick
           test_runner_owns_its_registry;
         Alcotest.test_case "K=1 is the sequential run" `Quick
           test_runner_k1_is_sequential;
         Alcotest.test_case "owns the telemetry switch" `Quick
           test_runner_owns_telemetry ]) ]
