open Mvpn_qos
module Packet = Mvpn_net.Packet
module Flow = Mvpn_net.Flow
module Dscp = Mvpn_net.Dscp
module Ipv4 = Mvpn_net.Ipv4
module Prefix = Mvpn_net.Prefix
module Engine = Mvpn_sim.Engine
module Topology = Mvpn_sim.Topology

let ip = Ipv4.of_string_exn
let pfx = Prefix.of_string_exn

let packet ?(size = 1000) ?dscp ?(src = "10.0.0.1") ?(dst = "10.1.0.1")
    ?(proto = Flow.Udp) ?(dst_port = 0) () =
  Packet.make ?dscp ~size ~now:0.0
    (Flow.make ~proto ~dst_port (ip src) (ip dst))

(* --- Token bucket ------------------------------------------------------ *)

let test_bucket_burst_then_refill () =
  let b = Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:2000.0 in
  (* 8000 bps = 1000 bytes/s; burst 2000 bytes. *)
  Alcotest.(check bool) "burst ok" true (Token_bucket.take b ~now:0.0 ~bytes:2000);
  Alcotest.(check bool) "empty now" false (Token_bucket.take b ~now:0.0 ~bytes:1);
  Alcotest.(check bool) "after 1s, 1000 bytes" true
    (Token_bucket.take b ~now:1.0 ~bytes:1000);
  Alcotest.(check bool) "but not more" false
    (Token_bucket.take b ~now:1.0 ~bytes:1)

let test_bucket_cap () =
  let b = Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:1000.0 in
  ignore (Token_bucket.take b ~now:0.0 ~bytes:1000);
  (* After a long idle period the bucket holds at most the burst. *)
  Alcotest.(check (float 1e-9)) "capped" 1000.0
    (Token_bucket.available b ~now:100.0)

let test_bucket_nonconforming_consumes_nothing () =
  let b = Token_bucket.create ~rate_bps:8000.0 ~burst_bytes:1000.0 in
  Alcotest.(check bool) "too big" false
    (Token_bucket.take b ~now:0.0 ~bytes:1500);
  Alcotest.(check (float 1e-9)) "balance intact" 1000.0
    (Token_bucket.available b ~now:0.0)

let bucket_conservation =
  QCheck.Test.make ~name:"bucket never grants more than rate*t + burst"
    ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 100) (int_range 1 500))
    (fun sizes ->
       let rate = 80_000.0 and burst = 1_000.0 in
       let b = Token_bucket.create ~rate_bps:rate ~burst_bytes:burst in
       let step = 0.01 in
       let granted = ref 0 in
       List.iteri
         (fun i bytes ->
            let now = float_of_int i *. step in
            if Token_bucket.take b ~now ~bytes then granted := !granted + bytes)
         sizes;
       let elapsed = float_of_int (List.length sizes - 1) *. step in
       float_of_int !granted <= (rate /. 8.0 *. elapsed) +. burst +. 1e-6)

(* --- Meter -------------------------------------------------------------- *)

let test_srtcm_colors () =
  let m = Meter.srtcm ~cir_bps:8000.0 ~cbs_bytes:1000.0 ~ebs_bytes:500.0 in
  Alcotest.(check string) "within cbs" "green"
    (Meter.color_to_string (Meter.meter m ~now:0.0 ~bytes:1000));
  Alcotest.(check string) "within ebs" "yellow"
    (Meter.color_to_string (Meter.meter m ~now:0.0 ~bytes:400));
  Alcotest.(check string) "beyond" "red"
    (Meter.color_to_string (Meter.meter m ~now:0.0 ~bytes:400))

let test_trtcm_colors () =
  let m =
    Meter.trtcm ~cir_bps:8000.0 ~cbs_bytes:500.0 ~pir_bps:16000.0
      ~pbs_bytes:1000.0
  in
  Alcotest.(check string) "conforming" "green"
    (Meter.color_to_string (Meter.meter m ~now:0.0 ~bytes:400));
  Alcotest.(check string) "above cir" "yellow"
    (Meter.color_to_string (Meter.meter m ~now:0.0 ~bytes:400));
  Alcotest.(check string) "above pir" "red"
    (Meter.color_to_string (Meter.meter m ~now:0.0 ~bytes:400))

let test_trtcm_validation () =
  Alcotest.check_raises "pir < cir"
    (Invalid_argument "Meter.trtcm: peak rate below committed rate")
    (fun () ->
       ignore
         (Meter.trtcm ~cir_bps:1000.0 ~cbs_bytes:1.0 ~pir_bps:500.0
            ~pbs_bytes:1.0))

let test_meter_drop_precedence () =
  Alcotest.(check int) "green" 1 (Meter.color_to_drop_precedence Meter.Green);
  Alcotest.(check int) "red" 3 (Meter.color_to_drop_precedence Meter.Red)

(* --- Classifier --------------------------------------------------------- *)

let test_classifier_first_match () =
  let c =
    Classifier.create
      [ Classifier.rule ~proto:Flow.Udp ~dst_port:(5060, 5061) "voice";
        Classifier.rule ~dst:(pfx "10.1.0.0/16") "to-branch";
        Classifier.rule "default" ]
  in
  Alcotest.(check (option string)) "voice" (Some "voice")
    (Classifier.classify c (packet ~proto:Flow.Udp ~dst_port:5060 ()));
  Alcotest.(check (option string)) "branch" (Some "to-branch")
    (Classifier.classify c (packet ~dst:"10.1.2.3" ()));
  Alcotest.(check (option string)) "fallthrough" (Some "default")
    (Classifier.classify c (packet ~dst:"192.0.2.1" ()))

let test_classifier_no_default () =
  let c =
    Classifier.create [Classifier.rule ~proto:Flow.Tcp "tcp-only"]
  in
  Alcotest.(check (option string)) "no match" None
    (Classifier.classify c (packet ~proto:Flow.Udp ()))

let test_classifier_encrypted_hides_flow () =
  let c =
    Classifier.create
      [ Classifier.rule ~proto:Flow.Udp ~dst_port:(5060, 5060) "voice";
        Classifier.rule ~dscp:Dscp.ef "by-dscp" ]
  in
  let p = packet ~proto:Flow.Udp ~dst_port:5060 ~dscp:Dscp.ef () in
  Alcotest.(check (option string)) "cleartext matches 5-tuple" (Some "voice")
    (Classifier.classify c p);
  (* ESP tunnel without ToS copy: nothing matches. *)
  Packet.encapsulate p ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
    ~proto:Flow.Esp ~overhead:57 ~copy_tos:false;
  p.Packet.encrypted <- true;
  Alcotest.(check (option string)) "encrypted matches nothing" None
    (Classifier.classify c p);
  Packet.decapsulate p;
  (* ESP tunnel with ToS copy: the DSCP rule still works. *)
  Packet.encapsulate p ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
    ~proto:Flow.Esp ~overhead:57 ~copy_tos:true;
  p.Packet.encrypted <- true;
  Alcotest.(check (option string)) "tos copy preserves dscp class"
    (Some "by-dscp")
    (Classifier.classify c p)

let test_classifier_flow_interface () =
  let c =
    Classifier.create [Classifier.rule ~src:(pfx "10.0.0.0/8") "internal"]
  in
  Alcotest.(check (option string)) "flow" (Some "internal")
    (Classifier.classify_flow c (Flow.make (ip "10.5.5.5") (ip "192.0.2.1")))

(* --- Queue discipline --------------------------------------------------- *)

let test_fifo_tail_drop () =
  let q = Queue_disc.fifo ~capacity_bytes:2500 in
  let ok1 = Queue_disc.enqueue q ~cls:0 (packet ()) in
  let ok2 = Queue_disc.enqueue q ~cls:0 (packet ()) in
  let full = Queue_disc.enqueue q ~cls:0 (packet ()) in
  Alcotest.(check bool) "first fits" true (ok1 = Ok ());
  Alcotest.(check bool) "second fits" true (ok2 = Ok ());
  Alcotest.(check bool) "third tail-dropped" true
    (full = Error Queue_disc.Tail_drop);
  Alcotest.(check int) "backlog" 2000 (Queue_disc.backlog_bytes q);
  let s = (Queue_disc.stats q).(0) in
  Alcotest.(check int) "drop counted" 1 s.Queue_disc.tail_dropped

let test_fifo_order () =
  let q = Queue_disc.fifo ~capacity_bytes:100_000 in
  let p1 = packet () and p2 = packet () in
  ignore (Queue_disc.enqueue q ~cls:0 p1);
  ignore (Queue_disc.enqueue q ~cls:0 p2);
  (match Queue_disc.dequeue q with
   | Some p -> Alcotest.(check int) "fifo" p1.Packet.uid p.Packet.uid
   | None -> Alcotest.fail "empty");
  match Queue_disc.dequeue q with
  | Some p -> Alcotest.(check int) "fifo 2" p2.Packet.uid p.Packet.uid
  | None -> Alcotest.fail "empty"

let test_priority_scheduler () =
  let q =
    Queue_disc.create ~sched:Queue_disc.Strict
      [| Queue_disc.plain_band 100_000; Queue_disc.plain_band 100_000 |]
  in
  let low = packet () and high = packet () in
  ignore (Queue_disc.enqueue q ~cls:1 low);
  ignore (Queue_disc.enqueue q ~cls:0 high);
  match Queue_disc.dequeue q with
  | Some p ->
    Alcotest.(check int) "band 0 first despite arriving later"
      high.Packet.uid p.Packet.uid
  | None -> Alcotest.fail "empty"

let test_priority_starvation () =
  (* The known EF-priority failure mode: band 1 never serves while band
     0 has traffic. *)
  let q =
    Queue_disc.create ~sched:Queue_disc.Strict
      [| Queue_disc.plain_band 1_000_000; Queue_disc.plain_band 1_000_000 |]
  in
  for _ = 1 to 10 do
    ignore (Queue_disc.enqueue q ~cls:0 (packet ()));
    ignore (Queue_disc.enqueue q ~cls:1 (packet ()))
  done;
  let served_band1 = ref 0 in
  for _ = 1 to 10 do
    match Queue_disc.dequeue q with
    | Some _ -> ()
    | None -> ()
  done;
  let s = Queue_disc.stats q in
  Alcotest.(check int) "band 0 served all ten" 10 s.(0).Queue_disc.dequeued;
  Alcotest.(check int) "band 1 starved" 0 s.(1).Queue_disc.dequeued;
  ignore !served_band1

let test_wrr_shares () =
  let q =
    Queue_disc.create ~sched:(Queue_disc.Wrr [| 3; 1 |])
      [| Queue_disc.plain_band 1_000_000; Queue_disc.plain_band 1_000_000 |]
  in
  for _ = 1 to 40 do
    ignore (Queue_disc.enqueue q ~cls:0 (packet ()));
    ignore (Queue_disc.enqueue q ~cls:1 (packet ()))
  done;
  for _ = 1 to 40 do
    ignore (Queue_disc.dequeue q)
  done;
  let s = Queue_disc.stats q in
  let d0 = s.(0).Queue_disc.dequeued and d1 = s.(1).Queue_disc.dequeued in
  Alcotest.(check int) "total" 40 (d0 + d1);
  (* 3:1 share. *)
  Alcotest.(check bool) "ratio near 3"
    true
    (abs (d0 - (3 * d1)) <= 4)

let test_drr_byte_fairness () =
  (* Band 0 sends big packets, band 1 small; DRR equalizes bytes, not
     packets. *)
  let q =
    Queue_disc.create ~sched:(Queue_disc.Drr [| 1500; 1500 |])
      [| Queue_disc.plain_band 10_000_000; Queue_disc.plain_band 10_000_000 |]
  in
  for _ = 1 to 100 do
    ignore (Queue_disc.enqueue q ~cls:0 (packet ~size:1500 ()));
    ignore (Queue_disc.enqueue q ~cls:1 (packet ~size:100 ()))
  done;
  for _ = 1 to 100 do
    ignore (Queue_disc.dequeue q)
  done;
  let s = Queue_disc.stats q in
  let b0 = s.(0).Queue_disc.bytes_sent and b1 = s.(1).Queue_disc.bytes_sent in
  Alcotest.(check bool) "bytes roughly equal" true
    (float_of_int (abs (b0 - b1)) /. float_of_int (max b0 b1) < 0.25)

let test_wfq_weighted_bytes () =
  let q =
    Queue_disc.create ~sched:(Queue_disc.Wfq [| 3.0; 1.0 |])
      [| Queue_disc.plain_band 10_000_000; Queue_disc.plain_band 10_000_000 |]
  in
  for _ = 1 to 200 do
    ignore (Queue_disc.enqueue q ~cls:0 (packet ~size:500 ()));
    ignore (Queue_disc.enqueue q ~cls:1 (packet ~size:500 ()))
  done;
  for _ = 1 to 200 do
    ignore (Queue_disc.dequeue q)
  done;
  let s = Queue_disc.stats q in
  let b0 = s.(0).Queue_disc.bytes_sent and b1 = s.(1).Queue_disc.bytes_sent in
  let ratio = float_of_int b0 /. float_of_int (max 1 b1) in
  Alcotest.(check bool) "near 3:1" true (ratio > 2.0 && ratio < 4.0)

let test_wfq_work_conserving () =
  let q =
    Queue_disc.create ~sched:(Queue_disc.Wfq [| 10.0; 1.0 |])
      [| Queue_disc.plain_band 1_000_000; Queue_disc.plain_band 1_000_000 |]
  in
  (* Only the low-weight band has traffic: it must still be served. *)
  for _ = 1 to 5 do
    ignore (Queue_disc.enqueue q ~cls:1 (packet ()))
  done;
  let served = ref 0 in
  let rec drain () =
    match Queue_disc.dequeue q with
    | Some _ -> incr served; drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check int) "all served" 5 !served

let test_wred_drops_worse_precedence_first () =
  let red = Queue_disc.default_wred ~avg_capacity:50_000.0 in
  let q =
    Queue_disc.create
      ~rng:(Mvpn_sim.Rng.create 42)
      ~sched:Queue_disc.Strict
      [| { Queue_disc.capacity_bytes = 50_000; red = Some red } |]
  in
  (* Push the average queue depth into the drop region, alternating
     in-profile (AF11) and out-of-profile (AF13) packets. *)
  let af11_drops = ref 0 and af13_drops = ref 0 in
  for _ = 1 to 600 do
    (match Queue_disc.enqueue q ~cls:0 (packet ~dscp:(Dscp.af 1 1) ()) with
     | Error Queue_disc.Red_drop -> incr af11_drops
     | Error Queue_disc.Tail_drop | Ok () -> ());
    (match Queue_disc.enqueue q ~cls:0 (packet ~dscp:(Dscp.af 1 3) ()) with
     | Error Queue_disc.Red_drop -> incr af13_drops
     | Error Queue_disc.Tail_drop | Ok () -> ());
    (* Keep the queue hovering: drain a bit. *)
    ignore (Queue_disc.dequeue q)
  done;
  Alcotest.(check bool) "red fired" true (!af13_drops > 0);
  Alcotest.(check bool) "out-of-profile dropped more" true
    (!af13_drops > !af11_drops)

let test_qdisc_validation () =
  Alcotest.check_raises "no bands"
    (Invalid_argument "Queue_disc.create: need at least one band")
    (fun () -> ignore (Queue_disc.create ~sched:Queue_disc.Strict [||]));
  Alcotest.check_raises "bad weights"
    (Invalid_argument "Queue_disc.create: wrr needs 2 weights") (fun () ->
      ignore
        (Queue_disc.create ~sched:(Queue_disc.Wrr [| 1 |])
           [| Queue_disc.plain_band 1; Queue_disc.plain_band 1 |]))

(* Work conservation: any non-strict discipline drains completely and
   dequeues exactly what it accepted, for random enqueue patterns. *)
let qdisc_work_conservation =
  QCheck.Test.make ~name:"qdisc dequeues exactly what it accepts" ~count:100
    QCheck.(pair (int_bound 2)
              (list_of_size (QCheck.Gen.int_range 1 80)
                 (pair (int_bound 3) (int_range 64 1500))))
    (fun (sched_idx, items) ->
       let sched =
         match sched_idx with
         | 0 -> Queue_disc.Strict
         | 1 -> Queue_disc.Wrr [| 4; 3; 2; 1 |]
         | _ -> Queue_disc.Wfq [| 4.0; 3.0; 2.0; 1.0 |]
       in
       let q =
         Queue_disc.create ~sched
           (Array.init 4 (fun _ -> Queue_disc.plain_band 20_000))
       in
       let accepted = ref 0 in
       List.iter
         (fun (cls, size) ->
            match Queue_disc.enqueue q ~cls (packet ~size ()) with
            | Ok () -> incr accepted
            | Error _ -> ())
         items;
       let rec drain n =
         match Queue_disc.dequeue q with
         | Some _ -> drain (n + 1)
         | None -> n
       in
       let dequeued = drain 0 in
       dequeued = !accepted
       && Queue_disc.is_empty q
       && Queue_disc.backlog_bytes q = 0)

let test_qdisc_empty_dequeue () =
  let q = Queue_disc.fifo ~capacity_bytes:1000 in
  Alcotest.(check bool) "none" true (Queue_disc.dequeue q = None);
  Alcotest.(check bool) "empty" true (Queue_disc.is_empty q)

(* --- Cbq ---------------------------------------------------------------- *)

let cpe () =
  Cbq.create
    ~classes:
      [| { Cbq.name = "voice"; rate_bps = 64_000.0; burst_bytes = 2_000.0;
           dscp = Dscp.ef; exceed = Cbq.Police_drop; borrow = false };
         { Cbq.name = "business"; rate_bps = 1e6; burst_bytes = 10_000.0;
           dscp = Dscp.af 3 1; exceed = Cbq.Remark (Dscp.af 3 3);
           borrow = false } |]
    ~rules:
      [ Classifier.rule ~proto:Flow.Udp ~dst_port:(5060, 5061) 0;
        Classifier.rule ~proto:Flow.Tcp 1 ]
    ()

let test_cbq_marks_in_profile () =
  let c = cpe () in
  let p = packet ~size:200 ~proto:Flow.Udp ~dst_port:5060 () in
  (match Cbq.process c ~now:0.0 p with
   | Cbq.Marked { dscp; class_name } ->
     Alcotest.(check string) "class" "voice" class_name;
     Alcotest.(check bool) "ef" true (Dscp.equal dscp Dscp.ef);
     Alcotest.(check bool) "written to header" true
       (Dscp.equal p.Packet.inner.Packet.dscp Dscp.ef)
   | Cbq.Dropped _ -> Alcotest.fail "dropped")

let test_cbq_polices_voice () =
  let c = cpe () in
  (* Voice bucket: 2000 bytes burst; two 1500-byte packets exceed it. *)
  let p1 = packet ~size:1500 ~proto:Flow.Udp ~dst_port:5060 () in
  let p2 = packet ~size:1500 ~proto:Flow.Udp ~dst_port:5060 () in
  (match Cbq.process c ~now:0.0 p1 with
   | Cbq.Marked _ -> ()
   | Cbq.Dropped _ -> Alcotest.fail "first should pass");
  match Cbq.process c ~now:0.0 p2 with
  | Cbq.Dropped { class_name } ->
    Alcotest.(check string) "policed" "voice" class_name
  | Cbq.Marked _ -> Alcotest.fail "second should be policed"

let test_cbq_remarks_business_excess () =
  let c = cpe () in
  let send size =
    let p = packet ~size ~proto:Flow.Tcp () in
    Cbq.process c ~now:0.0 p
  in
  (match send 10_000 with
   | Cbq.Marked { dscp; _ } ->
     Alcotest.(check bool) "in profile af31" true
       (Dscp.equal dscp (Dscp.af 3 1))
   | Cbq.Dropped _ -> Alcotest.fail "dropped");
  match send 5_000 with
  | Cbq.Marked { dscp; _ } ->
    Alcotest.(check bool) "excess remarked af33" true
      (Dscp.equal dscp (Dscp.af 3 3))
  | Cbq.Dropped _ -> Alcotest.fail "should remark, not drop"

let borrowing_cpe () =
  (* Business may borrow from the shared 1 Mb/s parent; voice may not. *)
  Cbq.create ~parent_rate_bps:1e6
    ~classes:
      [| { Cbq.name = "voice"; rate_bps = 64_000.0; burst_bytes = 2_000.0;
           dscp = Dscp.ef; exceed = Cbq.Police_drop; borrow = false };
         { Cbq.name = "business"; rate_bps = 200_000.0;
           burst_bytes = 5_000.0; dscp = Dscp.af 3 1;
           exceed = Cbq.Police_drop; borrow = true } |]
    ~rules:
      [ Classifier.rule ~proto:Flow.Udp ~dst_port:(5060, 5061) 0;
        Classifier.rule ~proto:Flow.Tcp 1 ]
    ()

let test_cbq_borrowing_uses_idle_share () =
  let c = borrowing_cpe () in
  (* Business exhausts its own 5 kB burst, then keeps borrowing from
     the idle parent allocation instead of being policed. *)
  let send_business size =
    Cbq.process c ~now:0.0 (packet ~size ~proto:Flow.Tcp ())
  in
  (match send_business 5_000 with
   | Cbq.Marked _ -> ()
   | Cbq.Dropped _ -> Alcotest.fail "in-profile dropped");
  (match send_business 5_000 with
   | Cbq.Marked { dscp; _ } ->
     Alcotest.(check bool) "borrowed traffic keeps its class" true
       (Dscp.equal dscp (Dscp.af 3 1))
   | Cbq.Dropped _ -> Alcotest.fail "should borrow, siblings are idle");
  (* The parent is finite: ~125 kB at time 0; drain it and the class
     is finally policed. *)
  let rec drain n =
    if n > 200 then Alcotest.fail "parent never exhausted"
    else
      match send_business 5_000 with
      | Cbq.Marked _ -> drain (n + 1)
      | Cbq.Dropped _ -> ()
  in
  drain 0

let test_cbq_no_borrow_still_policed () =
  let c = borrowing_cpe () in
  (* Voice (borrow = false) is policed at its own burst even though the
     parent is full. *)
  let send_voice size =
    Cbq.process c ~now:0.0
      (packet ~size ~proto:Flow.Udp ~dst_port:5060 ())
  in
  (match send_voice 2_000 with
   | Cbq.Marked _ -> ()
   | Cbq.Dropped _ -> Alcotest.fail "in-profile voice dropped");
  match send_voice 2_000 with
  | Cbq.Dropped _ -> ()
  | Cbq.Marked _ -> Alcotest.fail "non-borrowing class must be policed"

let test_cbq_default_class () =
  let c = cpe () in
  let p = packet ~proto:Flow.Icmp () in
  match Cbq.process c ~now:0.0 p with
  | Cbq.Marked { dscp; class_name } ->
    Alcotest.(check string) "default" "default" class_name;
    Alcotest.(check bool) "best effort" true
      (Dscp.equal dscp Dscp.best_effort)
  | Cbq.Dropped _ -> Alcotest.fail "default must not drop"

(* --- Port ---------------------------------------------------------------- *)

let test_port_serialization_and_delay () =
  let e = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  (* 8 kbps: a 1000-byte packet takes 1 s to serialize; delay 0.5 s. *)
  let l, _ = Topology.connect topo a b ~bandwidth:8000.0 ~delay:0.5 in
  let arrivals = ref [] in
  let port =
    Port.create e ~link:l ~qdisc:(Queue_disc.fifo ~capacity_bytes:1_000_000)
      ~classify:(fun _ -> 0)
      ~on_deliver:(fun p -> arrivals := (Engine.now e, p) :: !arrivals)
  in
  Port.send port (packet ~size:1000 ());
  Port.send port (packet ~size:1000 ());
  Engine.run e;
  let times = List.rev_map fst !arrivals in
  Alcotest.(check (list (float 1e-6))) "pipelined delivery" [1.5; 2.5] times;
  let c = Port.counters port in
  Alcotest.(check int) "delivered" 2 c.Port.delivered;
  Alcotest.(check (float 1e-9)) "busy 2s" 2.0 c.Port.busy_seconds

let test_port_down_link_drops () =
  let e = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  let l, _ = Topology.connect topo a b ~bandwidth:8000.0 ~delay:0.1 in
  Topology.set_duplex_state topo a b false;
  let port =
    Port.create e ~link:l ~qdisc:(Queue_disc.fifo ~capacity_bytes:1_000_000)
      ~classify:(fun _ -> 0)
      ~on_deliver:(fun _ -> Alcotest.fail "must not deliver")
  in
  Port.send port (packet ());
  Engine.run e;
  Alcotest.(check int) "dropped" 1 (Port.counters port).Port.dropped_link_down

let test_port_queue_drop_counted () =
  let e = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  let l, _ = Topology.connect topo a b ~bandwidth:8000.0 ~delay:0.1 in
  let port =
    Port.create e ~link:l ~qdisc:(Queue_disc.fifo ~capacity_bytes:1500)
      ~classify:(fun _ -> 0)
      ~on_deliver:(fun _ -> ())
  in
  (* First starts transmitting immediately (leaves the queue); then one
     queues; the third overflows. *)
  Port.send port (packet ~size:1000 ());
  Port.send port (packet ~size:1000 ());
  Port.send port (packet ~size:1000 ());
  Engine.run e;
  let c = Port.counters port in
  Alcotest.(check int) "one dropped" 1 c.Port.dropped_queue;
  Alcotest.(check int) "two through" 2 c.Port.delivered

let test_port_utilization () =
  let e = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  let l, _ = Topology.connect topo a b ~bandwidth:8000.0 ~delay:0.0 in
  let port =
    Port.create e ~link:l ~qdisc:(Queue_disc.fifo ~capacity_bytes:1_000_000)
      ~classify:(fun _ -> 0)
      ~on_deliver:(fun _ -> ())
  in
  Port.send port (packet ~size:1000 ());
  Engine.run ~until:2.0 e;
  Alcotest.(check (float 1e-9)) "50% busy" 0.5
    (Port.utilization port ~now:2.0)

(* --- Sla ----------------------------------------------------------------- *)

(* A one-slot clock cell reading [t], as an engine's clock would. *)
let clock_at t = Float.Array.make 1 t

let test_sla_report () =
  let c = Sla.collector () in
  Sla.on_send c ~clock:(clock_at 0.0) ~bytes:1000;
  Sla.on_send c ~clock:(clock_at 0.1) ~bytes:1000;
  Sla.on_send c ~clock:(clock_at 0.2) ~bytes:1000;
  let recv at created =
    let p =
      Packet.make ~size:1000 ~now:created
        (Flow.make (ip "10.0.0.1") (ip "10.1.0.1"))
    in
    Sla.on_receive c ~clock:(clock_at at) p
  in
  recv 0.05 0.0;
  recv 0.16 0.1;
  let r = Sla.report c in
  Alcotest.(check int) "sent" 3 r.Sla.sent;
  Alcotest.(check int) "received" 2 r.Sla.received;
  Alcotest.(check (float 1e-9)) "loss 1/3" (1.0 /. 3.0) r.Sla.loss;
  Alcotest.(check (float 1e-9)) "mean delay" 0.055 r.Sla.mean_delay;
  Alcotest.(check (float 1e-9)) "jitter" 0.01 r.Sla.jitter;
  Alcotest.(check (float 1e-9)) "duration" 0.16 r.Sla.duration

let test_sla_check_violations () =
  let c = Sla.collector () in
  for i = 0 to 99 do
    let now = float_of_int i *. 0.02 in
    Sla.on_send c ~clock:(clock_at now) ~bytes:200;
    (* 300 ms delay: violates the voice spec. *)
    let p =
      Packet.make ~size:200 ~now (Flow.make (ip "10.0.0.1") (ip "10.1.0.1"))
    in
    Sla.on_receive c ~clock:(clock_at (now +. 0.3)) p
  done;
  let r = Sla.report c in
  let violations = Sla.check Sla.voice_spec r in
  Alcotest.(check bool) "violations found" true (List.length violations >= 2);
  Alcotest.(check bool) "not compliant" false (Sla.complies Sla.voice_spec r);
  Alcotest.(check bool) "best effort always passes" true
    (Sla.complies Sla.best_effort_spec r)

let test_sla_reorder_detection () =
  let c = Sla.collector () in
  let flow = Flow.make (ip "10.0.0.1") (ip "10.1.0.1") in
  let recv seq =
    Sla.on_send c ~clock:(clock_at 0.0) ~bytes:100;
    Sla.on_receive c ~clock:(clock_at 0.1)
      (Packet.make ~seq ~size:100 ~now:0.0 flow)
  in
  recv 1;
  recv 2;
  recv 4;  (* gap: loss, not reorder *)
  recv 3;  (* overtaken: reorder *)
  recv 5;
  let r = Sla.report c in
  Alcotest.(check int) "one reordered" 1 r.Sla.reordered;
  (* Different flows do not interfere. *)
  let other = Flow.make (ip "10.0.0.2") (ip "10.1.0.1") in
  Sla.on_receive c ~clock:(clock_at 0.2)
    (Packet.make ~seq:1 ~size:100 ~now:0.0 other);
  Alcotest.(check int) "per-flow tracking" 1 (Sla.report c).Sla.reordered

(* Reorder counting against a list model. Arrivals interleave over four
   flows that differ in one field each; about half carry a freshly built
   flow record, structurally equal to but not the same object as the
   one the flow started with, so the per-flow table must key on the
   5-tuple's value. *)
let sla_flows =
  [| (fun () -> Flow.make (ip "10.0.0.1") (ip "10.1.0.1"));
     (fun () -> Flow.make (ip "10.0.0.2") (ip "10.1.0.1"));
     (fun () -> Flow.make ~src_port:5060 (ip "10.0.0.1") (ip "10.1.0.1"));
     (fun () -> Flow.make ~proto:Flow.Tcp (ip "10.0.0.1") (ip "10.1.0.1")) |]

let sla_reorder_model =
  QCheck.Test.make ~name:"sla reorder count matches a per-flow list model"
    ~count:200
    QCheck.(list_of_size (Gen.int_range 0 60)
              (triple (int_bound 3) (int_bound 20) bool))
    (fun arrivals ->
       let shared = Array.map (fun mk -> mk ()) sla_flows in
       let c = Sla.collector () in
       let _, expected =
         List.fold_left
           (fun (high, n) (f, seq, fresh) ->
              let flow = if fresh then sla_flows.(f) () else shared.(f) in
              Sla.on_receive c ~clock:(clock_at 1.0)
                (Packet.make ~seq ~size:100 ~now:0.0 flow);
              match List.assoc_opt f high with
              | Some h when seq < h -> (high, n + 1)
              | _ -> ((f, seq) :: List.remove_assoc f high, n))
           ([], 0) arrivals
       in
       (Sla.report c).Sla.reordered = expected)

let test_sla_empty_collector () =
  let r = Sla.report (Sla.collector ()) in
  Alcotest.(check (float 1e-9)) "no loss when nothing sent" 0.0 r.Sla.loss;
  Alcotest.(check bool) "voice passes vacuously" true
    (Sla.complies Sla.voice_spec r)

(* --- Shaper -------------------------------------------------------------- *)

let test_shaper_passes_conforming () =
  let e = Engine.create () in
  let out = ref 0 in
  let sh =
    Shaper.create e ~rate_bps:80_000.0 ~burst_bytes:2_000.0
      ~queue_bytes:100_000 ~release:(fun _ -> incr out)
  in
  Alcotest.(check bool) "in-burst passes now" true
    (Shaper.offer sh (packet ~size:1000 ()));
  Alcotest.(check int) "released immediately" 1 !out;
  Alcotest.(check int) "not counted as shaped" 0 (Shaper.shaped sh)

let test_shaper_delays_excess () =
  let e = Engine.create () in
  let releases = ref [] in
  let sh =
    (* 80 kb/s = 10 kB/s, burst 1 kB. *)
    Shaper.create e ~rate_bps:80_000.0 ~burst_bytes:1_000.0
      ~queue_bytes:100_000
      ~release:(fun p -> releases := (Engine.now e, p) :: !releases)
  in
  (* Three 1000-byte packets at t=0: first passes, the others drain at
     0.1 s spacing. *)
  for _ = 1 to 3 do
    ignore (Shaper.offer sh (packet ~size:1000 ()))
  done;
  Engine.run e;
  let times = List.rev_map fst !releases in
  (match times with
   | [t1; t2; t3] ->
     Alcotest.(check (float 1e-6)) "first immediate" 0.0 t1;
     Alcotest.(check (float 1e-3)) "second after refill" 0.1 t2;
     Alcotest.(check (float 1e-3)) "third a period later" 0.2 t3
   | _ -> Alcotest.failf "expected 3 releases, got %d" (List.length times));
  Alcotest.(check int) "two shaped" 2 (Shaper.shaped sh);
  Alcotest.(check int) "none dropped" 0 (Shaper.dropped sh)

let test_shaper_buffer_overflow () =
  let e = Engine.create () in
  let sh =
    Shaper.create e ~rate_bps:8_000.0 ~burst_bytes:1_000.0
      ~queue_bytes:2_000 ~release:(fun _ -> ())
  in
  ignore (Shaper.offer sh (packet ~size:1000 ()));  (* passes *)
  ignore (Shaper.offer sh (packet ~size:1000 ()));  (* queued *)
  ignore (Shaper.offer sh (packet ~size:1000 ()));  (* queued *)
  Alcotest.(check bool) "fourth refused" false
    (Shaper.offer sh (packet ~size:1000 ()));
  Alcotest.(check int) "dropped" 1 (Shaper.dropped sh)

(* The shaper's defining property: output never exceeds rate*t + burst,
   regardless of the arrival pattern. *)
let shaper_conformance =
  QCheck.Test.make ~name:"shaper output conforms to the contract" ~count:60
    QCheck.(list_of_size (QCheck.Gen.int_range 1 60)
              (pair (int_range 100 1500) (int_range 0 50)))
    (fun arrivals ->
       let e = Engine.create () in
       let rate = 400_000.0 and burst = 3_000.0 in
       let released_bytes = ref 0 in
       let last = ref 0.0 in
       let sh =
         Shaper.create e ~rate_bps:rate ~burst_bytes:burst
           ~queue_bytes:1_000_000
           ~release:(fun p ->
               released_bytes := !released_bytes + p.Packet.size;
               last := Engine.now e)
       in
       let now = ref 0.0 in
       List.iter
         (fun (size, gap_ms) ->
            now := !now +. (float_of_int gap_ms /. 1000.0);
            Engine.schedule_at e ~time:!now (fun () ->
                ignore (Shaper.offer sh (packet ~size ()))))
         arrivals;
       Engine.run e;
       float_of_int !released_bytes
       <= (rate /. 8.0 *. !last) +. burst +. 1500.0 +. 1e-6)

(* --- Intserv ------------------------------------------------------------- *)

let intserv_topo () =
  let topo = Topology.create () in
  let ids = Topology.line topo 4 ~bandwidth:10e6 ~delay:0.001 in
  (topo, ids)

let test_intserv_reserve_and_state () =
  let topo, ids = intserv_topo () in
  let is = Intserv.create topo in
  let flow i =
    Flow.make ~src_port:i (ip "10.0.0.1") (ip "10.3.0.1")
  in
  let spec = { Intserv.rate_bps = 1e6; bucket_bytes = 10_000.0 } in
  (match Intserv.reserve is ~src:ids.(0) ~dst:ids.(3) (flow 1) spec with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "reserve: %s" e);
  Alcotest.(check int) "one reservation" 1 (Intserv.reservation_count is);
  (* Per-flow state on all 4 routers of the path. *)
  Array.iter
    (fun node ->
       Alcotest.(check int) "flow state" 1 (Intserv.flow_state_at is node))
    ids;
  Alcotest.(check int) "total" 4 (Intserv.total_flow_state is)

let test_intserv_admission_limit () =
  let topo, ids = intserv_topo () in
  (* 10 Mb/s links, 75% reservable = 7.5 Mb/s; 1 Mb/s flows: 7 fit. *)
  let is = Intserv.create topo in
  let spec = { Intserv.rate_bps = 1e6; bucket_bytes = 10_000.0 } in
  let admitted = ref 0 in
  for i = 1 to 10 do
    match
      Intserv.reserve is ~src:ids.(0) ~dst:ids.(3)
        (Flow.make ~src_port:i (ip "10.0.0.1") (ip "10.3.0.1"))
        spec
    with
    | Ok _ -> incr admitted
    | Error _ -> ()
  done;
  Alcotest.(check int) "seven admitted" 7 !admitted

let test_intserv_release_returns_capacity () =
  let topo, ids = intserv_topo () in
  let is = Intserv.create topo in
  let spec = { Intserv.rate_bps = 7e6; bucket_bytes = 10_000.0 } in
  let flow1 = Flow.make ~src_port:1 (ip "10.0.0.1") (ip "10.3.0.1") in
  let flow2 = Flow.make ~src_port:2 (ip "10.0.0.1") (ip "10.3.0.1") in
  let id1 =
    match Intserv.reserve is ~src:ids.(0) ~dst:ids.(3) flow1 spec with
    | Ok id -> id
    | Error e -> Alcotest.failf "first: %s" e
  in
  (match Intserv.reserve is ~src:ids.(0) ~dst:ids.(3) flow2 spec with
   | Ok _ -> Alcotest.fail "second should not fit"
   | Error _ -> ());
  Alcotest.(check bool) "released" true (Intserv.release is id1);
  (match Intserv.reserve is ~src:ids.(0) ~dst:ids.(3) flow2 spec with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "after release: %s" e);
  Alcotest.(check int) "state follows" 4 (Intserv.total_flow_state is)

let test_intserv_duplicate_flow_rejected () =
  let topo, ids = intserv_topo () in
  let is = Intserv.create topo in
  let spec = { Intserv.rate_bps = 1e5; bucket_bytes = 1_000.0 } in
  let flow = Flow.make (ip "10.0.0.1") (ip "10.3.0.1") in
  (match Intserv.reserve is ~src:ids.(0) ~dst:ids.(3) flow spec with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "first: %s" e);
  match Intserv.reserve is ~src:ids.(0) ~dst:ids.(3) flow spec with
  | Ok _ -> Alcotest.fail "duplicate admitted"
  | Error _ -> ()

let test_intserv_unreachable () =
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  let is = Intserv.create topo in
  match
    Intserv.reserve is ~src:a ~dst:b
      (Flow.make (ip "10.0.0.1") (ip "10.1.0.1"))
      { Intserv.rate_bps = 1e5; bucket_bytes = 1_000.0 }
  with
  | Ok _ -> Alcotest.fail "reserved across a partition"
  | Error _ -> ()

(* --- Ring storage: list models ------------------------------------------ *)

(* The port's delay line against a list model of a FIFO port. Every
   time is a dyadic fraction, so the float arithmetic is exact: packet
   sends and serializations fall on multiples of 1/1024 s (a 64 kbit/s
   line, sizes in multiples of 8 bytes), link flips and handoff
   switches on odd multiples of 1/2048 s, so no flip ever ties a
   packet event. Long delays keep hundreds of packets on the wire
   (ring growth); steady streams wrap the ring; flips drop packets both
   at send and at tx completion (the tail leaving the ring); a handoff
   window moves completions to the cut-link path. *)
type port_case = {
  sends : (int * int) list;  (* gap before the send, tx time (1/1024 s) *)
  delay : float;
  flips : int list;  (* link flips at (2k+1)/2048 s, k ascending *)
  handoff : (int * int) option;  (* on/off switch at (2k+1)/2048 s *)
}

type fate = Delivered of float | Handed of float | Link_down of float

let port_case_gen =
  let open QCheck.Gen in
  let ascending l = List.sort_uniq compare l in
  map4
    (fun sends delay flips handoff ->
       { sends; delay; flips = ascending flips;
         handoff =
           Option.map (fun (a, b) -> (Int.min a b, Int.max a b + 1)) handoff })
    (list_size (int_range 1 300) (pair (int_bound 6) (int_range 1 8)))
    (oneofl [ 0.0; 1.0 /. 1024.0; 0.25; 2.0 ])
    (list_size (int_bound 6) (int_bound 1500))
    (option (pair (int_bound 1500) (int_bound 1500)))

let flip_time k = float_of_int ((2 * k) + 1) /. 2048.0

let port_model c =
  let up t =
    List.length (List.filter (fun k -> flip_time k < t) c.flips) mod 2 = 0
  in
  let handing t =
    match c.handoff with
    | Some (a, b) -> flip_time a < t && t < flip_time b
    | None -> false
  in
  let now = ref 0.0 and free = ref 0.0 in
  List.map
    (fun (gap, units) ->
       now := !now +. (float_of_int gap /. 1024.0);
       if not (up !now) then Link_down !now
       else begin
         let start = Float.max !now !free in
         let fin = start +. (float_of_int units /. 1024.0) in
         free := fin;
         if not (up fin) then Link_down fin
         else if handing fin then Handed (fin +. c.delay)
         else Delivered (fin +. c.delay)
       end)
    c.sends

let port_run c =
  let e = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  let l, _ = Topology.connect topo a b ~bandwidth:65536.0 ~delay:c.delay in
  let n = List.length c.sends in
  let fates = Array.make n None in
  let order = ref [] in
  let idx = Hashtbl.create n in
  let note p f =
    let i = Hashtbl.find idx p.Packet.uid in
    if fates.(i) <> None then Alcotest.failf "packet %d fated twice" i;
    fates.(i) <- Some f
  in
  let port =
    Port.create e ~link:l ~qdisc:(Queue_disc.fifo ~capacity_bytes:(1 lsl 40))
      ~classify:(fun _ -> 0)
      ~on_deliver:(fun p ->
          order := Hashtbl.find idx p.Packet.uid :: !order;
          note p (Delivered (Engine.now e)))
      ~on_drop:(fun ~reason p ->
          Alcotest.(check string) "drop reason" "link-down" reason;
          note p (Link_down (Engine.now e)))
  in
  let t = ref 0.0 in
  List.iteri
    (fun i (gap, units) ->
       t := !t +. (float_of_int gap /. 1024.0);
       let p = packet ~size:(8 * units) () in
       Hashtbl.replace idx p.Packet.uid i;
       Engine.schedule_at e ~time:!t (fun () -> Port.send port p))
    c.sends;
  let up = ref true in
  List.iter
    (fun k ->
       Engine.schedule_at e ~time:(flip_time k) (fun () ->
           up := not !up;
           Topology.set_duplex_state topo a b !up))
    c.flips;
  (match c.handoff with
   | Some (on, off) ->
     Engine.schedule_at e ~time:(flip_time on) (fun () ->
         Port.set_handoff port
           (Some
              (fun p ->
                 note p (Handed (Engine.now e +. l.Topology.delay)))));
     Engine.schedule_at e ~time:(flip_time off) (fun () ->
         Port.set_handoff port None)
   | None -> ());
  Engine.run e;
  (Array.to_list (Array.map Option.get fates), List.rev !order,
   Port.counters port)

let port_ring_model =
  QCheck.Test.make ~name:"port delay ring matches the FIFO list model"
    ~count:200
    (QCheck.make
       ~print:(fun c ->
           Printf.sprintf "%d sends, delay %g, %d flips, handoff %b"
             (List.length c.sends) c.delay (List.length c.flips)
             (c.handoff <> None))
       port_case_gen)
    (fun c ->
       let want = port_model c in
       let got, order, ctr = port_run c in
       let count p = List.length (List.filter p want) in
       got = want
       (* One wire: arrivals pop in send order. *)
       && order = List.sort compare order
       && List.length order
          = count (function Delivered _ -> true | _ -> false)
       && ctr.Port.delivered
          = count (function Delivered _ | Handed _ -> true | _ -> false)
       && ctr.Port.dropped_link_down
          = count (function Link_down _ -> true | _ -> false))

(* Band rings against a list model of each scheduler: the same
   scheduling rules over plain lists, so any disagreement is the ring
   storage (wrap-around, growth, the WFQ tag beside each slot). *)
type qop = Enq of int * int | Deq  (* class, bytes *)

type mband = {
  mutable items : (int * int * float) list;  (* id, bytes, tag; FIFO *)
  mutable mbytes : int;
  mutable last_finish : float;
  mutable mdeficit : int;
  cap : int;
}

let qdisc_model sched caps ops =
  let n = Array.length caps in
  let bands =
    Array.map
      (fun cap ->
         { items = []; mbytes = 0; last_finish = 0.0; mdeficit = 0; cap })
      caps
  in
  let vt = ref 0.0 and rr_pos = ref 0 and credit = ref 0 in
  let all_empty () = Array.for_all (fun b -> b.items = []) bands in
  let take i =
    let b = bands.(i) in
    match b.items with
    | (id, bytes, _) :: rest ->
      b.items <- rest;
      b.mbytes <- b.mbytes - bytes;
      Some id
    | [] -> assert false
  in
  let head_bytes b = match b.items with (_, s, _) :: _ -> s | [] -> 0 in
  let head_tag b = match b.items with (_, _, t) :: _ -> t | [] -> 0.0 in
  let dequeue () =
    match sched with
    | Queue_disc.Strict ->
      let rec go i =
        if i >= n then None else if bands.(i).items = [] then go (i + 1)
        else take i
      in
      go 0
    | Queue_disc.Wrr w ->
      if all_empty () then None
      else begin
        let rec go guard =
          if guard > 2 * n then None
          else if !credit > 0 && bands.(!rr_pos).items <> [] then begin
            decr credit;
            take !rr_pos
          end
          else begin
            rr_pos := (!rr_pos + 1) mod n;
            credit := w.(!rr_pos);
            go (guard + 1)
          end
        in
        go 0
      end
    | Queue_disc.Drr q ->
      if all_empty () then None
      else begin
        let rec go () =
          let b = bands.(!rr_pos) in
          if b.items = [] then begin
            b.mdeficit <- 0;
            rr_pos := (!rr_pos + 1) mod n;
            go ()
          end
          else if b.mdeficit >= head_bytes b then begin
            b.mdeficit <- b.mdeficit - head_bytes b;
            take !rr_pos
          end
          else begin
            b.mdeficit <- b.mdeficit + q.(!rr_pos);
            rr_pos := (!rr_pos + 1) mod n;
            go ()
          end
        in
        go ()
      end
    | Queue_disc.Wfq _ ->
      let best = ref (-1) in
      Array.iteri
        (fun i b ->
           if b.items <> []
           && (!best < 0 || head_tag b < head_tag bands.(!best))
           then best := i)
        bands;
      if !best < 0 then None
      else begin
        vt := Float.max !vt (head_tag bands.(!best));
        take !best
      end
  in
  let next_id = ref 0 in
  List.filter_map
    (function
      | Enq (cls, bytes) ->
        let id = !next_id in
        incr next_id;
        let b = bands.(cls) in
        if b.mbytes + bytes > b.cap then Some (`Dropped id)
        else begin
          let tag =
            match sched with
            | Queue_disc.Wfq w ->
              let finish =
                Float.max !vt b.last_finish +. (float_of_int bytes /. w.(cls))
              in
              b.last_finish <- finish;
              finish
            | _ -> 0.0
          in
          b.items <- b.items @ [ (id, bytes, tag) ];
          b.mbytes <- b.mbytes + bytes;
          None
        end
      | Deq -> Some (`Out (dequeue ())))
    ops

let qdisc_run sched caps ops =
  let q =
    Queue_disc.create ~sched (Array.map Queue_disc.plain_band caps)
  in
  let ids = Hashtbl.create 64 in
  let next_id = ref 0 in
  List.filter_map
    (function
      | Enq (cls, bytes) ->
        let id = !next_id in
        incr next_id;
        let p = packet ~size:bytes () in
        Hashtbl.replace ids p.Packet.uid id;
        (match Queue_disc.enqueue q ~cls p with
         | Ok () -> None
         | Error _ -> Some (`Dropped id))
      | Deq ->
        let p = Queue_disc.dequeue_null q in
        Some
          (`Out
             (if p == Packet.null then None
              else Some (Hashtbl.find ids p.Packet.uid))))
    ops

let qdisc_case_gen =
  let open QCheck.Gen in
  int_range 1 4 >>= fun n ->
  let weights = array_size (return n) (int_range 1 4) in
  let sched =
    oneof
      [ return Queue_disc.Strict;
        map (fun w -> Queue_disc.Wrr w) weights;
        map (fun w -> Queue_disc.Drr (Array.map (fun x -> 500 * x) w)) weights;
        map (fun w -> Queue_disc.Wfq (Array.map float_of_int w)) weights ]
  in
  let caps = array_size (return n) (oneofl [ 3000; 20_000; 1 lsl 30 ]) in
  (* Enqueue-heavy runs build backlogs past the initial ring size;
     interleaved dequeues move the head so later growth unwraps. *)
  let op =
    frequency
      [ (3,
         map2 (fun c b -> Enq (c, b)) (int_bound (n - 1)) (int_range 40 1500));
        (2, return Deq) ]
  in
  triple sched caps (list_size (int_range 0 400) op)

let qdisc_ring_model =
  QCheck.Test.make ~name:"qdisc band rings match the list model" ~count:300
    (QCheck.make
       ~print:(fun (sched, caps, ops) ->
           Printf.sprintf "%s, %d bands, %d ops"
             (match sched with
              | Queue_disc.Strict -> "strict"
              | Wrr _ -> "wrr"
              | Drr _ -> "drr"
              | Wfq _ -> "wfq")
             (Array.length caps) (List.length ops))
       qdisc_case_gen)
    (fun (sched, caps, ops) ->
       qdisc_model sched caps ops = qdisc_run sched caps ops)

(* A warmed enqueue/dequeue_null cycle allocates nothing: a boxed WFQ
   tag (or any other float) on the path fails here. *)
let test_qdisc_cycle_allocates_nothing () =
  let q =
    Queue_disc.create ~sched:(Queue_disc.Wfq [| 3.0; 2.0; 1.0 |])
      (Array.make 3 (Queue_disc.plain_band 1_000_000))
  in
  let pkts = Array.init 64 (fun i -> packet ~size:(64 + (i * 20)) ()) in
  let cycles n =
    for i = 1 to n do
      (match Queue_disc.enqueue q ~cls:(i mod 3) pkts.(i land 63) with
       | Ok () | Error _ -> ());
      if Queue_disc.backlog_packets q > 40 then
        ignore (Sys.opaque_identity (Queue_disc.dequeue_null q))
    done
  in
  cycles 20_000;
  let w0 = Gc.minor_words () in
  cycles 10_000;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 10k cycles" 0.0 dw

(* [Sla.on_receive] on a flow it already tracks allocates nothing: the
   receive time arrives in a clock cell, and the delay and the jitter
   step reach [Stats] through the collector's one-slot cell, not as
   boxed arguments. *)
let test_sla_on_receive_allocates_nothing () =
  let c = Sla.collector () in
  let p = packet () in
  let nows = List.init 900 (fun i -> 0.01 +. (1e-4 *. float_of_int (i mod 37))) in
  let clock = clock_at 0.0 in
  let rec feed = function
    | [] -> ()
    | now :: rest ->
      Float.Array.set clock 0 now;
      Sla.on_receive c ~clock p;
      feed rest
  in
  (* Warm past 1024 samples, so the 900 measured ones fit the
     sample store without growing it. *)
  feed nows;
  feed (List.filteri (fun i _ -> i < 200) nows);
  let w0 = Gc.minor_words () in
  feed nows;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 900 receives" 0.0 dw;
  Alcotest.(check int) "received" 2000 (Sla.report c).Sla.received

(* A warmed port's send -> tx -> propagate cycle allocates nothing: the
   serialization delay reaches the engine through the port's cell, and
   the engine's clock is a cell too, so an executed event stores no
   float box. Both readings are taken inside one run window, so the
   window's own setup cancels out, and after 12k warm-up events, by
   which the calendar queue has settled its bucket width (a re-width
   allocates a fresh bucket array). *)
let test_port_cycle_allocates_nothing () =
  let e = Engine.create () in
  let topo = Topology.create () in
  let a = Topology.add_node topo and b = Topology.add_node topo in
  let l, _ = Topology.connect topo a b ~bandwidth:1e9 ~delay:1e-4 in
  let delivered = ref 0 in
  let port =
    Port.create e ~link:l ~qdisc:(Queue_disc.fifo ~capacity_bytes:1_000_000)
      ~classify:(fun _ -> 0)
      ~on_deliver:(fun _ -> incr delivered)
  in
  let p = packet ~size:1000 () in
  let words = Float.Array.make 2 0.0 and events = Array.make 2 0 in
  let sent = ref 0 in
  (* One send per millisecond: each packet serializes (8 us) and
     propagates (100 us) before the next. *)
  let rec source () =
    if !sent = 4000 || !sent = 6000 then begin
      let k = if !sent = 4000 then 0 else 1 in
      Float.Array.set words k (Gc.minor_words ());
      events.(k) <- Engine.processed e
    end;
    if !sent < 6000 then begin
      incr sent;
      Port.send port p;
      Engine.schedule e ~delay:1e-3 source
    end
  in
  Engine.schedule e ~delay:0.0 source;
  Engine.run e;
  Alcotest.(check int) "delivered" 6000 !delivered;
  let dev = events.(1) - events.(0) in
  Alcotest.(check int) "three events per cycle" 6000 dev;
  Alcotest.(check (float 0.0)) "minor words over 6000 events" 0.0
    (Float.Array.get words 1 -. Float.Array.get words 0)

(* A packet's whole measured life on a known flow allocates nothing once
   the pool is warm: [make] reincarnates a retired record and stamps its
   own creation cell, the send and the receive read the time from a
   clock cell, and [release] parks the record again. Half the packets
   come from [make ~now] (a pre-boxed time, as a caller holding one
   passes it), half from [make_cell] (the traffic senders' path). *)
let test_packet_life_allocates_nothing () =
  let c = Sla.collector () in
  let flow = Flow.make (ip "10.0.0.1") (ip "10.1.0.1") in
  let clock = clock_at 0.0 and t0 = 0.0 in
  let life i =
    let p =
      if i land 1 = 0 then Packet.make ~now:t0 flow
      else Packet.make_cell clock flow
    in
    Sla.on_send c ~clock ~bytes:p.Packet.size;
    Float.Array.set clock 0 (Float.Array.get clock 0 +. 1e-3);
    Sla.on_receive c ~clock p;
    Packet.release p
  in
  let was = Packet.pooling () in
  Packet.set_pooling true;
  Fun.protect ~finally:(fun () -> Packet.set_pooling was) (fun () ->
      (* Warm past 1024 samples, so the measured ones fit the sample
         store without growing it. *)
      for i = 1 to 1100 do life i done;
      let w0 = Gc.minor_words () in
      for i = 1 to 900 do life i done;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) "minor words over 900 lives" 0.0 dw);
  Alcotest.(check int) "received" 2000 (Sla.report c).Sla.received

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "qos"
    [ ("token-bucket",
       [ Alcotest.test_case "burst then refill" `Quick
           test_bucket_burst_then_refill;
         Alcotest.test_case "cap" `Quick test_bucket_cap;
         Alcotest.test_case "non-conforming" `Quick
           test_bucket_nonconforming_consumes_nothing;
         qt bucket_conservation ]);
      ("meter",
       [ Alcotest.test_case "srtcm colors" `Quick test_srtcm_colors;
         Alcotest.test_case "trtcm colors" `Quick test_trtcm_colors;
         Alcotest.test_case "trtcm validation" `Quick test_trtcm_validation;
         Alcotest.test_case "drop precedence" `Quick
           test_meter_drop_precedence ]);
      ("classifier",
       [ Alcotest.test_case "first match" `Quick test_classifier_first_match;
         Alcotest.test_case "no default" `Quick test_classifier_no_default;
         Alcotest.test_case "encryption hides flow" `Quick
           test_classifier_encrypted_hides_flow;
         Alcotest.test_case "flow interface" `Quick
           test_classifier_flow_interface ]);
      ("queue-disc",
       [ Alcotest.test_case "fifo tail drop" `Quick test_fifo_tail_drop;
         Alcotest.test_case "fifo order" `Quick test_fifo_order;
         Alcotest.test_case "strict priority" `Quick test_priority_scheduler;
         Alcotest.test_case "priority starvation" `Quick
           test_priority_starvation;
         Alcotest.test_case "wrr shares" `Quick test_wrr_shares;
         Alcotest.test_case "drr byte fairness" `Quick
           test_drr_byte_fairness;
         Alcotest.test_case "wfq weighted bytes" `Quick
           test_wfq_weighted_bytes;
         Alcotest.test_case "wfq work conserving" `Quick
           test_wfq_work_conserving;
         Alcotest.test_case "wred precedence" `Quick
           test_wred_drops_worse_precedence_first;
         Alcotest.test_case "validation" `Quick test_qdisc_validation;
         qt qdisc_work_conservation;
         Alcotest.test_case "empty dequeue" `Quick test_qdisc_empty_dequeue;
         qt qdisc_ring_model;
         Alcotest.test_case "enqueue/dequeue cycle allocates nothing" `Quick
           test_qdisc_cycle_allocates_nothing ]);
      ("cbq",
       [ Alcotest.test_case "marks in profile" `Quick
           test_cbq_marks_in_profile;
         Alcotest.test_case "polices voice" `Quick test_cbq_polices_voice;
         Alcotest.test_case "remarks business excess" `Quick
           test_cbq_remarks_business_excess;
         Alcotest.test_case "borrowing uses idle share" `Quick
           test_cbq_borrowing_uses_idle_share;
         Alcotest.test_case "non-borrowing still policed" `Quick
           test_cbq_no_borrow_still_policed;
         Alcotest.test_case "default class" `Quick test_cbq_default_class ]);
      ("port",
       [ Alcotest.test_case "serialization and delay" `Quick
           test_port_serialization_and_delay;
         Alcotest.test_case "down link drops" `Quick
           test_port_down_link_drops;
         Alcotest.test_case "queue drop counted" `Quick
           test_port_queue_drop_counted;
         Alcotest.test_case "utilization" `Quick test_port_utilization;
         qt port_ring_model;
         Alcotest.test_case "send/tx/propagate allocates nothing" `Quick
           test_port_cycle_allocates_nothing ]);
      ("shaper",
       [ Alcotest.test_case "passes conforming" `Quick
           test_shaper_passes_conforming;
         Alcotest.test_case "delays excess" `Quick test_shaper_delays_excess;
         Alcotest.test_case "buffer overflow" `Quick
           test_shaper_buffer_overflow;
         qt shaper_conformance ]);
      ("intserv",
       [ Alcotest.test_case "reserve and state" `Quick
           test_intserv_reserve_and_state;
         Alcotest.test_case "admission limit" `Quick
           test_intserv_admission_limit;
         Alcotest.test_case "release returns capacity" `Quick
           test_intserv_release_returns_capacity;
         Alcotest.test_case "duplicate rejected" `Quick
           test_intserv_duplicate_flow_rejected;
         Alcotest.test_case "unreachable" `Quick test_intserv_unreachable ]);
      ("sla",
       [ Alcotest.test_case "report" `Quick test_sla_report;
         Alcotest.test_case "check violations" `Quick
           test_sla_check_violations;
         Alcotest.test_case "reorder detection" `Quick
           test_sla_reorder_detection;
         Alcotest.test_case "empty collector" `Quick
           test_sla_empty_collector;
         qt sla_reorder_model;
         Alcotest.test_case "on_receive allocates nothing" `Quick
           test_sla_on_receive_allocates_nothing;
         Alcotest.test_case "packet life allocates nothing" `Quick
           test_packet_life_allocates_nothing ]) ]
