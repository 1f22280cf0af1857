open Mvpn_telemetry

(* Every test runs against the process-global registry and control
   flag, so each starts from a clean slate and leaves telemetry off. *)
let wrap f () =
  Registry.reset ();
  Control.disable ();
  Fun.protect ~finally:(fun () ->
      Registry.reset ();
      Control.disable ())
    f

(* --- Control ----------------------------------------------------------- *)

let test_control_scoping () =
  Alcotest.(check bool) "starts off" false (Control.is_enabled ());
  Control.with_enabled (fun () ->
      Alcotest.(check bool) "on inside" true (Control.is_enabled ());
      Control.with_disabled (fun () ->
          Alcotest.(check bool) "nested off" false (Control.is_enabled ()));
      Alcotest.(check bool) "restored on" true (Control.is_enabled ()));
  Alcotest.(check bool) "restored off" false (Control.is_enabled ())

let test_control_restores_on_exception () =
  (try Control.with_enabled (fun () -> failwith "boom") with
   | Failure _ -> ());
  Alcotest.(check bool) "off after raise" false (Control.is_enabled ())

(* --- Counter ----------------------------------------------------------- *)

let test_counter_gated () =
  let c = Counter.make () in
  Counter.incr c;
  Counter.add c 10;
  Alcotest.(check int) "no-op while disabled" 0 (Counter.value c);
  Control.with_enabled (fun () ->
      Counter.incr c;
      Counter.incr c;
      Counter.add c 5);
  Alcotest.(check int) "counts while enabled" 7 (Counter.value c);
  Counter.reset c;
  Alcotest.(check int) "reset" 0 (Counter.value c)

(* --- Gauge ------------------------------------------------------------- *)

let test_gauge_gated () =
  let g = Gauge.make () in
  Gauge.set g 42.0;
  Alcotest.(check (float 1e-9)) "no-op while disabled" 0.0 (Gauge.value g);
  Control.with_enabled (fun () -> Gauge.set g 42.0);
  Alcotest.(check (float 1e-9)) "set while enabled" 42.0 (Gauge.value g)

(* --- Histogram --------------------------------------------------------- *)

let test_histogram_point_mass () =
  let h = Histogram.make () in
  Control.with_enabled (fun () ->
      for _ = 1 to 100 do
        Histogram.observe h 5.0
      done);
  Alcotest.(check int) "count" 100 (Histogram.count h);
  (* All mass in one bucket: every quantile clamps to the exact value. *)
  Alcotest.(check (float 1e-9)) "p50" 5.0 (Histogram.p50 h);
  Alcotest.(check (float 1e-9)) "p99" 5.0 (Histogram.p99 h);
  Alcotest.(check (float 1e-9)) "max" 5.0 (Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Histogram.mean h)

let test_histogram_quantile_bounds () =
  let h = Histogram.make ~lo:1.0 () in
  Control.with_enabled (fun () ->
      for i = 1 to 1000 do
        Histogram.observe_int h i
      done);
  (* Log buckets cover [x, 2x): quantile estimates carry at most a
     factor-two relative error, clamped to the observed extrema. *)
  let p50 = Histogram.p50 h and p99 = Histogram.p99 h in
  Alcotest.(check bool) "p50 in [250,1000]" true (p50 >= 250.0 && p50 <= 1000.0);
  Alcotest.(check bool) "p99 in [495,1000]" true (p99 >= 495.0 && p99 <= 1000.0);
  Alcotest.(check bool) "monotone" true (p50 <= p99);
  Alcotest.(check (float 1e-9)) "max exact" 1000.0 (Histogram.max_value h);
  Alcotest.(check (float 1e-9)) "min exact" 1.0 (Histogram.min_value h);
  Alcotest.(check (float 0.5)) "mean" 500.5 (Histogram.mean h)

let test_histogram_disabled_and_reset () =
  let h = Histogram.make () in
  Histogram.observe h 1.0;
  Alcotest.(check int) "no-op while disabled" 0 (Histogram.count h);
  Control.with_enabled (fun () -> Histogram.observe h 3.0);
  Histogram.reset h;
  Alcotest.(check int) "reset count" 0 (Histogram.count h);
  Alcotest.(check (float 1e-9)) "reset quantile" 0.0 (Histogram.p50 h)

(* --- Hop trace --------------------------------------------------------- *)

let test_trace_per_packet () =
  let t = Hop_trace.create () in
  Control.with_enabled (fun () ->
      Hop_trace.record t ~uid:1 ~time:0.1 ~node:0 "rx";
      Hop_trace.record t ~uid:2 ~time:0.2 ~node:0 "rx";
      Hop_trace.record t ~uid:1 ~time:0.3 ~node:1 "tx";
      Hop_trace.record t ~uid:1 ~time:0.4 ~node:2 "deliver");
  let hops = Hop_trace.trace t ~uid:1 in
  Alcotest.(check (list string)) "chronological, one packet"
    ["rx"; "tx"; "deliver"]
    (List.map (fun (e : Hop_trace.event) -> e.Hop_trace.label) hops);
  Alcotest.(check int) "recorded" 4 (Hop_trace.recorded t)

let test_trace_ring_wraps () =
  let t = Hop_trace.create ~capacity:4 () in
  Control.with_enabled (fun () ->
      for i = 1 to 10 do
        Hop_trace.record t ~uid:i ~time:(float_of_int i) ~node:0 "rx"
      done);
  Alcotest.(check int) "recorded counts all" 10 (Hop_trace.recorded t);
  Alcotest.(check (list int)) "ring keeps the newest, oldest first"
    [7; 8; 9; 10]
    (List.map (fun (e : Hop_trace.event) -> e.Hop_trace.uid)
       (Hop_trace.recent t 100));
  Alcotest.(check (list int)) "evicted packet has no trace" []
    (List.map (fun (e : Hop_trace.event) -> e.Hop_trace.uid)
       (Hop_trace.trace t ~uid:3))

let test_trace_disabled () =
  let t = Hop_trace.create () in
  Hop_trace.record t ~uid:1 ~time:0.0 ~node:0 "rx";
  Alcotest.(check int) "no-op while disabled" 0 (Hop_trace.recorded t)

(* A warmed [record_code] allocates nothing: the time arrives in a
   clock cell and lands in the ring's flat float array. *)
let test_trace_record_code_allocates_nothing () =
  let t = Hop_trace.create () and clock = Float.Array.make 1 0.0 in
  let code = Hop_trace.intern "rx" in
  let hops n =
    for i = 1 to n do
      Float.Array.set clock 0 (1e-6 *. float_of_int i);
      Hop_trace.record_code t ~uid:i ~clock ~node:(i land 7) code
    done
  in
  Control.with_enabled (fun () ->
      hops 100;
      let w0 = Gc.minor_words () in
      hops 10_000;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) "minor words over 10k hops" 0.0 dw);
  Alcotest.(check int) "recorded" 10_100 (Hop_trace.recorded t);
  match Hop_trace.trace t ~uid:10_000 with
  | [ e ] -> Alcotest.(check (float 0.0)) "time from the cell" 1e-2 e.time
  | es -> Alcotest.failf "one hop, got %d" (List.length es)

(* [trace] builds records only for the packet's own hops: a trace of k
   hops in a full 4096-entry ring allocates O(k) words (per hop an event
   record, its boxed time and a list cell), not a record per live
   entry. *)
let test_trace_allocates_per_hop () =
  let t = Hop_trace.create () and clock = Float.Array.make 1 0.0 in
  let code = Hop_trace.intern "rx" in
  Control.with_enabled (fun () ->
      for i = 1 to Hop_trace.capacity t do
        Float.Array.set clock 0 (float_of_int i);
        let uid = if i mod 1000 = 0 then 7 else 100 + i in
        Hop_trace.record_code t ~uid ~clock ~node:0 code
      done);
  let w0 = Gc.minor_words () in
  let hops = Hop_trace.trace t ~uid:7 in
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (list (float 0.0))) "the packet's hops, oldest first"
    [ 1000.0; 2000.0; 3000.0; 4000.0 ]
    (List.map (fun (e : Hop_trace.event) -> e.time) hops);
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for 4 hops" dw)
    true (dw <= 64.0);
  let w0 = Gc.minor_words () in
  let none = Hop_trace.trace t ~uid:8 in
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check int) "no hops" 0 (List.length none);
  Alcotest.(check (float 0.0)) "minor words for a miss" 0.0 dw

(* Shards on other domains intern drop labels concurrently: every
   domain must get the same code for the same string, and a ring filled
   through codes must read back the strings. *)
let test_trace_intern_across_domains () =
  let labels = List.init 50 (fun i -> Printf.sprintf "drop:intern-test-%d" i) in
  let intern_all order () = List.map Hop_trace.intern (order labels) in
  let d = Domain.spawn (intern_all List.rev) in
  let here = intern_all Fun.id () in
  let there = List.rev (Domain.join d) in
  Alcotest.(check (list int)) "same code in both domains" here there;
  Alcotest.(check int) "distinct codes" 50
    (List.length (List.sort_uniq Int.compare here));
  let t = Hop_trace.create () and clock = Float.Array.make 1 0.0 in
  Control.with_enabled (fun () ->
      List.iteri
        (fun uid code -> Hop_trace.record_code t ~uid ~clock ~node:0 code)
        here);
  Alcotest.(check (list string)) "codes decode to their labels" labels
    (List.map (fun (e : Hop_trace.event) -> e.Hop_trace.label)
       (Hop_trace.recent t 100))

(* --- Registry ---------------------------------------------------------- *)

let test_registry_get_or_create () =
  let a = Registry.counter "x.count" in
  let b = Registry.counter "x.count" in
  Control.with_enabled (fun () -> Counter.incr a);
  Alcotest.(check int) "same handle" 1 (Counter.value b);
  Alcotest.(check int) "counter_value" 1 (Registry.counter_value "x.count");
  Alcotest.(check int) "absent name reads 0" 0
    (Registry.counter_value "nope");
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Registry: x.count already registered as a counter")
    (fun () -> ignore (Registry.gauge "x.count"))

let test_registry_reset_keeps_registrations () =
  let c = Registry.counter "y.count" in
  let h = Registry.histogram "y.hist" in
  Control.with_enabled (fun () ->
      Counter.incr c;
      Histogram.observe h 1.0;
      Hop_trace.record (Registry.trace ()) ~uid:9 ~time:1.0 ~node:0 "rx");
  Registry.reset ();
  Alcotest.(check int) "counter zeroed" 0 (Counter.value c);
  Alcotest.(check int) "histogram zeroed" 0 (Histogram.count h);
  Alcotest.(check (list int)) "trace cleared" []
    (List.map (fun (e : Hop_trace.event) -> e.Hop_trace.uid)
       (Hop_trace.recent (Registry.trace ()) 10));
  Alcotest.(check bool) "registration survives" true
    (Registry.find_counter "y.count" <> None)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i =
    i + n <= h && (String.sub haystack i n = needle || go (i + 1))
  in
  n = 0 || go 0

let test_registry_json () =
  let c = Registry.counter "z.count" in
  let h = Registry.histogram "z.hist" in
  Control.with_enabled (fun () ->
      Counter.add c 3;
      Histogram.observe h 2.0;
      Hop_trace.record (Registry.trace ()) ~uid:7 ~time:1.5 ~node:4 "tx");
  let json = Json.to_string (Registry.to_json ()) in
  Alcotest.(check bool) "counter serialized" true
    (contains ~needle:"\"z.count\":3" json);
  Alcotest.(check bool) "histogram serialized" true
    (contains ~needle:"\"z.hist\":{\"count\":1" json);
  Alcotest.(check bool) "trace serialized" true
    (contains ~needle:"\"uid\":7" json);
  Alcotest.(check bool) "trace label serialized" true
    (contains ~needle:"\"event\":\"tx\"" json)

(* --- Histogram edge cases ---------------------------------------------- *)

let test_histogram_empty () =
  let h = Histogram.make () in
  Alcotest.(check int) "count" 0 (Histogram.count h);
  Alcotest.(check (float 1e-12)) "mean" 0.0 (Histogram.mean h);
  Alcotest.(check (float 1e-12)) "min" 0.0 (Histogram.min_value h);
  Alcotest.(check (float 1e-12)) "max" 0.0 (Histogram.max_value h);
  List.iter
    (fun q ->
       Alcotest.(check (float 1e-12))
         (Printf.sprintf "q%.2f of empty" q)
         0.0 (Histogram.quantile h q))
    [0.0; 0.5; 0.99; 1.0];
  Alcotest.check_raises "fraction above 1"
    (Invalid_argument "Histogram.quantile: fraction outside [0, 1]")
    (fun () -> ignore (Histogram.quantile h 1.5))

let test_histogram_single_sample () =
  let h = Histogram.make () in
  Control.with_enabled (fun () -> Histogram.observe h 0.0042);
  (* Every quantile of a point mass is the point: interpolation inside
     the bucket must clamp to the observed extrema. *)
  List.iter
    (fun q ->
       Alcotest.(check (float 1e-12))
         (Printf.sprintf "q%.2f" q)
         0.0042 (Histogram.quantile h q))
    [0.0; 0.5; 0.9; 0.99; 1.0];
  Alcotest.(check (float 1e-12)) "min" 0.0042 (Histogram.min_value h);
  Alcotest.(check (float 1e-12)) "max" 0.0042 (Histogram.max_value h)

let test_histogram_one_bucket () =
  (* A single-bucket histogram degenerates gracefully: everything lands
     in bucket 0 and quantiles stay within [min, max]. *)
  let h = Histogram.make ~buckets:1 () in
  Control.with_enabled (fun () ->
      List.iter (Histogram.observe h) [0.001; 5.0; 123.0]);
  Alcotest.(check int) "count" 3 (Histogram.count h);
  let p50 = Histogram.p50 h and p99 = Histogram.p99 h in
  Alcotest.(check bool)
    (Printf.sprintf "p50 %.6g within extrema" p50)
    true (p50 >= 0.001 && p50 <= 123.0);
  Alcotest.(check bool)
    (Printf.sprintf "p99 %.6g within extrema" p99)
    true (p99 >= 0.001 && p99 <= 123.0)

let test_histogram_quantile_clamped () =
  (* Two far-apart samples: bucket interpolation could stray outside
     the observed range; quantiles must clamp to [vmin, vmax]. *)
  let h = Histogram.make () in
  Control.with_enabled (fun () ->
      Histogram.observe h 1.0;
      Histogram.observe h 1.0000001);
  List.iter
    (fun q ->
       let v = Histogram.quantile h q in
       Alcotest.(check bool)
         (Printf.sprintf "q%.2f = %.9g clamped" q v)
         true (v >= 1.0 && v <= 1.0000001))
    [0.0; 0.01; 0.5; 0.99; 1.0];
  (* Below-range values clamp into bucket 0 without breaking extrema. *)
  let low = Histogram.make ~lo:1e-3 () in
  Control.with_enabled (fun () -> Histogram.observe low 1e-9);
  Alcotest.(check (float 1e-15)) "sub-lo sample reported exactly" 1e-9
    (Histogram.p50 low)

let test_histogram_observe_int_gated () =
  let h = Histogram.make () in
  Histogram.observe_int h 7;
  Alcotest.(check int) "no-op while disabled" 0 (Histogram.count h);
  Control.with_enabled (fun () -> Histogram.observe_int h 7);
  Alcotest.(check int) "counts while enabled" 1 (Histogram.count h);
  Alcotest.(check (float 1e-12)) "value" 7.0 (Histogram.max_value h)

(* --- Event log --------------------------------------------------------- *)

let test_event_log_gated_and_wraps () =
  let l = Event_log.create ~capacity:4 () in
  Event_log.record l ~time:0.0 (Event_log.Note "ignored");
  Alcotest.(check int) "no-op while disabled" 0 (Event_log.recorded l);
  Control.with_enabled (fun () ->
      for i = 1 to 6 do
        Event_log.record l ~time:(float_of_int i)
          (Event_log.Note (Printf.sprintf "n%d" i))
      done);
  Alcotest.(check int) "all recorded" 6 (Event_log.recorded l);
  let entries = Event_log.entries l in
  Alcotest.(check int) "ring keeps capacity" 4 (List.length entries);
  Alcotest.(check (list int)) "oldest evicted, seq monotonic"
    [2; 3; 4; 5]
    (List.map (fun (e : Event_log.entry) -> e.Event_log.seq) entries);
  Alcotest.(check int) "recent 2" 2 (List.length (Event_log.recent l 2));
  Event_log.clear l;
  Alcotest.(check int) "cleared" 0 (List.length (Event_log.entries l))

let test_event_log_kinds_and_clock () =
  let l = Event_log.create () in
  Event_log.set_clock l (fun () -> 42.0);
  Control.with_enabled (fun () ->
      Event_log.record l
        (Event_log.Slo_violation
           { vpn = 1; band = 0; dimension = "loss"; value = 0.5; bound = 0.01 });
      Event_log.record l (Event_log.Link_down { src = 0; dst = 1 });
      Event_log.record l (Event_log.Link_up { src = 0; dst = 1 });
      Event_log.record l (Event_log.Recompile { node = 3 }));
  Alcotest.(check int) "one violation" 1
    (Event_log.count_kind l "slo_violation");
  Alcotest.(check int) "no recoveries" 0
    (Event_log.count_kind l "slo_recovered");
  (match Event_log.entries l with
   | e :: _ ->
     Alcotest.(check (float 1e-9)) "clock supplied time" 42.0
       e.Event_log.time;
     Alcotest.(check string) "kind tag" "slo_violation"
       (Event_log.kind e.Event_log.event)
   | [] -> Alcotest.fail "entries expected");
  let json = Json.to_string (Event_log.json_entries l) in
  Alcotest.(check bool) "json has kinds" true
    (contains ~needle:"\"kind\":\"link_down\"" json
     && contains ~needle:"\"kind\":\"recompile\"" json)

(* --- Span -------------------------------------------------------------- *)

let hop ~uid ~time ~node label = { Hop_trace.uid; time; node; label }

let test_span_of_trace_delivered () =
  let events =
    [ hop ~uid:7 ~time:0.000 ~node:0 "rx";
      hop ~uid:7 ~time:0.001 ~node:0 "tx";
      hop ~uid:7 ~time:0.003 ~node:0 "txstart";
      hop ~uid:7 ~time:0.007 ~node:1 "rx";
      hop ~uid:7 ~time:0.008 ~node:1 "deliver" ]
  in
  match Span.of_trace ~vpn:1 ~band:0 events with
  | None -> Alcotest.fail "span expected"
  | Some s ->
    Alcotest.(check int) "uid" 7 s.Span.uid;
    Alcotest.(check string) "outcome" "delivered"
      (Span.outcome_name s.Span.outcome);
    Alcotest.(check int) "four segments" 4 (List.length s.Span.segments);
    Alcotest.(check (list string)) "stage sequence"
      ["processing"; "queueing"; "transmission"; "delivery"]
      (List.map (fun (g : Span.segment) -> Span.kind_name g.Span.kind)
         s.Span.segments);
    Alcotest.(check (float 1e-12)) "processing dwell" 0.001
      (Span.dwell_of_kind s Span.Processing);
    Alcotest.(check (float 1e-12)) "queueing dwell" 0.002
      (Span.dwell_of_kind s Span.Queueing);
    Alcotest.(check (float 1e-12)) "transmission dwell" 0.004
      (Span.dwell_of_kind s Span.Transmission);
    (* Contiguous segments: dwells account for every microsecond. *)
    let dwell_sum =
      List.fold_left (fun a (g : Span.segment) -> a +. g.Span.dwell) 0.0
        s.Span.segments
    in
    Alcotest.(check (float 1e-12)) "dwells sum to end-to-end" (Span.total s)
      dwell_sum;
    Alcotest.(check (float 1e-12)) "total" 0.008 (Span.total s)

let test_span_of_trace_dropped () =
  let events =
    [ hop ~uid:9 ~time:0.0 ~node:0 "rx";
      hop ~uid:9 ~time:0.001 ~node:0 "tx";
      hop ~uid:9 ~time:0.001 ~node:0 "drop:queue-tail" ]
  in
  (match Span.of_trace events with
   | None -> Alcotest.fail "span expected"
   | Some s ->
     (match s.Span.outcome with
      | Span.Dropped reason ->
        Alcotest.(check string) "reason" "queue-tail" reason
      | _ -> Alcotest.fail "dropped outcome expected"));
  Alcotest.(check bool) "empty trace yields none" true
    (Span.of_trace [] = None)

let test_span_sampler () =
  let trace = Registry.trace () in
  let s = Span.sampler () in
  let feed ~uid ~dropped =
    Control.with_enabled (fun () ->
        Hop_trace.record trace ~uid ~time:0.0 ~node:0 "rx";
        Hop_trace.record trace ~uid ~time:0.001 ~node:0
          (if dropped then "drop:no-route" else "deliver");
        Span.offer s trace ~uid ~vpn:1 ~band:0 ~dropped)
  in
  (* Disabled: offers are invisible. *)
  Span.offer s trace ~uid:99 ~vpn:1 ~band:0 ~dropped:false;
  Alcotest.(check int) "no-op while disabled" 0 (Span.offered s);
  for uid = 1 to 65 do
    feed ~uid ~dropped:false
  done;
  (* 1 in 64: uids 1 and 65 kept (first of a key always), 2-64
     skipped. *)
  Alcotest.(check (list int)) "1-in-64 deliveries kept" [1; 65]
    (List.map (fun (sp : Span.t) -> sp.Span.uid) (Span.delivered_spans s));
  feed ~uid:66 ~dropped:true;
  Alcotest.(check (list int)) "drops always kept" [66]
    (List.map (fun (sp : Span.t) -> sp.Span.uid) (Span.dropped_spans s));
  Alcotest.(check int) "offered" 66 (Span.offered s);
  Alcotest.(check int) "kept" 3 (Span.kept s);
  Alcotest.(check bool) "json is a non-empty array" true
    (match Span.sampler_to_json s with
     | Json.List (_ :: _) -> true
     | _ -> false);
  Span.clear s;
  Alcotest.(check int) "cleared" 0 (Span.kept s)

(* A warmed offer allocates nothing: the (vpn, band) counter is found
   without an option box, and a sampled packet whose events have left
   the ring builds no span. 1,000 offers on one key include 16 sampled
   ones. *)
let test_span_offer_allocates_nothing () =
  let trace = Hop_trace.create () in
  let s = Span.sampler () in
  Control.with_enabled (fun () ->
      for uid = 1 to 100 do
        Hop_trace.record trace ~uid ~time:0.0 ~node:0 "rx"
      done;
      Span.offer s trace ~uid:0 ~vpn:1 ~band:0 ~dropped:false;
      let w0 = Gc.minor_words () in
      for uid = 1001 to 2000 do
        Span.offer s trace ~uid ~vpn:1 ~band:0 ~dropped:false
      done;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) "minor words over 1,000 offers" 0.0 dw);
  Alcotest.(check int) "offered" 1001 (Span.offered s);
  Alcotest.(check int) "nothing to keep" 0 (Span.kept s)

(* --- SLO --------------------------------------------------------------- *)

let test_slo_spec_validation () =
  Alcotest.check_raises "target must be a fraction"
    (Invalid_argument "Slo.spec: target must be in (0, 1)")
    (fun () -> ignore (Slo.spec 1.0))

let test_slo_good_traffic_stays_in_budget () =
  let events = Event_log.create () in
  let t = Slo.create ~events () in
  Slo.declare t ~vpn:1 ~band:0
    (Slo.spec ~latency_p99:0.1 ~loss_ratio:0.01 ~availability:0.9 0.99);
  Control.with_enabled (fun () ->
      for i = 0 to 99 do
        Slo.observe_delivery t ~vpn:1 ~band:0
          ~time:(0.1 *. float_of_int i) ~latency:0.002
      done;
      Slo.advance t ~time:20.0);
  Alcotest.(check bool) "in budget" true (Slo.in_budget t);
  Alcotest.(check int) "no violations" 0
    (Event_log.count_kind events "slo_violation");
  (match Slo.reports t with
   | [r] ->
     Alcotest.(check int) "total" 100 r.Slo.total;
     Alcotest.(check int) "bad" 0 r.Slo.bad;
     Alcotest.(check (float 1e-9)) "budget untouched" 1.0
       r.Slo.budget_remaining;
     Alcotest.(check bool) "available" true (r.Slo.availability >= 0.9)
   | rs -> Alcotest.fail (Printf.sprintf "one report, got %d" (List.length rs)))

let test_slo_violation_recovery_and_alert () =
  let events = Event_log.create () in
  let t = Slo.create ~events () in
  Slo.declare t ~vpn:1 ~band:0
    (Slo.spec ~latency_p99:0.1 ~loss_ratio:0.01 ~availability:0.9 0.99);
  Control.with_enabled (fun () ->
      (* 10 s of healthy traffic... *)
      for i = 0 to 99 do
        Slo.observe_delivery t ~vpn:1 ~band:0
          ~time:(0.1 *. float_of_int i) ~latency:0.002
      done;
      (* ...then a 5 s blackout: every packet dropped. *)
      for i = 0 to 49 do
        Slo.observe_drop t ~vpn:1 ~band:0
          ~time:(10.0 +. (0.1 *. float_of_int i))
      done;
      Slo.advance t ~time:16.0);
  Alcotest.(check bool) "loss violation fired" true
    (Event_log.count_kind events "slo_violation" >= 1);
  Alcotest.(check bool) "burn-rate alert fired" true
    (Event_log.count_kind events "alert_fire" >= 1);
  Alcotest.(check bool) "out of budget" false (Slo.in_budget t);
  (match Slo.reports t with
   | [r] ->
     Alcotest.(check bool) "burn fast over threshold" true
       (r.Slo.burn_fast >= 2.0);
     Alcotest.(check bool) "violations listed" true
       (List.mem "loss" r.Slo.violations)
   | _ -> Alcotest.fail "one report expected");
  (* Repair: healthy traffic long enough for the blackout to age out
     of the 60 s slow window; violations clear, the alert clears. *)
  Control.with_enabled (fun () ->
      for i = 0 to 659 do
        Slo.observe_delivery t ~vpn:1 ~band:0
          ~time:(16.0 +. (0.1 *. float_of_int i)) ~latency:0.002
      done;
      Slo.advance t ~time:85.0);
  Alcotest.(check bool) "recovery fired" true
    (Event_log.count_kind events "slo_recovered" >= 1);
  Alcotest.(check bool) "alert cleared" true
    (Event_log.count_kind events "alert_clear" >= 1);
  (match Slo.reports t with
   | [r] -> Alcotest.(check bool) "no live violations" true
              (r.Slo.violations = [] && not r.Slo.alerting)
   | _ -> Alcotest.fail "one report expected")

let test_slo_gated_and_json () =
  let events = Event_log.create () in
  let t = Slo.create ~events () in
  Slo.declare t ~vpn:2 ~band:1 (Slo.spec ~loss_ratio:0.1 0.9);
  (* Disabled: observations vanish. *)
  Slo.observe_delivery t ~vpn:2 ~band:1 ~time:0.5 ~latency:0.001;
  Slo.observe_drop t ~vpn:2 ~band:1 ~time:0.6;
  (match Slo.reports t with
   | [r] -> Alcotest.(check int) "no-op while disabled" 0 r.Slo.total
   | _ -> Alcotest.fail "one report expected");
  Control.with_enabled (fun () ->
      Slo.observe_delivery t ~vpn:2 ~band:1 ~time:0.5 ~latency:0.001;
      Slo.advance t ~time:5.0);
  let json = Json.to_string (Slo.to_json t) in
  Alcotest.(check bool) "json carries the key" true
    (contains ~needle:"\"vpn\":2" json && contains ~needle:"\"band\":1" json);
  Control.with_enabled (fun () -> Slo.publish_gauges ~prefix:"t.slo" t);
  Alcotest.(check bool) "gauge mirrors in_budget" true
    (match Registry.find_gauge "t.slo.vpn2.band1.in_budget" with
     | Some g -> Gauge.value g = 1.0
     | None -> false)

(* An engine with a private event log keeps its transitions out of the
   global slo.* counters, which count what the global log records; a
   default engine books them there. *)
let test_slo_private_engine_uncounted () =
  let blackout t =
    Slo.declare t ~vpn:1 ~band:0 (Slo.spec ~loss_ratio:0.01 0.99);
    Control.with_enabled (fun () ->
        for i = 0 to 49 do
          Slo.observe_drop t ~vpn:1 ~band:0 ~time:(0.1 *. float_of_int i)
        done;
        Slo.advance t ~time:6.0)
  in
  let violations () = Registry.counter_value "slo.violation" in
  let alerts () = Registry.counter_value "slo.alert_fire" in
  let v0 = violations () and a0 = alerts () in
  let events = Event_log.create () in
  blackout (Slo.create ~events ());
  Alcotest.(check bool) "private log records the violation" true
    (Event_log.count_kind events "slo_violation" >= 1
     && Event_log.count_kind events "alert_fire" >= 1);
  Alcotest.(check int) "violation counter unchanged" v0 (violations ());
  Alcotest.(check int) "alert counter unchanged" a0 (alerts ());
  blackout (Slo.create ());
  Alcotest.(check bool) "a default engine counts its violation" true
    (violations () > v0 && alerts () > a0)

(* --- Registry scope ------------------------------------------------------ *)

(* A scope starts from zeroed cells and empty rings, returns what it
   measured, and leaves outer + scope behind for every metric kind:
   counters and gauges add, histograms merge, series merge by time.
   The rings keep the scope's entries only. Scopes nest, and an
   exception still folds the outer values back. *)
let test_registry_scoped () =
  let c = Registry.counter "sc.count" in
  let g = Registry.gauge "sc.gauge" in
  let h = Registry.histogram "sc.hist" in
  let s = Registry.series ~capacity:8 "sc.series" in
  let log = Registry.events () and trace = Registry.trace () in
  let notes () =
    List.map
      (fun (e : Event_log.entry) ->
         match e.Event_log.event with
         | Event_log.Note n -> n
         | _ -> "?")
      (Event_log.entries log)
  in
  let hops () =
    List.map (fun (e : Hop_trace.event) -> e.Hop_trace.label)
      (Hop_trace.recent trace 8)
  in
  Control.with_enabled (fun () ->
      Counter.add c 5;
      Gauge.set g 2.5;
      Histogram.observe h 1.0;
      Timeseries.add s ~time:0.0 1.0;
      Event_log.record log ~time:0.0 (Event_log.Note "outer");
      Hop_trace.record trace ~uid:1 ~time:0.0 ~node:0 "outer");
  let at_entry, snap =
    Registry.scoped (fun () ->
        let at_entry =
          ( Counter.value c, Gauge.value g, Histogram.count h,
            Timeseries.length s, Event_log.recorded log,
            Hop_trace.recorded trace )
        in
        let (), nested =
          Registry.scoped (fun () ->
              Control.with_enabled (fun () ->
                  Counter.add c 1000;
                  Event_log.record log ~time:0.5 (Event_log.Note "nested")))
        in
        Alcotest.(check int) "nested scope measured itself" 1000
          (Registry.snapshot_counter nested "sc.count");
        Alcotest.(check int) "nested scope folded into the outer one" 1000
          (Counter.value c);
        Control.with_enabled (fun () ->
            Counter.add c 100;
            Gauge.set g 9.5;
            Histogram.observe h 50.0;
            Timeseries.add s ~time:0.0 2.0;
            Timeseries.add s ~time:1.0 3.0;
            Gauge.set (Registry.gauge "sc.fresh") 7.0;
            Event_log.record log ~time:1.0 (Event_log.Note "inner");
            Hop_trace.record trace ~uid:2 ~time:1.0 ~node:0 "inner");
        at_entry)
  in
  Alcotest.(check bool) "zeroed cells and empty rings at entry" true
    (at_entry = (0, 0.0, 0, 0, 0, 0));
  Alcotest.(check int) "the scope's own counter" 1100
    (Registry.snapshot_counter snap "sc.count");
  Alcotest.(check int) "counter: outer + scope" 1105 (Counter.value c);
  Alcotest.(check (float 1e-9)) "gauge: outer + scope" 12.0 (Gauge.value g);
  Alcotest.(check int) "histogram count: outer + scope" 2
    (Histogram.count h);
  Alcotest.(check (float 1e-9)) "histogram sum: outer + scope" 51.0
    (Histogram.sum h);
  Alcotest.(check (float 1e-9)) "histogram min widened" 1.0
    (Histogram.min_value h);
  Alcotest.(check bool) "series: merged by time" true
    (Timeseries.samples s = [| (0.0, 3.0); (1.0, 3.0) |]);
  Alcotest.(check (float 1e-9)) "first registered inside keeps its value"
    7.0 (Gauge.value (Registry.gauge "sc.fresh"));
  Alcotest.(check (list string)) "event log: the scope's entries only"
    [ "nested"; "inner" ] (notes ());
  Alcotest.(check (list string)) "hop trace: the scope's entries only"
    [ "inner" ] (hops ());
  (match
     Registry.scoped (fun () ->
         Control.with_enabled (fun () -> Counter.add c 1);
         failwith "boom")
   with
   | _ -> Alcotest.fail "the scope swallowed an exception"
   | exception Failure _ -> ());
  Alcotest.(check int) "an exception still folds the outer values back"
    1106 (Counter.value c)

(* An empty scope costs what the table holds, not a closure per lookup:
   with 256 metrics holding values (about a full E16 run's table) it
   allocates under 4k minor words — the pre-scope snapshot, the fold
   back, and an inner snapshot of only the gauges, since zero counters
   and empty histograms are left out. *)
let test_registry_empty_scope_is_cheap () =
  let cs =
    Array.init 244 (fun i ->
        Registry.counter (Printf.sprintf "scope-cost.c%d" i))
  in
  let gs =
    Array.init 8 (fun i -> Registry.gauge (Printf.sprintf "scope-cost.g%d" i))
  in
  let hs =
    Array.init 4 (fun i ->
        Registry.histogram (Printf.sprintf "scope-cost.h%d" i))
  in
  Control.with_enabled (fun () ->
      Array.iteri (fun i c -> Counter.add c (i + 1)) cs;
      Array.iteri (fun i g -> Gauge.set g (float_of_int (i + 1))) gs;
      Array.iter (fun h -> Histogram.observe h 1e-3) hs);
  let (), _ = Registry.scoped ignore in
  let w0 = Gc.minor_words () in
  let (), inner = Registry.scoped ignore in
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f minor words for an empty scope" dw)
    true (dw < 4000.0);
  Alcotest.(check int) "the empty scope measured nothing" 0
    (Registry.snapshot_counter inner "scope-cost.c0");
  Alcotest.(check int) "values folded back" 244 (Counter.value cs.(243));
  Alcotest.(check int) "histograms folded back" 1 (Histogram.count hs.(0))

(* Two domains bumping one counter handle concurrently must not lose a
   single increment: each domain's bumps land in its own domain-local
   cell, and the partials combine through snapshot (taken inside the
   owning domain) + absorb. A plain shared [mutable int] would lose
   increments to read-modify-write races here. *)
let test_counter_two_domains () =
  let c = Registry.counter "par.shared" in
  let bumps = 100_000 in
  Control.enable ();
  let worker () =
    (* Fresh domain: its cell starts at 0 regardless of main's. *)
    for _ = 1 to bumps do
      Counter.incr c
    done;
    Registry.snapshot ()
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  for _ = 1 to bumps do
    Counter.incr c
  done;
  let s1 = Domain.join d1 and s2 = Domain.join d2 in
  Alcotest.(check int) "domain partial" bumps
    (Registry.snapshot_counter s1 "par.shared");
  Registry.absorb s1;
  Registry.absorb s2;
  Alcotest.(check int) "no lost increments" (3 * bumps) (Counter.value c)

(* A Counter and a Histogram shared by two domains that take turns, as
   a cut link's two shards do: after each domain's first touch (which
   builds its cells), a switch finds the caller's existing cell in its
   domain-local storage and allocates nothing. An atomic hands the
   turn over, so every bump follows the other domain's. *)
let test_domain_switch_allocates_nothing () =
  let c = Counter.make () and h = Histogram.make () in
  let turns = 200 in
  let turn = Atomic.make 0 in  (* even: the main domain's turn *)
  Control.enable ();
  let play parity =
    let words = ref 0.0 in
    for k = 0 to turns - 1 do
      while Atomic.get turn land 1 <> parity do
        Domain.cpu_relax ()
      done;
      let w0 = Gc.minor_words () in
      Counter.incr c;
      Histogram.observe h 1e-3;
      let dw = Gc.minor_words () -. w0 in
      if k > 0 then words := !words +. dw;
      Atomic.incr turn
    done;
    !words
  in
  let d =
    Domain.spawn (fun () ->
        let w = play 1 in
        (w, Counter.value c, Histogram.count h))
  in
  let w_main = play 0 in
  let w_worker, n_worker, hn_worker = Domain.join d in
  Alcotest.(check (float 0.0)) "main domain: words over its switches" 0.0
    w_main;
  Alcotest.(check (float 0.0)) "worker domain: words over its switches" 0.0
    w_worker;
  Alcotest.(check (pair int int)) "main partials" (turns, turns)
    (Counter.value c, Histogram.count h);
  Alcotest.(check (pair int int)) "worker partials" (turns, turns)
    (n_worker, hn_worker)

(* --- Timeseries --------------------------------------------------------- *)

let test_series_gated () =
  let s = Timeseries.make ~capacity:8 "ts.gated" in
  Timeseries.add s ~time:0.0 1.0;
  Alcotest.(check int) "no-op while disabled" 0 (Timeseries.length s);
  Control.with_enabled (fun () -> Timeseries.add s ~time:1.0 2.0);
  Alcotest.(check int) "records while enabled" 1 (Timeseries.length s);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "the sample" (1.0, 2.0)
    (Timeseries.get s 0)

(* Two samplers on one instant (or a tick that records twice) keep
   both samples, in arrival order. *)
let test_series_equal_times () =
  let s = Timeseries.make ~capacity:8 "ts.equal" in
  Control.with_enabled (fun () ->
      Timeseries.add s ~time:1.0 1.0;
      Timeseries.add s ~time:1.0 2.0);
  Alcotest.(check int) "both kept" 2 (Timeseries.length s);
  Alcotest.(check (pair (float 1e-9) (float 1e-9))) "last" (1.0, 2.0)
    (Timeseries.get s 1)

let test_series_decimation () =
  (* 100 arrivals through a ring of 8: the ring decimates by powers of
     two, and what survives is exactly the arrivals at multiples of the
     final stride — a pure function of the arrival sequence, never a
     function of when the overflows happened. *)
  let cap = 8 in
  let s = Timeseries.make ~capacity:cap "ts.decim" in
  Control.with_enabled (fun () ->
      for i = 0 to 99 do
        Timeseries.add s ~time:(float_of_int i)
          (float_of_int (i * i))
      done);
  Alcotest.(check bool) "bounded by capacity" true
    (Timeseries.length s <= cap && Timeseries.length s > 0);
  let stride = 1 lsl Timeseries.level s in
  Alcotest.(check bool) "decimated at least once" true (stride > 1);
  let prev = ref neg_infinity in
  Timeseries.iter s (fun t v ->
      let i = int_of_float t in
      Alcotest.(check int) "kept arrival is a stride multiple" 0
        (i mod stride);
      Alcotest.(check (float 1e-9)) "value untouched by decimation"
        (float_of_int (i * i)) v;
      Alcotest.(check bool) "times strictly increasing" true (t > !prev);
      prev := t);
  Alcotest.(check (float 1e-9)) "origin survives" 0.0
    (fst (Timeseries.get s 0))

(* Satellite of the shard-merge contract: two domains record
   interleaved schedules into the same series handle (each lands in its
   own domain-local ring); absorbing the snapshots in either order
   yields the identical merged series, with values summed at equal
   sample times. *)
let test_series_absorb_two_domains () =
  let s = Registry.series ~capacity:64 "ts.par" in
  Control.enable ();
  (* offset 0 samples even seconds, offset 1 odd seconds; both sample
     the shared times 100..104 with different values. *)
  let worker offset () =
    for i = 0 to 9 do
      Timeseries.add s ~time:(float_of_int ((2 * i) + offset)) 1.0
    done;
    for i = 0 to 4 do
      Timeseries.add s ~time:(float_of_int (100 + i))
        (float_of_int (offset + 1))
    done;
    Registry.snapshot ()
  in
  let d1 = Domain.spawn (worker 0) and d2 = Domain.spawn (worker 1) in
  let s1 = Domain.join d1 and s2 = Domain.join d2 in
  Registry.absorb s1;
  Registry.absorb s2;
  let ab = Timeseries.samples s in
  Timeseries.reset s;
  Registry.absorb s2;
  Registry.absorb s1;
  let ba = Timeseries.samples s in
  Alcotest.(check bool) "absorb order is irrelevant" true (ab = ba);
  Alcotest.(check int) "union of distinct times plus shared times" 25
    (Array.length ab);
  let at time =
    match Array.find_opt (fun (t, _) -> t = time) ab with
    | Some (_, v) -> v
    | None -> Alcotest.failf "no sample at %g" time
  in
  Alcotest.(check (float 1e-9)) "disjoint time kept as-is" 1.0 (at 7.0);
  Alcotest.(check (float 1e-9)) "equal times merge by sum" 3.0 (at 102.0)

(* --- Exact JSON bytes ------------------------------------------------- *)

(* Every dump is diffed byte-for-byte across commits and shard counts,
   so the exporters' exact output is pinned here, not just sampled with
   [contains]. *)

let pin_events =
  let open Event_log in
  [ Slo_violation
      { vpn = 1; band = 0; dimension = "loss"; value = 0.5; bound = 0.01 };
    Slo_recovered
      { vpn = 2; band = 3; dimension = "latency"; value = 0.0123456789123;
        bound = 0.05 };
    Alert_fire { vpn = 1; band = 1; burn_fast = 14.4; burn_slow = Float.nan };
    Alert_clear { vpn = 1; band = 1; burn_fast = Float.infinity };
    Link_down { src = 0; dst = 1 };
    Link_up { src = 1; dst = 0 };
    Recompile { node = 3 };
    Fault_injected { fault = "loss_burst"; a = 2; b = 5; param = 0.25 };
    Frr_switchover { src = 4; dst = 5 };
    Fallback_engaged { ingress = 6; egress = 7 };
    Lsp_restored { ingress = 7; egress = 6 };
    Flap_damped { src = 1; dst = 2; flaps = 3 };
    Flap_released { src = 1; dst = 2 };
    Resignal { attempt = 2; restored = 1; still_down = 0 };
    Invariant_violated
      { invariant = "conservation"; detail = "a \"b\" \\ c\nd\te" };
    Note "say \"hi\"\\\n" ]

let test_event_log_json_bytes () =
  let expected =
    [ {|{"seq":0,"time":1e-07,"kind":"slo_violation","vpn":1,"band":0,"dimension":"loss","value":0.5,"bound":0.01}|};
      {|{"seq":1,"time":0.2500001,"kind":"slo_recovered","vpn":2,"band":3,"dimension":"latency","value":0.0123456789,"bound":0.05}|};
      {|{"seq":2,"time":0.5000001,"kind":"alert_fire","vpn":1,"band":1,"burn_fast":14.4,"burn_slow":0}|};
      {|{"seq":3,"time":0.7500001,"kind":"alert_clear","vpn":1,"band":1,"burn_fast":0}|};
      {|{"seq":4,"time":1.0000001,"kind":"link_down","src":0,"dst":1}|};
      {|{"seq":5,"time":1.2500001,"kind":"link_up","src":1,"dst":0}|};
      {|{"seq":6,"time":1.5000001,"kind":"recompile","node":3}|};
      {|{"seq":7,"time":1.7500001,"kind":"fault_injected","fault":"loss_burst","a":2,"b":5,"param":0.25}|};
      {|{"seq":8,"time":2.0000001,"kind":"frr_switchover","src":4,"dst":5}|};
      {|{"seq":9,"time":2.2500001,"kind":"fallback_engaged","ingress":6,"egress":7}|};
      {|{"seq":10,"time":2.5000001,"kind":"lsp_restored","ingress":7,"egress":6}|};
      {|{"seq":11,"time":2.7500001,"kind":"flap_damped","src":1,"dst":2,"flaps":3}|};
      {|{"seq":12,"time":3.0000001,"kind":"flap_released","src":1,"dst":2}|};
      {|{"seq":13,"time":3.2500001,"kind":"resignal","attempt":2,"restored":1,"still_down":0}|};
      {|{"seq":14,"time":3.5000001,"kind":"invariant_violated","invariant":"conservation","detail":"a \"b\" \\ c\nd\u0009e"}|};
      {|{"seq":15,"time":3.7500001,"kind":"note","text":"say \"hi\"\\\n"}|} ]
  in
  List.iteri
    (fun i (ev, want) ->
       let e =
         { Event_log.seq = i; time = 1e-7 +. (float_of_int i *. 0.25);
           event = ev }
       in
       Alcotest.(check string) (Event_log.kind ev) want
         (Json.to_string (Event_log.entry_to_json e)))
    (List.combine pin_events expected)

let test_slo_report_json_bytes () =
  let r =
    { Slo.vpn = 3; band = 1; target = 0.999; total = 1000; bad = 2;
      drops = 1; budget_allowed = 1.0000000000000009; budget_spent = 2.0;
      budget_remaining = 0.0; latency_p99 = 0.0125; loss_ratio = 0.001;
      availability = Float.nan; burn_fast = 2.5; burn_slow = 1.25;
      violations = ["loss"; "latency"]; alerting = true; in_budget = false }
  in
  Alcotest.(check string) "report"
    {|{"vpn":3,"band":1,"target":0.999,"total":1000,"bad":2,"drops":1,"budget_allowed":1,"budget_spent":2,"budget_remaining":0,"latency_p99":0.0125,"loss_ratio":0.001,"availability":0,"burn_fast":2.5,"burn_slow":1.25,"violations":["loss","latency"],"alerting":true,"in_budget":false}|}
    (Json.to_string (Slo.report_to_json r))

let test_span_json_bytes () =
  let seg node next_node kind start_time dwell =
    { Span.node; next_node; kind; start_time; dwell; from_label = "rx";
      to_label = "tx" }
  in
  let sp =
    { Span.uid = 7; vpn = 1; band = 0; start_time = 0.0; end_time = 0.008;
      outcome = Span.Dropped "ttl";
      segments =
        [ seg 0 0 Span.Processing 0.0 0.001;
          seg 0 0 Span.Queueing 0.001 0.002;
          seg 0 1 Span.Transmission 0.003 0.004;
          seg 1 1 Span.Other 0.007 0.001 ] }
  in
  Alcotest.(check string) "span"
    {|{"uid":7,"vpn":1,"band":0,"start":0,"end":0.008,"outcome":"dropped:ttl","segments":[{"node":0,"next_node":0,"kind":"processing","start":0,"dwell":0.001},{"node":0,"next_node":0,"kind":"queueing","start":0.001,"dwell":0.002},{"node":0,"next_node":1,"kind":"transmission","start":0.003,"dwell":0.004},{"node":1,"next_node":1,"kind":"other","start":0.007,"dwell":0.001}]}|}
    (Json.to_string (Span.to_json sp))

(* --- allocation-free recording ------------------------------------------ *)

(* The reference: [bucket_index] by [Float.frexp]. It is exact wherever
   [v /. lo] is finite; a ratio that overflows (v = +inf, or v above
   max_float·lo) gets frexp's exponent 0, which would file it in
   bucket 0, so the property expects the top bucket there instead. *)
let frexp_bucket ~lo ~buckets v =
  if v < lo then 0
  else begin
    let _, e = Float.frexp (v /. lo) in
    Int.min (buckets - 1) (Int.max 0 (e - 1))
  end

let bucket_index_matches_frexp =
  let open QCheck.Gen in
  let lo = oneof [ return 1e-9; return 1.0; float_range 1e-12 1e3 ] in
  (* Raw bit patterns cover the whole line; lo·2^k·m puts most values
     at and around the bucket edges above [lo]. *)
  let value lo =
    frequency
      [ (1, map Int64.float_of_bits ui64);
        (3,
         map2
           (fun k m -> Float.ldexp (lo *. m) k)
           (int_range (-4) 140) (float_range 1.0 2.0));
        (1, map (fun k -> Float.ldexp lo k) (int_range (-2) 1100)) ]
  in
  let case =
    triple lo (int_range 1 128) (return ()) >>= fun (lo, buckets, ()) ->
    map (fun v -> (lo, buckets, v)) (value lo)
  in
  QCheck.Test.make ~name:"bucket_index matches the frexp formulation"
    ~count:5000
    (QCheck.make
       ~print:(fun (lo, b, v) -> Printf.sprintf "lo=%h buckets=%d v=%h" lo b v)
       case)
    (fun (lo, buckets, v) ->
       QCheck.assume (Float.is_finite v);
       let h = Histogram.make ~lo ~buckets () in
       let got = Histogram.bucket_index h v in
       if v < lo || Float.is_finite (v /. lo) then
         got = frexp_bucket ~lo ~buckets v
       else got = buckets - 1)

let test_histogram_infinity_top_bucket () =
  let h = Histogram.make ~lo:1.0 ~buckets:8 () in
  Alcotest.(check int) "+inf index" 7 (Histogram.bucket_index h infinity);
  Alcotest.(check int) "max_float index" 7
    (Histogram.bucket_index h max_float);
  Control.with_enabled (fun () ->
      List.iter (Histogram.observe h) [ 1.5; 1.5; 1.5; infinity ]);
  (* The fourth of four samples is the largest: p99 reads the top
     bucket, [128, 256), not the [1, 2) bucket of the small ones. *)
  Alcotest.(check bool) "p99 from the top bucket" true
    (Histogram.p99 h >= 128.0);
  Alcotest.(check (float 0.0)) "max" infinity (Histogram.max_value h)

let test_histogram_nan_bucket_zero () =
  let h = Histogram.make ~lo:1.0 ~buckets:8 () in
  Alcotest.(check int) "nan index" 0 (Histogram.bucket_index h Float.nan);
  Alcotest.(check int) "-inf index" 0
    (Histogram.bucket_index h neg_infinity);
  Control.with_enabled (fun () -> Histogram.observe h Float.nan);
  Alcotest.(check int) "counted" 1 (Histogram.count h)

(* Pre-boxed samples: [observe] itself allocates nothing (a [frexp]
   call would build a result pair and box the ratio per call). *)
let test_histogram_observe_allocates_nothing () =
  let h = Histogram.make () in
  let xs = List.init 1000 (fun i -> 1e-6 *. float_of_int (1 + (i * 37 mod 4000))) in
  let rec feed = function
    | [] -> ()
    | x :: rest ->
      Histogram.observe h x;
      feed rest
  in
  Control.with_enabled (fun () ->
      feed xs;
      let w0 = Gc.minor_words () in
      feed xs;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) "minor words over 1000 observations" 0.0 dw);
  Alcotest.(check int) "count" 2000 (Histogram.count h)

(* Deliveries and drops inside the open one-second bucket allocate
   nothing: no [find_opt] box, no per-call closure. Times and latencies
   are pre-boxed, as a caller's own floats would be. *)
let test_slo_observe_allocates_nothing () =
  let t = Slo.create ~events:(Event_log.create ()) () in
  Slo.declare t ~vpn:3 ~band:1 (Slo.spec ~latency_p99:0.05 0.99);
  let times = List.init 500 (fun i -> 0.001 *. float_of_int i) in
  let lats = List.init 500 (fun i -> 0.0001 *. float_of_int (i mod 900)) in
  let rec feed ts ls =
    match (ts, ls) with
    | time :: ts, latency :: ls ->
      Slo.observe_delivery t ~vpn:3 ~band:1 ~time ~latency;
      Slo.observe_drop t ~vpn:3 ~band:1 ~time;
      (* An undeclared objective is a no-op, and allocation-free too. *)
      Slo.observe_delivery t ~vpn:4 ~band:1 ~time ~latency;
      feed ts ls
    | _ -> ()
  in
  Control.with_enabled (fun () ->
      feed times lats;
      let w0 = Gc.minor_words () in
      feed times lats;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) "minor words over 1500 observations" 0.0
        dw);
  match Slo.reports t with
  | [ r ] -> Alcotest.(check int) "total" 2000 r.Slo.total
  | rs -> Alcotest.fail (Printf.sprintf "one report, got %d" (List.length rs))

(* The cell entry points, which the network's delivery path uses,
   allocate nothing on values the caller computes: the time and the
   latency cross each call in cells, never as boxed floats. *)
let test_cell_observers_allocate_nothing () =
  let h = Histogram.make () in
  let t = Slo.create ~events:(Event_log.create ()) () in
  Slo.declare t ~vpn:3 ~band:1 (Slo.spec ~latency_p99:0.05 0.99);
  let clock = Float.Array.make 1 0.0 and lat = Float.Array.make 1 0.0 in
  let feed n =
    for i = 1 to n do
      Float.Array.set clock 0 (1e-3 *. float_of_int (i mod 500));
      Float.Array.set lat 0 (1e-4 *. float_of_int (i mod 900));
      Histogram.observe_cell h lat;
      Slo.observe_delivery_cell t ~vpn:3 ~band:1 ~clock ~latency:lat;
      Slo.observe_drop_cell t ~vpn:3 ~band:1 ~clock
    done
  in
  Control.with_enabled (fun () ->
      feed 499;
      let w0 = Gc.minor_words () in
      feed 499;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) "minor words over 1497 observations" 0.0
        dw);
  Alcotest.(check int) "histogram count" 998 (Histogram.count h);
  match Slo.reports t with
  | [ r ] -> Alcotest.(check int) "slo total" 1996 r.Slo.total
  | rs -> Alcotest.failf "one report, got %d" (List.length rs)

(* Closing windows allocates nothing: each statistic of a close is an
   int loop or lands in a cell, and a transition, whose event is the
   one thing a close allocates, is booked only when a state flips.
   Steady traffic inside every bound flips nothing, so 70 closes of
   two objectives that carry latency, loss and availability bounds
   (past the 60-bucket ring) read no words. Times and latencies are
   pre-boxed, as a caller's own floats would be. *)
let test_slo_window_close_allocates_nothing () =
  let t = Slo.create ~events:(Event_log.create ()) () in
  let spec =
    Slo.spec ~latency_p99:0.05 ~loss_ratio:0.5 ~availability:0.5 0.9
  in
  Slo.declare t ~vpn:1 ~band:0 spec;
  Slo.declare t ~vpn:2 ~band:3 spec;
  let secs = List.init 141 float_of_int in
  let latency = 0.01 in
  let rec run = function
    | time :: (next :: _ as rest) ->
      for _ = 1 to 10 do
        Slo.observe_delivery t ~vpn:1 ~band:0 ~time ~latency;
        Slo.observe_delivery t ~vpn:2 ~band:3 ~time ~latency
      done;
      Slo.observe_drop t ~vpn:1 ~band:0 ~time;
      Slo.observe_drop t ~vpn:2 ~band:3 ~time;
      Slo.advance t ~time:next;
      run rest
    | _ -> ()
  in
  let first = List.filteri (fun i _ -> i <= 70) secs
  and rest = List.filteri (fun i _ -> i >= 70) secs in
  Control.with_enabled (fun () ->
      run first;
      let w0 = Gc.minor_words () in
      run rest;
      let dw = Gc.minor_words () -. w0 in
      Alcotest.(check (float 0.0)) "minor words over 70 window closes" 0.0
        dw);
  List.iter
    (fun (r : Slo.report) ->
       Alcotest.(check int) "every packet seen" (140 * 11) r.Slo.total;
       Alcotest.(check (list string)) "no violation" [] r.Slo.violations;
       Alcotest.(check (float 1e-9)) "loss of the last fast window"
         (1.0 /. 11.0) r.Slo.loss_ratio;
       Alcotest.(check (float 0.0)) "availability" 1.0 r.Slo.availability)
    (Slo.reports t);
  Alcotest.(check int) "no event logged" 0 (Slo.violation_count t)

(* The fate replay allocates per replay, not per fate: eight times the
   fates over the same seconds read the same words. *)
let test_fatelog_replay_words_flat () =
  let words n =
    let clock = Float.Array.make 1 0.0 and lat = Float.Array.make 1 0.0 in
    let logs =
      Array.init 2 (fun shard ->
          let fl = Fatelog.create () in
          for i = 0 to n - 1 do
            Float.Array.set clock 0 (20.0 *. float_of_int i /. float_of_int n);
            Float.Array.set lat 0 (1e-3 *. float_of_int (1 + ((i + shard) mod 7)));
            Fatelog.record fl ~vpn:1 ~band:shard ~dropped:(i mod 50 = 0)
              ~clock ~latency:lat
          done;
          fl)
    in
    let slo = Slo.create ~events:(Event_log.create ()) () in
    for band = 0 to 1 do
      Slo.declare slo ~vpn:1 ~band
        (Slo.spec ~latency_p99:0.05 ~loss_ratio:0.5 ~availability:0.5 0.9)
    done;
    Control.with_enabled (fun () ->
        let w0 = Gc.minor_words () in
        Fatelog.replay logs slo;
        let dw = Gc.minor_words () -. w0 in
        let total =
          List.fold_left (fun acc (r : Slo.report) -> acc + r.Slo.total) 0
            (Slo.reports slo)
        in
        Alcotest.(check int) "every fate replayed" (2 * n) total;
        dw)
  in
  let small = words 2_000 and large = words 16_000 in
  Alcotest.(check (float 0.0))
    (Printf.sprintf "replay words at 4k and 32k fates (%.0f)" small)
    small large

let () =
  let tc name f = Alcotest.test_case name `Quick (wrap f) in
  Alcotest.run "telemetry"
    [ ("control",
       [ tc "scoping" test_control_scoping;
         tc "restores on exception" test_control_restores_on_exception ]);
      ("counter",
       [ tc "gated by control" test_counter_gated;
         tc "two domains" test_counter_two_domains;
         tc "domain switch allocates nothing"
           test_domain_switch_allocates_nothing ]);
      ("gauge", [ tc "gated by control" test_gauge_gated ]);
      ("histogram",
       [ tc "point mass" test_histogram_point_mass;
         tc "quantile bounds" test_histogram_quantile_bounds;
         tc "disabled and reset" test_histogram_disabled_and_reset;
         tc "empty" test_histogram_empty;
         tc "single sample" test_histogram_single_sample;
         tc "one bucket" test_histogram_one_bucket;
         tc "quantile clamped" test_histogram_quantile_clamped;
         tc "observe_int gated" test_histogram_observe_int_gated;
         tc "+inf in the top bucket" test_histogram_infinity_top_bucket;
         tc "nan in bucket 0" test_histogram_nan_bucket_zero;
         QCheck_alcotest.to_alcotest bucket_index_matches_frexp;
         tc "observe allocates nothing"
           test_histogram_observe_allocates_nothing ]);
      ("hop-trace",
       [ tc "per packet" test_trace_per_packet;
         tc "ring wraps" test_trace_ring_wraps;
         tc "disabled" test_trace_disabled;
         tc "intern across domains" test_trace_intern_across_domains;
         tc "record_code allocates nothing"
           test_trace_record_code_allocates_nothing;
         tc "trace allocates per hop" test_trace_allocates_per_hop ]);
      ("registry",
       [ tc "get or create" test_registry_get_or_create;
         tc "reset keeps registrations" test_registry_reset_keeps_registrations;
         tc "json export" test_registry_json;
         tc "scoped" test_registry_scoped;
         tc "empty scope is cheap" test_registry_empty_scope_is_cheap ]);
      ("timeseries",
       [ tc "gated by control" test_series_gated;
         tc "decimation invariant" test_series_decimation;
         tc "two-domain absorb orders" test_series_absorb_two_domains;
         tc "equal times kept" test_series_equal_times ]);
      ("event-log",
       [ tc "gated and wraps" test_event_log_gated_and_wraps;
         tc "kinds and clock" test_event_log_kinds_and_clock ]);
      ("span",
       [ tc "of_trace delivered" test_span_of_trace_delivered;
         tc "of_trace dropped" test_span_of_trace_dropped;
         tc "sampler" test_span_sampler;
         tc "offer allocates nothing" test_span_offer_allocates_nothing ]);
      ("slo",
       [ tc "spec validation" test_slo_spec_validation;
         tc "good traffic in budget" test_slo_good_traffic_stays_in_budget;
         tc "violation recovery alert" test_slo_violation_recovery_and_alert;
         tc "gated and json" test_slo_gated_and_json;
         tc "observe allocates nothing" test_slo_observe_allocates_nothing;
         tc "cell observers allocate nothing"
           test_cell_observers_allocate_nothing;
         tc "window close allocates nothing"
           test_slo_window_close_allocates_nothing;
         tc "fate replay words flat" test_fatelog_replay_words_flat;
         tc "private engine uncounted" test_slo_private_engine_uncounted ]);
      ("json-bytes",
       [ tc "event log entries" test_event_log_json_bytes;
         tc "slo report" test_slo_report_json_bytes;
         tc "span" test_span_json_bytes ]) ]
