(* Bench gate: checks the BENCH_telemetry.json one experiment wrote
   against that experiment's rows in the table below.

     gate.exe EXPERIMENT < BENCH_telemetry.json

   A row names a metric, looked up in the dump's "gauges" and then its
   "counters", and a bound on it. A metric missing from both fails
   every row that names it — a renamed or unpublished gauge must not
   pass a bound by reading as 0. Each failed row prints one line
   ("gate E16: e16.rate.seq_pps = 176899, want >= 179048.1") and the
   tool exits 1 if any row failed, 2 on a bad invocation or dump.
   tools/check.sh runs it after each bench. *)

module Json = Mvpn_telemetry.Json

type bound =
  | Present
  | Positive
  | Ge of float
  | Le of float
  | Eq of float
  | Gauge_prefix  (** some gauge name starts with the row's name *)
  | Event_kind_prefix  (** some logged event's kind starts with it *)

let present names = List.map (fun n -> (n, Present)) names

let table =
  [ ("E0", present [ "e0.rate.cached_pps"; "e0.rate.uncached_pps" ]);
    (* C6's chain: per-(vpn, band) conformance gauges and SLO events. *)
    ("E6", [ ("e6c.slo.vpn", Gauge_prefix); ("slo_", Event_kind_prefix) ]);
    ( "E15",
      present
        [ "e15.frr.lost"; "e15.nofrr.lost"; "e15.frr_gain_packets";
          "e15.frr.resilience.frr.switched" ]
      @ [ ("resilience.chaos.faults", Positive) ] );
    ( "E16",
      present
        [ "e16.rate.seq_heap_pps"; "e16.rate.k2_pps"; "e16.rate.k4_pps";
          "e16.rate.k8_pps"; "e16.speedup.k2"; "e16.speedup.k4";
          "e16.speedup.k8"; "e16.pool.k1_packets"; "e16.pool.k2_packets";
          (* Wall clock over CPU (ROADMAP item 12's target is < 1): a
             wall-clock figure on a shared host, so present only. *)
          "e16.ratio.k2_wall_over_seq_cpu";
          "sim.profile.pop_s"; "sim.profile.handler_s";
          "sim.profile.flush_s"; "sim.profile.kind.port.tx";
          "sim.profile.kind.port.propagate"; "sim.profile.kind.traffic.src" ]
      @ [ (* Minor words per event of the sequential calendar run:
             0.62 measured (1.73 while the runner's fate hook boxed two
             floats per fate and every SLO window close built tuples,
             4.24 while the engine clock was a boxed float field and
             its readers took boxed times); the same 13 % margin as the
             rows below. *)
          ("sim.gc.minor_words_per_event", Positive);
          ("sim.gc.minor_words_per_event", Le 0.70);
          (* Wall clock, against the seq-calendar baseline measured on a
             shared 2-core host before the flat-packet rework (155694
             pps). Steady state since is ~1.35x; gated at 1.15x so real
             regressions fail while scheduling noise (~±10%) does not. *)
          ("e16.rate.seq_pps", Ge (1.15 *. 155694.));
          (* The calendar queue must not lose to the heap: the median
             of five interleaved heap/calendar pairs' CPU-second
             ratios. It replaced a single wall-clock race
             (seq_calendar_pps >= seq_heap_pps) that one run in twelve
             failed on host noise; the bound is the same 1.0. *)
          ("e16.ratio.heap_over_cal_cpu", Ge 1.0);
          (* Arming the timeline sampler may cost at most ~5 %: the
             median of five interleaved rounds' calendar over
             sampler-armed CPU-second ratios. It replaced a single
             wall-clock race (seq_sampler_pps >= 0.95 x seq_pps) that
             failed on host noise; the bound is the same 0.95. *)
          ("e16.ratio.cal_over_sampler_cpu", Ge 0.95);
          ("sim.profile.events", Positive);
          (* Minor words per event of the K=2 run, both shard domains
             and every replica build included: 1.02 measured (1.27
             while the exporting shard allocated a fresh packet record
             for most packets it sent across the cut and each window
             boxed its bound, 2.71 with a boxing fate hook,
             tuple-threading SLO window closes and a throwaway deploy
             to cut the topology, 5.19 with a boxed engine clock, 9.18
             when each cut-link crossing built a message record, a
             list cell and an import closure). The allocation is
             deterministic but for the window count and the timing of
             records sent home, which timing moves slightly; the 13 %
             margin absorbs small incidental changes, not a return of
             per-packet garbage on the exchange path. *)
          ("e16.gc.k2_minor_words_per_event", Positive);
          ("e16.gc.k2_minor_words_per_event", Le 1.15);
          (* Packet records the K=2 run allocates over what a K=1 run
             allocates from an empty pool: 1.20 measured (524 against
             436), against ~14 before shards sent retired records
             home (6,095 against 436). How many records are in flight
             home at a window edge varies with timing; the bound
             fails a return of per-export allocation, not that. *)
          ("e16.ratio.k2_over_k1_packets", Le 1.5);
          (* The same through the heap backend: 0.64 measured (1.75
             with a boxing fate hook and tuple-threading window closes,
             4.26 with a boxed engine clock, 10.3 when every entry was a
             boxed slot and every push boxed its key); the same 13 %
             margin. *)
          ("e16.gc.heap_minor_words_per_event", Positive);
          ("e16.gc.heap_minor_words_per_event", Le 0.72) ] );
    ( "E18",
      present
        [ "e18.rate.base_pps"; "e18.rate.audit_pps"; "e18.rate.chaos_pps";
          "e18.audit.ticks" ]
      @ [ ("e18.events", Ge 1e6);
          ("e18.audit.violations", Eq 0.);
          (* CPU-seconds ratio of the unaudited vs audited soak, best of
             two interleaved runs each; the true ratio sits near 0.98. *)
          ("e18.overhead.audit", Ge 0.95);
          (* Minor words per event of the seq-chaos run, storm repairs
             and audit ticks included: 0.65 measured (2.50 while every
             repair burst rebuilt the control plane from fresh lists,
             tables and SPF trees, 3.99 with a boxing fate hook and
             tuple-threading SLO window closes, 6.60 with a boxed
             engine clock, 17.69 before the flat SPF kernel and the
             allocation-free audit checks). The run is deterministic,
             so the value is too; the 13 % margin absorbs small
             incidental changes, not a return of per-pop lists,
             per-tick tables or per-burst trees. *)
          ("e18.gc.minor_words_per_event", Positive);
          ("e18.gc.minor_words_per_event", Le 0.74) ]
      (* Registered at module load, so only a count proves they ran. *)
      @ List.map
          (fun n -> (n, Positive))
          [ "audit.ticks"; "audit.check.conservation"; "audit.check.loops";
            "audit.check.frr"; "audit.check.slo"; "audit.check.queues";
            "audit.check.heap"; "audit.check.pool" ] );
    ( "E19",
      present
        [ "e19.sites"; "e19.vrfs"; "e19.state.routes_per_pe";
          "e19.state.growth"; "e19.converge.p99_ms"; "e19.converge.full_ms" ]
      @ [ ("e19.routes", Ge 1e5);
          (* Measured headroom is ~2e4x. *)
          ("e19.converge.speedup", Ge 100.);
          (* ~106 minor words per delta; a removal that copies a
             110k-site member list allocates ~1e5. *)
          ("e19.converge.words_per_delta", Le 5000.);
          (* Minor words the 10k bulk compile allocates per route: 35.9
             measured (59.5 while every site also joined a membership
             registry, 133 before the int-column MP-BGP store and the
             int-keyed site table, 339 before the byte-coded BGP
             journal). The compile is deterministic, so the value is
             too; the 13 % margin absorbs small incidental changes, not
             a return of a record or a key tuple per route. *)
          ("e19.compile.words_per_route", Positive);
          ("e19.compile.words_per_route", Le 41.);
          (* Live bytes per route after the 10k compile, across a full
             major GC: 317 measured (467 with a second, registry copy of
             every site; 623 with a boxed record, a key tuple and two
             hash buckets per route). Deterministic like the row above,
             with the same 13 % margin. *)
          ("e19.mem.bytes_per_route", Positive);
          ("e19.mem.bytes_per_route", Le 360.) ] ) ]

let usage () =
  prerr_endline "usage: gate.exe EXPERIMENT < BENCH_telemetry.json";
  exit 2

let () =
  let exp = match Sys.argv with [| _; e |] -> e | _ -> usage () in
  let rows =
    match List.assoc_opt exp table with
    | Some rows -> rows
    | None ->
      Printf.eprintf "gate: no rows for %S\n" exp;
      usage ()
  in
  let dump =
    match Json.of_string (In_channel.input_all stdin) with
    | Ok (Json.Obj members) -> members
    | Ok _ | Error _ ->
      Printf.eprintf "gate %s: stdin is not a JSON object\n" exp;
      exit 2
  in
  let section key =
    match List.assoc_opt key dump with Some (Json.Obj m) -> m | _ -> []
  in
  let gauges = section "gauges" and counters = section "counters" in
  let value name =
    match List.assoc_opt name gauges, List.assoc_opt name counters with
    | Some (Json.Float x), _ -> Some x
    | Some (Json.Int n), _ | None, Some (Json.Int n) -> Some (float_of_int n)
    | _ -> None
  in
  let kinds =
    match List.assoc_opt "events" dump with
    | Some (Json.List es) ->
      List.filter_map
        (function
          | Json.Obj e -> (
            match List.assoc_opt "kind" e with
            | Some (Json.String k) -> Some k
            | _ -> None)
          | _ -> None)
        es
    | _ -> []
  in
  let failed = ref false in
  let fail fmt =
    failed := true;
    Printf.printf ("gate %s: " ^^ fmt ^^ "\n") exp
  in
  let show = Printf.sprintf "%.9g" in
  let check (name, bound) =
    let any prefix names = List.exists (String.starts_with ~prefix) names in
    let cmp ok want =
      match value name with
      | Some v when ok v -> ()
      | Some v -> fail "%s = %s, want %s" name (show v) want
      | None -> fail "%s missing, want %s" name want
    in
    match bound with
    | Present -> cmp (fun _ -> true) "present"
    | Positive -> cmp (fun v -> v > 0.) "> 0"
    | Ge c -> cmp (fun v -> v >= c) (">= " ^ show c)
    | Le c -> cmp (fun v -> v <= c) ("<= " ^ show c)
    | Eq c -> cmp (fun v -> v = c) ("= " ^ show c)
    | Gauge_prefix ->
      if not (any name (List.map fst gauges)) then
        fail "no gauge named %s*" name
    | Event_kind_prefix ->
      if not (any name kinds) then fail "no event of kind %s*" name
  in
  List.iter check rows;
  if !failed then exit 1
