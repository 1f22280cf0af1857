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
  | Ge_times of float * string  (** >= c × another metric *)
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
          "e16.speedup.k8"; "sim.profile.pop_s"; "sim.profile.handler_s";
          "sim.profile.flush_s"; "sim.profile.kind.port.tx";
          "sim.profile.kind.port.propagate"; "sim.profile.kind.traffic.src" ]
      @ [ ("sim.gc.minor_words_per_event", Positive);
          ("sim.gc.minor_words_per_event", Le 8.);
          (* Wall clock, against the seq-calendar baseline measured on a
             shared 2-core host before the flat-packet rework (155694
             pps). Steady state since is ~1.35x; gated at 1.15x so real
             regressions fail while scheduling noise (~±10%) does not. *)
          ("e16.rate.seq_pps", Ge (1.15 *. 155694.));
          ("e16.rate.seq_calendar_pps",
           Ge_times (1.0, "e16.rate.seq_heap_pps"));
          ("e16.rate.seq_sampler_pps", Ge_times (0.95, "e16.rate.seq_pps"));
          ("sim.profile.events", Positive) ] );
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
             and audit ticks included: 7.97 measured (17.69 before the
             flat SPF kernel and the allocation-free audit checks). The
             run is deterministic, so the value is too; the 13 %
             margin absorbs small incidental changes, not a return of
             per-pop lists or per-tick tables. *)
          ("e18.gc.minor_words_per_event", Positive);
          ("e18.gc.minor_words_per_event", Le 9.) ]
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
          (* Minor words the 10k bulk compile allocates per route: 59.5
             measured (133 before the int-column MP-BGP store and the
             int-keyed site table, 339 before the byte-coded BGP
             journal). The compile is deterministic, so the value is
             too; the 13 % margin absorbs small incidental changes, not
             a return of a record or a key tuple per route. *)
          ("e19.compile.words_per_route", Positive);
          ("e19.compile.words_per_route", Le 67.);
          (* Live bytes per route after the 10k compile, across a full
             major GC: 467 measured (623 with a boxed record, a key
             tuple and two hash buckets per route). Deterministic like
             the row above, with the same 13 % margin. *)
          ("e19.mem.bytes_per_route", Positive);
          ("e19.mem.bytes_per_route", Le 530.) ] ) ]

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
    | Ge_times (c, other) -> (
      let want = Printf.sprintf ">= %s * %s" (show c) other in
      match value other with
      | Some o -> cmp (fun v -> v >= c *. o) (want ^ " = " ^ show (c *. o))
      | None -> cmp (fun _ -> false) (want ^ " (missing)"))
    | Gauge_prefix ->
      if not (any name (List.map fst gauges)) then
        fail "no gauge named %s*" name
    | Event_kind_prefix ->
      if not (any name kinds) then fail "no event of kind %s*" name
  in
  List.iter check rows;
  if !failed then exit 1
