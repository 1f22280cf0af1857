(* The repository benchmark. One workload per invocation:

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   --trace 0 repeats the workload's fixed-size pass until S seconds have
   passed (at least once) and reports the medians over passes of the
   end-to-end metrics. --trace 1 makes untraced and traced passes and
   reports the per-layer metrics (see Layers). Either way every pass is
   checked for correctness, a human-readable table goes to stdout, and
   the last line of stdout is one JSON object:
     {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
   README.md gives each workload's reason and the layer map. *)

module T = Mvpn_telemetry
module Runner = Mvpn_par.Runner

let workloads = [ "backbone_steady"; "soak_chaos"; "provision_10k"; "backbone_k2" ]

(* What one pass measured. "Items" and "ops" are the workload's two
   units of work: delivered packets and executed events for the
   simulation workloads, compiled VPNv4 routes and churn deltas for
   provision_10k. Times are CPU or wall seconds scaled to the nominal
   host speed by [factor] (see Calib); allocation counts are raw. *)
type pass = {
  fp : string;  (* the pass's fingerprint, as checked *)
  factor : float;
  setup_s : float;  (* CPU *)
  run_cpu_s : float;
  run_wall_s : float;
  items : int;
  items_cpu_s : float;
  items_wall_s : float;
  ops : int;
  ops_cpu_s : float;
  minor_words : float;  (* allocated while the ops ran *)
  extra : (string * float) list;  (* workload-specific, by name *)
}

let pin ~tiny ~seed s =
  if tiny || seed <> Pins.default_seed || s = "" then None else Some s

let sim_pass ~sp ~plan ~pin_fp ~first_fp ~reference () =
  Gc.full_major ();
  let (a, setup_s, fp, cpu, wall, minor_words), k =
    Calib.bracket (fun () ->
        let c0 = Stat.cpu () in
        let a = Simwl.setup ?plan sp in
        let setup_s = Stat.cpu () -. c0 in
        let m0 = Stat.minor_words () and c0 = Stat.cpu () and w0 = Stat.wall () in
        Simwl.run_engine a;
        let fp = Simwl.finish a in
        ( a, setup_s, fp, Stat.cpu () -. c0, Stat.wall () -. w0,
          Stat.minor_words () -. m0 ))
  in
  let s = Simwl.fp_to_string fp in
  Checks.pinned ~name:"fingerprint" ~pin:pin_fp ~first:first_fp s;
  Option.iter
    (fun r -> Checks.check "sequential run matches the runner" (r = s))
    reference;
  Checks.check "packets delivered" (fp.Simwl.delivered > 0);
  (match sp.Simwl.kind with
   | Simwl.Chaos_soak ->
     Checks.check "zero audit violations" (Simwl.audit_violations a = 0);
     Checks.check "auditor ticked" (Simwl.audit_ticks a > 0)
   | Simwl.Steady -> ());
  { fp = s; factor = k; setup_s = setup_s *. k; run_cpu_s = cpu *. k;
    run_wall_s = wall *. k; items = fp.Simwl.delivered;
    items_cpu_s = cpu *. k; items_wall_s = wall *. k; ops = fp.Simwl.events;
    ops_cpu_s = cpu *. k; minor_words; extra = [] }

(* backbone_k2: the whole Runner.run_parallel call is the timed phase —
   it builds its K+1 replicas inside — so the set-up figure is that of
   one armed replica, built beside it. *)
let k2_pass ~sp ~steady_fp ~pin_fp () =
  Gc.full_major ();
  let (setup_s, o, cpu, wall, minor_words), k =
    Calib.bracket (fun () ->
        let c0 = Stat.cpu () in
        ignore (Sys.opaque_identity (Simwl.setup sp));
        let setup_s = Stat.cpu () -. c0 in
        Gc.full_major ();
        let m0 = Stat.minor_words () and c0 = Stat.cpu () and w0 = Stat.wall () in
        let o = Runner.run_parallel (Simwl.k2_config sp) in
        ( setup_s, o, Stat.cpu () -. c0, Stat.wall () -. w0,
          Stat.minor_words () -. m0 ))
  in
  let s = Simwl.fp_to_string (Simwl.of_outcome o) in
  Checks.check "K=2 fingerprint equals backbone_steady's" (s = steady_fp);
  Checks.pinned ~name:"fingerprint" ~pin:pin_fp ~first:(ref None) s;
  Checks.check "two shards ran" (o.Runner.shards = 2);
  { fp = s; factor = k; setup_s = setup_s *. k; run_cpu_s = cpu *. k;
    run_wall_s = wall *. k; items = o.Runner.delivered;
    items_cpu_s = cpu *. k; items_wall_s = wall *. k; ops = o.Runner.events;
    ops_cpu_s = cpu *. k; minor_words; extra = [] }

(* provision_10k's parts run for seconds each, so Provwl.run brackets
   each one with its own calibration. *)
let prov_pass ~sp ~pin_fp ~first_fp () =
  Gc.full_major ();
  let (inp, setup_s), k =
    Calib.bracket (fun () ->
        let c0 = Stat.cpu () in
        let inp = Provwl.inputs sp in
        (inp, Stat.cpu () -. c0))
  in
  let r = Provwl.run ~calibrate:true inp in
  Checks.check "incremental state equals the oracle" r.Provwl.oracle_equal;
  Checks.pinned ~name:"oracle fingerprint" ~pin:pin_fp ~first:first_fp
    r.Provwl.fingerprint;
  Checks.check "routes compiled" (r.Provwl.routes > 0);
  Checks.check "every delta timed" (List.length r.Provwl.delta_ms = sp.Provwl.ops);
  { fp = r.Provwl.fingerprint; factor = k; setup_s = setup_s *. k;
    run_cpu_s = r.Provwl.compile_cpu +. r.Provwl.delta_cpu +. r.Provwl.oracle_cpu;
    run_wall_s =
      r.Provwl.compile_wall +. r.Provwl.delta_wall +. r.Provwl.oracle_wall;
    items = r.Provwl.compiled_routes;
    items_cpu_s = r.Provwl.compile_cpu +. r.Provwl.oracle_cpu;
    items_wall_s = r.Provwl.compile_wall +. r.Provwl.oracle_wall;
    ops = sp.Provwl.ops;
    ops_cpu_s = r.Provwl.delta_cpu; minor_words = r.Provwl.delta_minor_words;
    extra =
      [ ("compile_s", r.Provwl.compile_wall);
        ("delta_p50_ms", Stat.percentile r.Provwl.delta_ms 0.50);
        ("delta_p99_ms", Stat.percentile r.Provwl.delta_ms 0.99) ] }

(* Run passes until the deadline (at least one). *)
let repeat ~seconds f =
  ignore (Calib.sample ());  (* warm-up: the first sample runs cold *)
  Calib.restart ();
  let deadline = Stat.wall () +. seconds in
  let rec go acc =
    let acc = f () :: acc in
    if Stat.wall () < deadline then go acc else List.rev acc
  in
  go []

let passes ~workload ~tiny ~seed ~seconds =
  match workload with
  | "backbone_steady" | "soak_chaos" ->
    let kind =
      if workload = "soak_chaos" then Simwl.Chaos_soak else Simwl.Steady
    in
    let sp = Simwl.spec ~kind ~tiny ~seed in
    let plan, pin_fp, reference =
      match kind with
      | Simwl.Chaos_soak ->
        (Some (Simwl.storm_plan sp), pin ~tiny ~seed Pins.soak_chaos, None)
      | Simwl.Steady ->
        (None, pin ~tiny ~seed Pins.backbone_steady,
         Some (Simwl.steady_reference sp))
    in
    let first_fp = ref None in
    repeat ~seconds (sim_pass ~sp ~plan ~pin_fp ~first_fp ~reference)
  | "backbone_k2" ->
    let sp = Simwl.spec ~kind:Simwl.Steady ~tiny ~seed in
    let steady_fp = Simwl.steady_reference sp in
    let pin_fp = pin ~tiny ~seed Pins.backbone_steady in
    Checks.pinned ~name:"backbone_steady fingerprint" ~pin:pin_fp
      ~first:(ref None) steady_fp;
    repeat ~seconds (k2_pass ~sp ~steady_fp ~pin_fp)
  | "provision_10k" ->
    let sp = Provwl.spec ~tiny ~seed in
    let pin_fp = pin ~tiny ~seed Pins.provision_10k in
    let first_fp = ref None in
    repeat ~seconds (prov_pass ~sp ~pin_fp ~first_fp)
  | w -> invalid_arg ("unknown workload " ^ w)

let med f ps = Stat.median (List.map f ps)
let per a b = if b = 0.0 then 0.0 else a /. b

(* The end-to-end metrics, as reported in the JSON line: one set for
   every workload, each the median over passes. *)
let end_to_end ps =
  let rate n d = med (fun p -> per (float_of_int (n p)) (d p)) ps in
  [ ("setup_s", med (fun p -> p.setup_s) ps, "s");
    ("run_cpu_s", med (fun p -> p.run_cpu_s) ps, "s");
    ("run_wall_s", med (fun p -> p.run_wall_s) ps, "s");
    ("items_per_cpu_s", rate (fun p -> p.items) (fun p -> p.items_cpu_s), "1/s");
    ("items_per_wall_s", rate (fun p -> p.items) (fun p -> p.items_wall_s),
     "1/s");
    ("ops_per_cpu_s", rate (fun p -> p.ops) (fun p -> p.ops_cpu_s), "1/s");
    ("minor_words_per_op",
     med (fun p -> per p.minor_words (float_of_int p.ops)) ps, "words") ]

(* The twelve headline metrics by their ROADMAP names, with "n/a" where
   a metric does not apply to the workload. *)
let print_table ~workload ps e2e =
  let sim = workload <> "provision_10k" in
  let seq = workload = "backbone_steady" || workload = "soak_chaos" in
  let v name = List.assoc name (List.map (fun (n, v, _) -> (n, v)) e2e) in
  let x name = med (fun p -> List.assoc name p.extra) ps in
  let row name unit value =
    Printf.printf "  %-22s %-6s %s\n" name unit
      (match value with Some f -> Printf.sprintf "%.6g" f | None -> "n/a")
  in
  let when_ c name = if c then Some (v name) else None in
  Printf.printf "%s: %d passes, host speed factor %.3f (median)\n" workload
    (List.length ps) (med (fun p -> p.factor) ps);
  row "setup_s" "s" (Some (v "setup_s"));
  row "run_cpu_s" "s" (Some (v "run_cpu_s"));
  row "run_wall_s" "s" (Some (v "run_wall_s"));
  row "pkts_per_cpu_s" "1/s" (when_ sim "items_per_cpu_s");
  row "events_per_cpu_s" "1/s" (when_ sim "ops_per_cpu_s");
  row "pkts_per_wall_s" "1/s" (when_ sim "items_per_wall_s");
  row "minor_words_per_event" "words" (when_ seq "minor_words_per_op");
  row "peak_heap_mb" "MB" (Some (Stat.peak_heap_mb ()));
  row "compile_s" "s" (if sim then None else Some (x "compile_s"));
  row "delta_p50_ms" "ms" (if sim then None else Some (x "delta_p50_ms"));
  row "delta_p99_ms" "ms" (if sim then None else Some (x "delta_p99_ms"));
  row "fail_ratio" "1" (Some (Stat.ratio !Checks.failed !Checks.attempted));
  Printf.printf "  (%d of %d checks failed)\n  fingerprint: %s\n" !Checks.failed
    !Checks.attempted (List.hd ps).fp

let json_line metrics =
  let body =
    List.map
      (fun (n, v, u) ->
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" n v u)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (!Checks.failed = 0) (max 1 !Checks.attempted) !Checks.failed
    (String.concat ", " body)

let () =
  let workload = ref "" and seed = ref Pins.default_seed in
  let seconds = ref 10.0 and trace = ref 0 and tiny = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--tiny", Arg.Set tiny, " smoke-test sizes") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]";
  if not (List.mem !workload workloads) then begin
    prerr_endline ("perfbench: unknown workload " ^ !workload);
    exit 2
  end;
  (* The runners count totals through the registry, so telemetry is on
     for every run, traced or not; long runs recycle packets. *)
  T.Control.enable ();
  Mvpn_net.Packet.set_pooling true;
  let metrics =
    if !trace = 0 then begin
      let ps =
        passes ~workload:!workload ~tiny:!tiny ~seed:!seed ~seconds:!seconds
      in
      let e2e = end_to_end ps in
      print_table ~workload:!workload ps e2e;
      e2e
    end
    else Layers.run ~workload:!workload ~tiny:!tiny ~seed:!seed
  in
  if List.exists (fun (_, v, _) -> not (Float.is_finite v)) metrics then begin
    prerr_endline "perfbench: a metric is not finite";
    exit 1
  end;
  print_endline (json_line metrics)
