(* provision_10k: E19's control plane at 10k Pareto-sized customer VPNs
   on 12 PEs. A full compile, then churn deltas applied one by one to
   the live state, then a from-scratch oracle compile of the final
   portfolio whose fingerprint must equal the incremental state's. No
   engine, no packets. *)

module P = Mvpn_provision

let pe_count = 12

(* The portfolio is always E19's (generator seed 11); the benchmark
   seed draws the churn stream. Portfolio-to-portfolio cost differs by
   a quarter across generator seeds — the Pareto tail decides how many
   fat VPNs there are — which would swamp any regression bound, while
   churn streams over one portfolio cost alike. *)
let portfolio_seed = 11

type spec = { customers : int; ops : int; seed : int }

(* >= 1000 deltas, so the p99 has at least ten samples beyond it. *)
let spec ~tiny ~seed =
  if tiny then { customers = 200; ops = 100; seed }
  else { customers = 10_000; ops = 1200; seed }

type inputs = {
  portfolio : P.Portfolio.t;
  churn : P.Portfolio.op list;
  final : P.Portfolio.t;
}

(* Set-up: the generated inputs the program under test receives. At
   the default seed the churn is E19's (seed 12). *)
let inputs sp =
  let portfolio =
    P.Portfolio.generate ~dist:P.Portfolio.Pareto ~pe_count
      ~seed:portfolio_seed ~customers:sp.customers ()
  in
  let churn = P.Portfolio.churn portfolio ~seed:(sp.seed + 1) ~ops:sp.ops in
  { portfolio; churn; final = P.Portfolio.apply_all portfolio churn }

type result = {
  routes : int;  (* after the churn *)
  compiled_routes : int;  (* by the full compile and the oracle together *)
  compile_cpu : float;
  compile_wall : float;
  delta_cpu : float;
  delta_wall : float;
  delta_minor_words : float;
  delta_ms : float list;  (* per-op wall latency *)
  touched : int;
  oracle_cpu : float;
  oracle_wall : float;
  oracle_equal : bool;
  fingerprint : string;  (* digest of the oracle's canonical fingerprint *)
}

(* CPU and wall seconds of [f], scaled by the calibration bracket
   around it when [calibrate] (see Calib); each part of a several-second
   pass gets its own bracket. *)
let timed ~calibrate name f =
  let measure () =
    let c0 = Stat.cpu () and w0 = Stat.wall () in
    let r = Spans.with_span name f in
    (r, Stat.cpu () -. c0, Stat.wall () -. w0)
  in
  let (r, cpu, wall), k =
    if calibrate then Calib.bracket measure else (measure (), 1.0)
  in
  (r, cpu *. k, wall *. k)

(* [l] cut into [n] consecutive runs of near-equal length. *)
let chunks n l =
  let len = List.length l in
  List.init n (fun i ->
      List.filteri (fun j _ -> j * n / len = i) l)

(* The timed phase: the compile, the churn in four chunks (so the
   calibration brackets follow the host through a phase of seconds),
   the oracle. *)
let run ~calibrate inp =
  let timed name f = timed ~calibrate name f in
  let state, compile_cpu, compile_wall =
    timed "compile" (fun () -> P.Compile.compile inp.portfolio)
  in
  let initial_routes = (P.Compile.metrics state).P.Compile.routes in
  let touched = ref 0 in
  let m0 = Stat.minor_words () in
  let parts =
    List.map
      (fun ops ->
         timed "deltas" (fun () ->
             List.map
               (fun op ->
                  let t0 = Stat.now_ns () in
                  Spans.with_span "delta" (fun () ->
                      touched := !touched + P.Delta.apply state op);
                  float_of_int (Stat.now_ns () - t0) /. 1e6)
               ops))
      (chunks 4 inp.churn)
  in
  let delta_minor_words = Stat.minor_words () -. m0 in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 parts in
  let delta_cpu = sum (fun (_, c, _) -> c) and delta_wall = sum (fun (_, _, w) -> w) in
  let routes = (P.Compile.metrics state).P.Compile.routes in
  (* Compared by canonical fingerprint (what [Compile.equal] compares),
     so the incremental state can be dropped before the oracle is built
     and the two are never live together. *)
  let incremental = P.Compile.fingerprint state in
  let oracle, oracle_cpu, oracle_wall =
    timed "oracle" (fun () -> P.Compile.compile inp.final)
  in
  let oracle = P.Compile.fingerprint oracle in
  { routes; compiled_routes = initial_routes + routes; compile_cpu;
    compile_wall; delta_cpu; delta_wall; delta_minor_words;
    delta_ms = List.concat_map (fun (ms, _, _) -> ms) parts;
    touched = !touched; oracle_cpu; oracle_wall;
    oracle_equal = String.equal incremental oracle;
    fingerprint = Digest.to_hex (Digest.string oracle) }
