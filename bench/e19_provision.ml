(* E19 — provisioning at scale (§2.1, claim C1, quantified).

   E1 counts state for one VPN as N grows; the paper could only argue
   the fleet-level consequence. E19 measures it: compile portfolios of
   1k and 10k customer VPNs (heavy-tail Pareto site counts, ~10 sites
   mean, 100k+ routes at 10k), and report

   - per-PE state and its growth between the two scales (linear in
     attached sites if C1 holds — an overlay needs N(N-1)/2 circuits);
   - resident bytes per route with the interned store and shared group
     tables (Gc live-word delta across the compile);
   - incremental convergence: single-delta p99 versus a from-scratch
     recompile of the same final portfolio, validated by canonical
     fingerprint against the oracle;
   - minor words allocated per delta — deterministic, so a delta path
     that scans the whole population (O(sites) rather than O(affected
     VPN)) shows up without a timing gate. *)

module P = Mvpn_provision
module T = Mvpn_telemetry

let seed = 11
let pops = 12
let churn_ops = 200

type row = {
  n : int;
  sites : int;
  overlay : int;
  m : P.Compile.metrics;
  per_pe : (int * int) array;
  compile_s : float;
  bytes_per_route : float;
  state : P.Compile.t;
  portfolio : P.Portfolio.t;
}

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

let compile_row n =
  let portfolio =
    P.Portfolio.generate ~dist:P.Portfolio.Pareto ~pe_count:pops ~seed
      ~customers:n ()
  in
  let w0 = live_words () in
  let t0 = Unix.gettimeofday () in
  let state = P.Compile.compile portfolio in
  let compile_s = Unix.gettimeofday () -. t0 in
  let w1 = live_words () in
  let m = P.Compile.metrics state in
  { n; sites = P.Portfolio.site_count portfolio;
    overlay = P.Portfolio.overlay_circuits portfolio; m;
    per_pe = P.Compile.per_pe state; compile_s;
    bytes_per_route =
      float_of_int ((w1 - w0) * 8) /. float_of_int (max 1 m.P.Compile.routes);
    state; portfolio }

let mean_entries r =
  Array.fold_left (fun acc (_, e) -> acc +. float_of_int e) 0.0 r.per_pe
  /. float_of_int (Array.length r.per_pe)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1))

let run () =
  Tables.heading
    "E19: provisioning at scale — C1 measured at 1k / 10k customer VPNs";
  let rows = List.map compile_row [ 1000; 10000 ] in
  let widths = [ 9; 9; 9; 9; 11; 11; 12; 10 ] in
  Tables.row widths
    [ "VPNs"; "sites"; "routes"; "VRFs"; "stored"; "logical"; "overlay VCs";
      "compile s" ];
  Tables.rule widths;
  List.iter
    (fun r ->
       Tables.row widths
         [ string_of_int r.n; string_of_int r.sites;
           string_of_int r.m.P.Compile.routes;
           string_of_int r.m.P.Compile.vrfs;
           string_of_int r.m.P.Compile.shared_entries;
           string_of_int r.m.P.Compile.table_entries;
           string_of_int r.overlay;
           Printf.sprintf "%.2f" r.compile_s ])
    rows;
  let small = List.nth rows 0 and big = List.nth rows 1 in
  if big.m.P.Compile.routes < 100_000 then
    failwith
      (Printf.sprintf "E19: expected 100k+ routes at 10k VPNs, got %d"
         big.m.P.Compile.routes);

  (* Per-PE linearity: logical entries track attached sites, and the
     10k/1k state ratio tracks the site ratio (1.0 = perfectly linear;
     an overlay would grow with the square of per-VPN sites). *)
  Printf.printf "\nper-PE state at %d VPNs (C1 linearity):\n" big.n;
  let w2 = [ 6; 9; 11; 13 ] in
  Tables.row w2 [ "PE"; "sites"; "entries"; "entries/site" ];
  Tables.rule w2;
  Array.iteri
    (fun pe (s, e) ->
       Tables.row w2
         [ string_of_int pe; string_of_int s; string_of_int e;
           Printf.sprintf "%.1f" (float_of_int e /. float_of_int (max 1 s)) ])
    big.per_pe;
  let growth =
    mean_entries big /. mean_entries small
    /. (float_of_int big.sites /. float_of_int small.sites)
  in
  Printf.printf
    "\nstate growth 1k -> 10k: %.2fx per site ratio (1.0 = linear)\n" growth;
  Printf.printf "bytes/route (interned store + shared tables): %.0f\n"
    big.bytes_per_route;

  (* Incremental convergence on the 10k state: per-delta wall time vs a
     from-scratch compile of the exact final portfolio, then the
     fingerprint referee. *)
  let ops = P.Portfolio.churn big.portfolio ~seed:(seed + 1) ~ops:churn_ops in
  let touched = ref 0 in
  let w0 = Gc.minor_words () in
  let samples =
    Array.of_list
      (List.map
         (fun op ->
            let t0 = Unix.gettimeofday () in
            touched := !touched + P.Delta.apply big.state op;
            Unix.gettimeofday () -. t0)
         ops)
  in
  let words_per_delta = (Gc.minor_words () -. w0) /. float_of_int churn_ops in
  Array.sort compare samples;
  let p99_ms = 1e3 *. percentile samples 0.99 in
  let final = P.Portfolio.apply_all big.portfolio ops in
  let t0 = Unix.gettimeofday () in
  let oracle = P.Compile.compile final in
  let full_ms = 1e3 *. (Unix.gettimeofday () -. t0) in
  if not (P.Compile.equal big.state oracle) then
    failwith "E19: incremental state diverged from the from-scratch oracle";
  let speedup = full_ms /. p99_ms in
  Printf.printf
    "\nconvergence at %d VPNs over %d deltas (oracle fingerprints match):\n"
    big.n churn_ops;
  Printf.printf "  delta p50 / p99      %.4f / %.4f ms\n"
    (1e3 *. percentile samples 0.50) p99_ms;
  Printf.printf "  minor words/delta    %.0f\n" words_per_delta;
  Printf.printf "  mean VRFs touched    %.1f\n"
    (float_of_int !touched /. float_of_int churn_ops);
  Printf.printf "  full recompile       %.1f ms\n" full_ms;
  Printf.printf "  p99 speedup          %.0fx\n" speedup;

  let g name v = T.Gauge.set (T.Registry.gauge name) v in
  g "e19.sites" (float_of_int big.sites);
  g "e19.routes" (float_of_int big.m.P.Compile.routes);
  g "e19.vrfs" (float_of_int big.m.P.Compile.vrfs);
  g "e19.overlay_circuits" (float_of_int big.overlay);
  g "e19.state.routes_per_pe" (mean_entries big);
  g "e19.state.growth" growth;
  g "e19.state.dedup"
    (float_of_int big.m.P.Compile.table_entries
     /. float_of_int (max 1 big.m.P.Compile.shared_entries));
  g "e19.mem.bytes_per_route" big.bytes_per_route;
  g "e19.converge.p99_ms" p99_ms;
  g "e19.converge.full_ms" full_ms;
  g "e19.converge.speedup" speedup;
  g "e19.converge.words_per_delta" words_per_delta;
  g "e19.delta.touched_mean"
    (float_of_int !touched /. float_of_int churn_ops)
