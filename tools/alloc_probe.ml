(* Allocation and phase-time probe for the E16 sequential workload.

   Runs the same scenario as bench/e16_parallel.ml's sequential rows
   and prints, for each phase (the runner's replica — build, fate log
   and workload arming — then the engine run, per-class SLA reports
   and registry JSON), the wall time, the process CPU time and the
   minor-heap words allocated — plus words per event for the engine
   phase and for the post-run verdict
   ([Scenario.class_reports]) separately, so a regression in either
   shows apart from the other. Use it to find where the run loop still
   allocates before reaching for a profiler. *)

module Engine = Mvpn_sim.Engine
module Runner = Mvpn_par.Runner
module Scenario = Mvpn_core.Scenario
module Packet = Mvpn_net.Packet
module Registry = Mvpn_telemetry.Registry

(* CPU seconds are printed beside wall seconds: on a shared host the
   wall clock drifts with neighbours' load, CPU time much less. *)
let phase name f =
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  let c0 = Sys.time () in
  let r = f () in
  let dc = Sys.time () -. c0 in
  let dt = Unix.gettimeofday () -. t0 in
  let dw = Gc.minor_words () -. w0 in
  Printf.printf "%-16s %8.3f s wall %8.3f s cpu  %14.0f minor words\n%!"
    name dt dc dw;
  (r, dt, dw)

let () =
  let duration =
    match Sys.getenv_opt "MVPN_PROBE_DUR" with
    | Some s -> float_of_string s
    | None -> 40.0
  in
  let cfg =
    { Runner.default_config with
      Runner.shards = 1; pops = 16; vpns = 4; sites_per_vpn = 8;
      load = 0.9; duration; seed = 11;
      backend = Engine.Calendar }
  in
  (* The bench runs with the telemetry switch on (bench/main.ml
     enables it); measure under the same conditions unless
     MVPN_PROBE_NOTELEM asks for the dark path. *)
  Mvpn_telemetry.Control.enable ();
  let prev = Packet.pooling () in
  Packet.set_pooling true;
  let horizon = cfg.Runner.duration +. 5.0 in
  let (sc, _), _, _ =
    phase "replica" (fun () ->
        Runner.replica cfg ~canonical:true ~only:(fun _ _ -> true))
  in
  (* MVPN_PROBE_SAMPLE=1 turns on a poor-man's statistical profiler:
     an ITIMER_PROF tick captures the OCaml callstack and the top
     frames are tallied after the run. Coarse (handler runs at
     safepoints) but enough to rank hot functions without perf. *)
  let samples : Printexc.raw_backtrace list ref = ref [] in
  if Sys.getenv_opt "MVPN_PROBE_SAMPLE" = Some "1" then begin
    Sys.set_signal Sys.sigprof
      (Sys.Signal_handle
         (fun _ -> samples := Printexc.get_callstack 10 :: !samples));
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = 0.001; it_value = 0.001 })
  end;
  let e0 = Engine.processed (Scenario.engine sc) in
  (* MVPN_PROBE_NOTELEM=1 runs the engine with the telemetry switch
     off — the delta against a normal run prices the per-event
     telemetry (hop traces, histograms, SLO observations). *)
  let notelem = Sys.getenv_opt "MVPN_PROBE_NOTELEM" = Some "1" in
  let (), run_dt, run_dw =
    phase "engine-run" (fun () ->
        if notelem then
          Mvpn_telemetry.Control.with_disabled (fun () ->
              Engine.run ~until:horizon (Scenario.engine sc))
        else Engine.run ~until:horizon (Scenario.engine sc))
  in
  let events = Engine.processed (Scenario.engine sc) - e0 in
  let _, _, reports_dw =
    phase "reports" (fun () -> Scenario.class_reports sc)
  in
  let _, _, _ =
    phase "registry-json" (fun () -> Registry.to_json ~trace_events:0 ())
  in
  (* MVPN_PROBE_FULL=1 additionally times a whole
     [Runner.run_sequential] — build + arm + run + SLO replay +
     registry JSON — the exact span the E16 bench's pps figure is
     computed over, so the gap between it and the engine phase above
     prices the replay/report tail. *)
  if Sys.getenv_opt "MVPN_PROBE_FULL" = Some "1" then begin
    let o, full_dt, _ = phase "full-seq" (fun () -> Runner.run_sequential cfg) in
    Printf.printf "full-seq del=%d ev=%d pps %.0f\n"
      o.Runner.delivered o.Runner.events
      (float_of_int o.Runner.delivered /. full_dt)
  end;
  Packet.set_pooling prev;
  Printf.printf "\nevents              %d\n" events;
  Printf.printf "engine words/event  %.2f\n" (run_dw /. float_of_int events);
  Printf.printf "report words/event  %.2f\n"
    (reports_dw /. float_of_int events);
  Printf.printf "events/s            %.0f\n" (float_of_int events /. run_dt);
  Printf.printf "pool size           %d\n" (Packet.pool_size ());
  if !samples <> [] then begin
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = 0.0; it_value = 0.0 });
    let tally = Hashtbl.create 64 in
    List.iter
      (fun bt ->
         match Printexc.backtrace_slots bt with
         | None -> ()
         | Some slots ->
           (* Skip the handler's own frames; credit the first simulator
              frame below them. *)
           (* Credit the innermost simulator frame; a stdlib frame is
              suffixed with its first non-stdlib caller so e.g.
              Stdlib__Float samples name the call site. *)
           let names =
             Array.to_list slots
             |> List.filter_map Printexc.Slot.name
             |> List.filter
                  (fun n ->
                     not (String.ends_with ~suffix:"Alloc_probe.(fun)" n))
           in
           let key =
             match names with
             | n :: rest when String.starts_with ~prefix:"Stdlib__" n ->
               (match
                  List.find_opt
                    (fun m -> not (String.starts_with ~prefix:"Stdlib__" m))
                    rest
                with
                | Some caller -> n ^ " <- " ^ caller
                | None -> n)
             | n :: _ -> n
             | [] -> ""
           in
           if key <> "" then
             Hashtbl.replace tally key
               (1 + Option.value ~default:0 (Hashtbl.find_opt tally key)))
      !samples;
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
      |> List.sort (fun (_, a) (_, b) -> compare b a)
    in
    Printf.printf "\n%d profile samples, top frames:\n" (List.length !samples);
    List.iteri
      (fun i (name, n) -> if i < 25 then Printf.printf "%6d  %s\n" n name)
      rows
  end
