type metric =
  | Counter of Counter.t
  | Gauge of Gauge.t
  | Histogram of Histogram.t
  | Series of Timeseries.t

(* One process-wide registry: instrumented modules create their metrics
   at load time and hold direct references, so the table only ever
   grows. [reset] zeroes values without dropping registrations.

   The name→handle table is shared across domains and guarded by a
   mutex (registration is rare — handles are cached by callers — so
   the lock is never on the per-packet path). Metric *values* live in
   per-domain cells inside the handles (see counter.ml), and the
   forensic rings below are fully domain-local. *)
let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let table_mutex = Mutex.create ()

let locked f = Mutex.protect table_mutex f

(* Hop trace and event log are per-domain rings: each domain records
   its own forensic tail. They are not merged across domains — exports
   read the calling domain's rings. *)
let trace_key = Domain.DLS.new_key (fun () -> Hop_trace.create ())

let trace () = Domain.DLS.get trace_key

let event_key = Domain.DLS.new_key (fun () -> Event_log.create ())

let events () = Domain.DLS.get event_key

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"
  | Series _ -> "series"

let register name wrap make select =
  locked (fun () ->
      match Hashtbl.find_opt table name with
      | Some m ->
        (match select m with
         | Some v -> v
         | None ->
           invalid_arg
             (Printf.sprintf "Registry: %s already registered as a %s" name
                (kind_name m)))
      | None ->
        let v = make () in
        Hashtbl.replace table name (wrap v);
        v)

let counter name =
  register name (fun c -> Counter c) Counter.make (function
    | Counter c -> Some c
    | Gauge _ | Histogram _ | Series _ -> None)

let gauge name =
  register name (fun g -> Gauge g) Gauge.make (function
    | Gauge g -> Some g
    | Counter _ | Histogram _ | Series _ -> None)

let histogram ?lo ?buckets name =
  register name
    (fun h -> Histogram h)
    (fun () -> Histogram.make ?lo ?buckets ())
    (function
      | Histogram h -> Some h
      | Counter _ | Gauge _ | Series _ -> None)

let series ?capacity ?scope name =
  register name
    (fun s -> Series s)
    (fun () -> Timeseries.make ?capacity ?scope name)
    (function
      | Series s -> Some s
      | Counter _ | Gauge _ | Histogram _ -> None)

let find name = locked (fun () -> Hashtbl.find_opt table name)

let find_counter name =
  match find name with Some (Counter c) -> Some c | Some _ | None -> None

let find_gauge name =
  match find name with Some (Gauge g) -> Some g | Some _ | None -> None

let find_histogram name =
  match find name with Some (Histogram h) -> Some h | Some _ | None -> None

let find_series name =
  match find name with Some (Series s) -> Some s | Some _ | None -> None

let counter_value name =
  match find_counter name with Some c -> Counter.value c | None -> 0

let names () =
  locked (fun () ->
      List.sort String.compare
        (Hashtbl.fold (fun k _ acc -> k :: acc) table []))

let cardinal () = locked (fun () -> Hashtbl.length table)

let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ -> function
           | Counter c -> Counter.reset c
           | Gauge g -> Gauge.reset g
           | Histogram h -> Histogram.reset h
           | Series s -> Timeseries.reset s)
        table);
  Hop_trace.clear (trace ());
  Event_log.clear (events ())

(* --- snapshot / absorb / scoped ----------------------------------------- *)

(* Captures metric values only — the hop trace and event log are
   forensic rings tied to one run and are not captured. A metric whose
   absorb would change nothing (a zero counter, an empty histogram or
   series) is left out: a run's snapshot then costs what it measured,
   not the size of the table. Gauges are always captured, since adding
   +0.0 to a gauge that reads -0.0 changes it. *)
type saved =
  | Saved_counter of int
  | Saved_gauge of float
  | Saved_histogram of Histogram.snapshot
  | Saved_series of Timeseries.snapshot

type snapshot = (string * saved) list

let snapshot () =
  locked (fun () ->
      Hashtbl.fold
        (fun name m acc ->
           match m with
           | Counter c ->
             let n = Counter.value c in
             if n = 0 then acc else (name, Saved_counter n) :: acc
           | Gauge g -> (name, Saved_gauge (Gauge.value g)) :: acc
           | Histogram h ->
             if Histogram.count h = 0 then acc
             else (name, Saved_histogram (Histogram.snapshot h)) :: acc
           | Series s ->
             if Timeseries.length s = 0 then acc
             else (name, Saved_series (Timeseries.snapshot s)) :: acc)
        table [])

(* Merge a snapshot taken in another domain into this domain's cells:
   counters and gauges add, histograms merge bucket-wise. Associative
   and commutative, so shard partials fold in any order into one
   deterministic total. Handles are process-wide, so every name in a
   same-process snapshot already resolves; the mismatch arm only
   guards against snapshots outliving a changed registry. One lock for
   the whole walk, and the lookups inside it take no closure. *)
let absorb snap =
  Control.with_enabled (fun () ->
      locked (fun () ->
          List.iter
            (fun (name, v) ->
               match (Hashtbl.find table name, v) with
               | Counter c, Saved_counter n -> Counter.add c n
               | Gauge g, Saved_gauge x -> Gauge.set g (Gauge.value g +. x)
               | Histogram h, Saved_histogram s -> Histogram.absorb h s
               | Series ts, Saved_series s -> Timeseries.absorb ts s
               | _ -> ()
               | exception Not_found -> ())
            snap))

(* A run that owns its measurements: [f] starts from zeroed cells and
   empty rings, its snapshot is what it measured, and the pre-scope
   values fold back on top afterwards (on an exception too), so a
   caller that accumulates across scopes loses nothing. The rings keep
   the scope's entries, as [reset] left them. *)
let scoped f =
  let outer = snapshot () in
  reset ();
  match f () with
  | r ->
    let inner = snapshot () in
    absorb outer;
    (r, inner)
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    absorb outer;
    Printexc.raise_with_backtrace exn bt

let snapshot_counter snap name =
  match List.assoc_opt name snap with
  | Some (Saved_counter n) -> n
  | Some (Saved_gauge _ | Saved_histogram _ | Saved_series _) | None -> 0

(* --- export ------------------------------------------------------------ *)

(* Every registered metric by name, in one locked walk of the table;
   the export sections below each filter this one list. *)
let sorted_metrics () =
  locked (fun () -> Hashtbl.fold (fun k m acc -> (k, m) :: acc) table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let counters_of =
  List.filter_map (function n, Counter c -> Some (n, c) | _ -> None)

let gauges_of =
  List.filter_map (function n, Gauge g -> Some (n, g) | _ -> None)

let histograms_of =
  List.filter_map (function n, Histogram h -> Some (n, h) | _ -> None)

let series_of =
  List.filter_map (function n, Series s -> Some (n, s) | _ -> None)

let to_json ?(trace_events = 64) ?(event_entries = 256) () =
  let all = sorted_metrics () in
  Json.(
    let section pick render =
      Obj (List.map (fun (n, m) -> (n, render m)) (pick all))
    in
    let series s =
      let pair (time, v) = List [ Float time; Float v ] in
      Obj
        [ ("scope",
           String
             (match Timeseries.scope s with
              | Timeseries.Sim -> "sim"
              | Timeseries.Host -> "host"));
          ("level", Int (Timeseries.level s));
          ("samples",
           List (Array.to_list (Array.map pair (Timeseries.samples s)))) ]
    in
    let hop (e : Hop_trace.event) =
      Obj
        [ ("uid", Int e.uid); ("time", Float e.time); ("node", Int e.node);
          ("event", String e.label) ]
    in
    envelope
      [ ("counters", section counters_of (fun c -> Int (Counter.value c)));
        ("gauges", section gauges_of (fun g -> Float (Gauge.value g)));
        ("histograms",
         section histograms_of (fun h ->
             Obj
               [ ("count", Int (Histogram.count h));
                 ("mean", Float (Histogram.mean h));
                 ("p50", Float (Histogram.p50 h));
                 ("p90", Float (Histogram.p90 h));
                 ("p99", Float (Histogram.p99 h));
                 ("max", Float (Histogram.max_value h)) ]));
        ("series", section series_of series);
        ("trace",
         List (List.map hop (Hop_trace.recent (trace ()) trace_events)));
        ("events", Event_log.json_entries ~limit:event_entries (events ())) ])

let pp ?(trace_events = 0) ppf () =
  let all = sorted_metrics () in
  let counters = counters_of all in
  let gauges = gauges_of all in
  let histograms = histograms_of all in
  let width =
    List.fold_left
      (fun acc (n, _) -> Stdlib.max acc (String.length n))
      0
      (List.map (fun (n, c) -> (n, Counter c)) counters
       @ List.map (fun (n, g) -> (n, Gauge g)) gauges
       @ List.map (fun (n, h) -> (n, Histogram h)) histograms)
  in
  if counters <> [] then begin
    Format.fprintf ppf "counters:@.";
    List.iter
      (fun (n, c) ->
         Format.fprintf ppf "  %-*s %d@." width n (Counter.value c))
      counters
  end;
  if gauges <> [] then begin
    Format.fprintf ppf "gauges:@.";
    List.iter
      (fun (n, g) ->
         Format.fprintf ppf "  %-*s %.6g@." width n (Gauge.value g))
      gauges
  end;
  if histograms <> [] then begin
    Format.fprintf ppf "histograms:@.";
    List.iter
      (fun (n, h) ->
         Format.fprintf ppf
           "  %-*s n=%-8d mean=%-10.4g p50=%-10.4g p90=%-10.4g \
            p99=%-10.4g max=%.4g@."
           width n (Histogram.count h) (Histogram.mean h) (Histogram.p50 h)
           (Histogram.p90 h) (Histogram.p99 h) (Histogram.max_value h))
      histograms
  end;
  let ser =
    List.filter (fun (_, s) -> Timeseries.length s > 0)
      (series_of all)
  in
  if ser <> [] then begin
    Format.fprintf ppf "series:@.";
    List.iter
      (fun (n, s) -> Format.fprintf ppf "  %-*s %a@." width n Timeseries.pp s)
      ser
  end;
  if trace_events > 0 then begin
    Format.fprintf ppf "trace (last %d events):@." trace_events;
    List.iter
      (fun e -> Format.fprintf ppf "  %a@." Hop_trace.pp_event e)
      (Hop_trace.recent (trace ()) trace_events)
  end;
  if Event_log.recorded (events ()) > 0 then begin
    Format.fprintf ppf "events:@.";
    List.iter
      (fun e -> Format.fprintf ppf "  %a@." Event_log.pp_entry e)
      (Event_log.entries (events ()))
  end
