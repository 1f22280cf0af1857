(* Shared rendering of the telemetry registry for experiment
   breakdowns: per-band queue verdicts and per-class sojourn quantiles
   (E4c, E6b). *)

module T = Mvpn_telemetry
module Qos_mapping = Mvpn_core.Qos_mapping

let band_verdicts () =
  let widths = [12; 10; 10; 10; 10] in
  Tables.row widths ["band"; "enqueued"; "dequeued"; "tail-drop"; "red-drop"];
  Tables.rule widths;
  for b = 0 to Qos_mapping.band_count - 1 do
    let v kind =
      string_of_int
        (T.Registry.counter_value (Printf.sprintf "qdisc.band%d.%s" b kind))
    in
    Tables.row widths
      [ Printf.sprintf "%d (%s)" b (Qos_mapping.band_name b);
        v "enqueued"; v "dequeued"; v "tail_drop"; v "red_drop" ]
  done

let sojourn_quantiles () =
  let prefix = "net.sojourn." in
  let classes =
    List.filter_map
      (fun n ->
         let pl = String.length prefix in
         if String.length n > pl && String.sub n 0 pl = prefix then
           Some (String.sub n pl (String.length n - pl))
         else None)
      (T.Registry.names ())
  in
  let widths = [12; 10; 10; 10; 10] in
  Tables.row widths ["class"; "packets"; "p50 ms"; "p99 ms"; "max ms"];
  Tables.rule widths;
  List.iter
    (fun cls ->
       match T.Registry.find_histogram (prefix ^ cls) with
       | None -> ()
       | Some h ->
         Tables.row widths
           [ cls;
             string_of_int (T.Histogram.count h);
             Tables.ms (T.Histogram.p50 h);
             Tables.ms (T.Histogram.p99 h);
             Tables.ms (T.Histogram.max_value h) ])
    classes

(* Run [work] in its own registry scope with telemetry on and print
   both tables from what it measured alone. *)
let section ~title work =
  Tables.heading title;
  ignore
    (T.Registry.scoped (fun () ->
         T.Control.with_enabled work;
         band_verdicts ();
         Printf.printf "\n";
         sojourn_quantiles ()))
