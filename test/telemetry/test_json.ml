(* The shared JSON codec: printer bytes, strict parsing, and the
   print -> parse -> print fixed point every dump relies on. *)

open Mvpn_telemetry

let to_s = Json.to_string

let test_escaping () =
  Alcotest.(check string) "quote, backslash, newline, controls"
    {|"a\"b\\c\nd\u0009e\u0000f\u001fg"|}
    (to_s (Json.String "a\"b\\c\nd\te\000f\031g"));
  Alcotest.(check string) "keys escaped too" {|{"k\"1":null}|}
    (to_s (Json.Obj [ ("k\"1", Json.Null) ]));
  Alcotest.(check string) "high bytes pass through" "\"\xc3\xa9\x7f\""
    (to_s (Json.String "\xc3\xa9\x7f"))

let test_numbers () =
  List.iter
    (fun (v, want) -> Alcotest.(check string) want want (to_s v))
    [ (Json.Float Float.nan, "0"); (Json.Float Float.infinity, "0");
      (Json.Float Float.neg_infinity, "0"); (Json.Exact Float.nan, "0");
      (Json.Float (1.0 /. 3.0), "0.333333333");
      (Json.Exact (1.0 /. 3.0), "0.33333333333333331");
      (Json.Exact 0.25, "0.25"); (Json.Float 1e20, "1e+20");
      (Json.Float (-0.0), "-0"); (Json.Int min_int, string_of_int min_int) ];
  Alcotest.(check string) "envelope leads with schema"
    {|{"schema":1,"x":[true,false]}|}
    (to_s
       (Json.envelope
          [ ("x", Json.List [ Json.Bool true; Json.Bool false ]) ]))

let test_parse_values () =
  let ok s =
    match Json.of_string s with
    | Ok v -> v
    | Error (off, msg) -> Alcotest.failf "%S rejected at %d: %s" s off msg
  in
  Alcotest.(check bool) "int vs float" true
    (ok " [0, -7, 1.5, 2e3, -0] "
     = Json.List
         [ Json.Int 0; Json.Int (-7); Json.Float 1.5; Json.Float 2000.0;
           Json.Float (-0.0) ]);
  Alcotest.(check bool) "escapes decode" true
    (ok {|"\"\\\/\b\f\n\r\t\u00e9\ud83d\ude00\ud800x"|}
     = Json.String "\"\\/\b\012\n\r\t\xc3\xa9\xf0\x9f\x98\x80\xef\xbf\xbdx");
  Alcotest.(check bool) "object order kept" true
    (ok {|{"b":null,"a":{}}|} = Json.Obj [ ("b", Json.Null); ("a", Json.Obj []) ])

(* Everything tools/json_lint rejected before it moved onto this parser,
   plus the range checks the parser adds. *)
let test_parse_rejects () =
  List.iter
    (fun (s, offset) ->
       match Json.of_string s with
       | Ok _ -> Alcotest.failf "accepted %S" s
       | Error (off, _) -> Alcotest.(check int) (String.escaped s) offset off)
    [ ({|{"x":inf}|}, 5); ({|{"x":-inf}|}, 6); ({|{"x":nan}|}, 5);
      ({|{"x":Infinity}|}, 5); ("01", 1); ("-01", 2); ("[00]", 2);
      ("\"a\tb\"", 2); ("\"a\nb\"", 2); ({|"\u12G4"|}, 5);
      ({|"\u12"|}, 5); ({|"\x"|}, 2); ("{} x", 3); ("1 2", 2);
      ("[1,]", 3); ({|{"a":1,}|}, 7); ({|{"a" 1}|}, 5); ("", 0); ("  ", 2);
      ("[", 1); ({|"abc|}, 4); ("tru", 0); ("1e400", 0); ("-1e999", 0);
      ("4611686018427387904", 0); ("-4611686018427387905", 0); ("1.", 2);
      (".5", 0); ("+1", 0); ("1e", 2); (String.make 600 '[', 513) ]

let json_gen =
  let open QCheck.Gen in
  let str = string_size ~gen:char (int_bound 6) in
  let leaf =
    oneof
      [ return Json.Null; map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int; map (fun x -> Json.Float x) float;
        map (fun s -> Json.String s) str ]
  in
  sized
  @@ fix (fun self n ->
      if n <= 1 then leaf
      else
        frequency
          [ (2, leaf);
            (1,
            map (fun l -> Json.List l)
              (list_size (int_bound 4) (self (n / 3))));
            (1,
             map (fun l -> Json.Obj l)
               (list_size (int_bound 4) (pair str (self (n / 3))))) ])

(* [Exact] reads back as [Float], so the fixed point is over values
   built without it; the chaos-plan property covers [Exact]. *)
let fixed_point =
  QCheck.Test.make ~count:500 ~name:"print is a fixed point of parse"
    (QCheck.make ~print:to_s json_gen)
    (fun v ->
       let s = to_s v in
       match Json.of_string s with
       | Ok v' -> to_s v' = s
       | Error (off, msg) -> QCheck.Test.fail_reportf "%d: %s" off msg)

(* Random bytes and near-valid documents: one to three byte flips,
   insertions or truncations of a printed value. *)
let mutated_gen =
  let open QCheck.Gen in
  let byte =
    oneof
      [ char;
        oneofl
          [ '{'; '}'; '['; ']'; '"'; '\\'; ','; ':'; '-'; '0'; 'e'; '.';
            'u' ] ]
  in
  let mutate s =
    let n = String.length s in
    if n = 0 then map (String.make 1) byte
    else
      oneof
        [ map2 (fun i c -> String.mapi (fun j d -> if j = i then c else d) s)
            (int_bound (n - 1)) byte;
          map2
            (fun i c ->
               String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i))
            (int_bound n) byte;
          map (fun k -> String.sub s 0 k) (int_bound n) ]
  in
  let rec mutations k s =
    if k = 0 then return s else mutate s >>= mutations (k - 1)
  in
  oneof
    [ string_size ~gen:byte (int_bound 40);
      map to_s json_gen >>= fun s -> int_range 1 3 >>= fun k -> mutations k s ]

let never_raises =
  QCheck.Test.make ~count:2000 ~name:"of_string never raises"
    (QCheck.make ~print:String.escaped mutated_gen)
    (fun s ->
       match Json.of_string s with Ok _ | Error _ -> true)

(* Exact bytes of a full registry dump. This executable registers only
   the metrics below, so the dump is fixed. *)
let test_registry_json_bytes () =
  Registry.reset ();
  Control.with_enabled (fun () ->
      Counter.add (Registry.counter "pin.count") 3;
      ignore (Registry.counter "pin.zero");
      Gauge.set (Registry.gauge "pin.gauge") 2.5;
      Gauge.set (Registry.gauge "pin.\"quoted\"") Float.nan;
      let h = Registry.histogram "pin.hist" in
      Histogram.observe h 2.0;
      Histogram.observe h 4.0;
      let s = Registry.series "pin.series" in
      Timeseries.add s ~time:0.5 1.0;
      Timeseries.add s ~time:1.0 0.25;
      let hs = Registry.series ~scope:Timeseries.Host "pin.host" in
      Timeseries.add hs ~time:1.0 1e12;
      Hop_trace.record (Registry.trace ()) ~uid:7 ~time:1.5 ~node:4 "tx";
      Hop_trace.record (Registry.trace ()) ~uid:7 ~time:1.75 ~node:5
        "drop:\"x\"";
      Event_log.record (Registry.events ()) ~time:2.0
        (Event_log.Recompile { node = 4 }));
  Alcotest.(check string) "registry"
    {|{"schema":1,"counters":{"pin.count":3,"pin.zero":0},"gauges":{"pin.\"quoted\"":0,"pin.gauge":2.5},"histograms":{"pin.hist":{"count":2,"mean":3,"p50":2.14748365,"p90":4,"p99":4,"max":4}},"series":{"pin.host":{"scope":"host","level":0,"samples":[[1,1e+12]]},"pin.series":{"scope":"sim","level":0,"samples":[[0.5,1],[1,0.25]]}},"trace":[{"uid":7,"time":1.5,"node":4,"event":"tx"},{"uid":7,"time":1.75,"node":5,"event":"drop:\"x\""}],"events":[{"seq":0,"time":2,"kind":"recompile","node":4}]}|}
    (Json.to_string (Registry.to_json ()))

let () =
  Alcotest.run "json"
    [ ("printer",
       [ Alcotest.test_case "escaping" `Quick test_escaping;
         Alcotest.test_case "numbers" `Quick test_numbers ]);
      ("parser",
       [ Alcotest.test_case "values" `Quick test_parse_values;
         Alcotest.test_case "rejects" `Quick test_parse_rejects;
         QCheck_alcotest.to_alcotest fixed_point;
         QCheck_alcotest.to_alcotest never_raises ]);
      ("registry",
       [ Alcotest.test_case "exact dump bytes" `Quick
           test_registry_json_bytes ]) ]
