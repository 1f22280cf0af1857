(* JSON well-formedness check for CI: reads stdin, exits 0 if the input
   is exactly one valid JSON value (plus surrounding whitespace), exits
   1 with a "json_lint: LINE:COL: message" diagnostic otherwise. The
   grammar is the strict RFC 8259 parser every dump is read back with
   (Mvpn_telemetry.Json), so non-finite numbers are rejected too.

   With --require-schema the input must additionally be an object whose
   first member is a non-negative numeric "schema" version — the
   contract every machine-readable mvpn dump (stats/slo/chaos/par/
   timeline/soak/provision, and the registry snapshots inside them)
   carries, so downstream consumers can dispatch on format before
   parsing the rest.

   Used by tools/check.sh on `mvpn * --json` output and on
   BENCH_telemetry.json — a malformed dump should fail the gate, not
   whatever downstream tool reads the file next. *)

module Json = Mvpn_telemetry.Json

let require_schema = Array.exists (( = ) "--require-schema") Sys.argv

let input = In_channel.input_all stdin

let fail offset msg =
  (* 1-based line:column of the byte offset. *)
  let line = ref 1 and col = ref 1 in
  for i = 0 to min offset (String.length input) - 1 do
    if input.[i] = '\n' then begin
      incr line;
      col := 1
    end
    else incr col
  done;
  Printf.eprintf "json_lint: %d:%d: %s\n" !line !col msg;
  exit 1

let () =
  match Json.of_string input with
  | Error (offset, msg) -> fail offset msg
  | Ok v when require_schema -> (
    match v with
    | Json.Obj (("schema", Json.Int n) :: _) when n >= 0 -> ()
    | Json.Obj (("schema", Json.Float x) :: _) when not (Float.sign_bit x) ->
      ()
    | Json.Obj (("schema", _) :: _) ->
      fail 0 "--require-schema: \"schema\" is not a number"
    | Json.Obj _ -> fail 0 "--require-schema: first member is not \"schema\""
    | _ -> fail 0 "--require-schema: top-level value is not an object")
  | Ok _ -> ()
