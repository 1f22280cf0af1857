let header_bytes = 2

let flag_and_fcs_bytes = 4

let overhead_bytes = header_bytes + flag_and_fcs_bytes

type t = {
  dlci : int;
  payload : int;
  mutable de : bool;
  mutable fecn : bool;
  mutable becn : bool;
}

let make ~dlci ~payload =
  if dlci < 16 || dlci > 1007 then
    invalid_arg (Printf.sprintf "Frame.make: dlci %d outside 16-1007" dlci);
  if payload <= 0 then invalid_arg "Frame.make: payload must be positive";
  { dlci; payload; de = false; fecn = false; becn = false }

let wire_bytes t = t.payload + overhead_bytes
