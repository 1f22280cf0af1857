let cell_bytes = 53

let header_bytes = 5

let payload_bytes = 48

type t = {
  vpi : int;
  vci : int;
  last_of_frame : bool;
  clp : bool;
  frame_id : int;
  index : int;
}

let make ~vpi ~vci ?(clp = false) ~frame_id ~index ~last_of_frame () =
  if vpi < 0 || vpi > 255 then
    invalid_arg (Printf.sprintf "Cell.make: vpi %d out of range" vpi);
  if vci < 0 || vci > 65535 then
    invalid_arg (Printf.sprintf "Cell.make: vci %d out of range" vci);
  { vpi; vci; last_of_frame; clp; frame_id; index }
