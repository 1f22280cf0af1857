type category =
  | Cbr of { pcr : float }
  | Vbr of { scr : float; pcr : float; mbs : int }
  | Ubr

type cross_connect = {
  out_vpi : int;
  out_vci : int;
  next_hop : int;
  category : category;
}

type t = {
  line_cell_rate : float;
  table : (int * int, cross_connect) Hashtbl.t;
  mutable reserved : float;  (* cells per second *)
}

let create ~line_rate_bps =
  if line_rate_bps <= 0.0 then
    invalid_arg "Switch.create: line rate must be positive";
  { line_cell_rate = line_rate_bps /. (float_of_int Cell.cell_bytes *. 8.0);
    table = Hashtbl.create 64; reserved = 0.0 }

let reservation_of = function
  | Cbr { pcr } -> pcr
  | Vbr { scr; _ } -> scr
  | Ubr -> 0.0

let validate_category = function
  | Cbr { pcr } ->
    if pcr <= 0.0 then Error "CBR peak cell rate must be positive" else Ok ()
  | Vbr { scr; pcr; mbs } ->
    if scr <= 0.0 then Error "VBR sustained cell rate must be positive"
    else if pcr < scr then Error "VBR peak below sustained rate"
    else if mbs < 1 then Error "VBR burst size must be at least 1"
    else Ok ()
  | Ubr -> Ok ()

let admit t ~in_vpi ~in_vci ~out_vpi ~out_vci ~next_hop category =
  match validate_category category with
  | Error _ as e -> e
  | Ok () ->
    if Hashtbl.mem t.table (in_vpi, in_vci) then
      Error
        (Printf.sprintf "VC %d/%d already cross-connected" in_vpi in_vci)
    else begin
      let demand = reservation_of category in
      if t.reserved +. demand > t.line_cell_rate then
        Error "insufficient line capacity"
      else begin
        t.reserved <- t.reserved +. demand;
        Hashtbl.replace t.table (in_vpi, in_vci)
          { out_vpi; out_vci; next_hop; category };
        Ok ()
      end
    end

let release t ~in_vpi ~in_vci =
  match Hashtbl.find_opt t.table (in_vpi, in_vci) with
  | None -> false
  | Some cc ->
    t.reserved <- Float.max 0.0 (t.reserved -. reservation_of cc.category);
    Hashtbl.remove t.table (in_vpi, in_vci);
    true

let switch t (c : Cell.t) =
  match Hashtbl.find_opt t.table (c.Cell.vpi, c.Cell.vci) with
  | None -> None
  | Some cc ->
    Some
      ( { c with Cell.vpi = cc.out_vpi; vci = cc.out_vci }, cc.next_hop )

let reserved_fraction t =
  if t.line_cell_rate <= 0.0 then 0.0 else t.reserved /. t.line_cell_rate

let vc_count t = Hashtbl.length t.table
