type connect = { out_dlci : int; next_hop : int }

type t = {
  congestion_threshold : int;
  queue_capacity : int;
  table : (int, connect) Hashtbl.t;
  queue : (Frame.t * int) Queue.t;
  mutable de_discards : int;
}

let create ?(congestion_threshold = 16) ?(queue_capacity = 64) () =
  if congestion_threshold < 1 || queue_capacity < congestion_threshold then
    invalid_arg "Frswitch.create: thresholds inconsistent";
  { congestion_threshold; queue_capacity; table = Hashtbl.create 32;
    queue = Queue.create (); de_discards = 0 }

let cross_connect t ~in_dlci ~out_dlci ~next_hop =
  if Hashtbl.mem t.table in_dlci then
    Error (Printf.sprintf "dlci %d already cross-connected" in_dlci)
  else begin
    Hashtbl.replace t.table in_dlci { out_dlci; next_hop };
    Ok ()
  end

type forward_result =
  | Forwarded of { frame : Frame.t; next_hop : int }
  | Discarded_de
  | Queue_full
  | Unknown_dlci

let submit t (frame : Frame.t) =
  match Hashtbl.find_opt t.table frame.Frame.dlci with
  | None -> Unknown_dlci
  | Some cc ->
    let depth = Queue.length t.queue in
    if depth >= t.queue_capacity then Queue_full
    else if depth >= t.congestion_threshold && frame.Frame.de then begin
      (* Congestion: shed discard-eligible traffic first. *)
      t.de_discards <- t.de_discards + 1;
      Discarded_de
    end
    else begin
      let out =
        { frame with Frame.dlci = cc.out_dlci }
      in
      if depth >= t.congestion_threshold then out.Frame.fecn <- true;
      Queue.add (out, cc.next_hop) t.queue;
      Forwarded { frame = out; next_hop = cc.next_hop }
    end

let drain t =
  if Queue.is_empty t.queue then None else Some (Queue.pop t.queue)

let de_discards t = t.de_discards
