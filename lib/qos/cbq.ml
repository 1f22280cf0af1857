module Dscp = Mvpn_net.Dscp
module Packet = Mvpn_net.Packet

type exceed_action =
  | Remark of Dscp.t
  | Demote_best_effort
  | Police_drop

type class_cfg = {
  name : string;
  rate_bps : float;
  burst_bytes : float;
  dscp : Dscp.t;
  exceed : exceed_action;
  borrow : bool;
}

type class_state = { cfg : class_cfg; bucket : Token_bucket.t }

type t = {
  classifier : int Classifier.t;
  classes : class_state array;
  parent : Token_bucket.t option;  (* the borrowable shared allocation *)
}

let create ?parent_rate_bps ~classes ~rules () =
  let states =
    Array.map
      (fun cfg ->
         { cfg;
           bucket =
             Token_bucket.create ~rate_bps:cfg.rate_bps
               ~burst_bytes:cfg.burst_bytes })
      classes
  in
  let classifier = Classifier.create rules in
  if Array.length classes = 0 && rules <> [] then
    invalid_arg "Cbq.create: rules but no classes";
  let parent =
    let rate =
      match parent_rate_bps with
      | Some r -> r
      | None ->
        Array.fold_left (fun acc c -> acc +. c.rate_bps) 0.0 classes
    in
    if rate > 0.0 && Array.exists (fun c -> c.borrow) classes then
      Some
        (Token_bucket.create ~rate_bps:rate
           ~burst_bytes:(Float.max 1500.0 (rate /. 8.0)))
    else None
  in
  { classifier; classes = states; parent }

type verdict =
  | Marked of { dscp : Dscp.t; class_name : string }
  | Dropped of { class_name : string }

let mark packet dscp =
  packet.Packet.inner.Packet.dscp <- dscp

let process t ~now packet =
  match Classifier.classify t.classifier packet with
  | None ->
    mark packet Dscp.best_effort;
    Marked { dscp = Dscp.best_effort; class_name = "default" }
  | Some idx ->
    if idx < 0 || idx >= Array.length t.classes then
      invalid_arg (Printf.sprintf "Cbq.process: rule action %d out of range" idx);
    let cls = t.classes.(idx) in
    let conform =
      Token_bucket.take cls.bucket ~now ~bytes:packet.Packet.size
    in
    (* Parent accounting: conforming traffic always draws the shared
       allocation down (that's what makes it unavailable to borrow);
       over-limit traffic of a borrowing class may take what is left. *)
    let borrowed =
      match t.parent with
      | None -> false
      | Some parent ->
        if conform then begin
          Token_bucket.drain parent ~now ~bytes:packet.Packet.size;
          false
        end
        else
          cls.cfg.borrow
          && Token_bucket.take parent ~now ~bytes:packet.Packet.size
    in
    if conform || borrowed then begin
      mark packet cls.cfg.dscp;
      Marked { dscp = cls.cfg.dscp; class_name = cls.cfg.name }
    end
    else begin
      match cls.cfg.exceed with
      | Remark d ->
        mark packet d;
        Marked { dscp = d; class_name = cls.cfg.name }
      | Demote_best_effort ->
        mark packet Dscp.best_effort;
        Marked { dscp = Dscp.best_effort; class_name = cls.cfg.name }
      | Police_drop -> Dropped { class_name = cls.cfg.name }
    end
