(* E12 — frame relay parity (§1, §5 conclusion).

   "Together, these technologies enable services with performance
   characteristics rivaling those of frame relay solutions but with the
   added benefit of being standards-based."

   Three parity checks against the FR substrate:
   (a) the traffic contract: FR CIR/Bc/Be policing and the DiffServ
       srTCM meter make identical per-frame decisions;
   (b) the congestion contract: FR sheds DE frames first under
       pressure, as WRED sheds high drop precedence first (A2);
   (c) the overhead: FR's 6 bytes vs the 8-byte MPLS stack vs ATM. *)

open Mvpn_frelay
module Meter = Mvpn_qos.Meter
module Rng = Mvpn_sim.Rng

let contract_parity () =
  Tables.heading "E12a: FR CIR/Bc/Be vs DiffServ srTCM on one bursty trace";
  let cir = 128_000.0 and burst = 64_000.0 in
  let pvc =
    Pvc.create { Pvc.cir_bps = cir; bc_bits = burst; be_bits = burst }
  in
  let meter =
    Meter.srtcm ~cir_bps:cir ~cbs_bytes:(burst /. 8.0)
      ~ebs_bytes:(burst /. 8.0)
  in
  let rng = Rng.create 2024 in
  let n = 50_000 in
  let agree = ref 0 in
  let fr_counts = [| 0; 0; 0 |] and ds_counts = [| 0; 0; 0 |] in
  let now = ref 0.0 in
  for _ = 1 to n do
    now := !now +. Rng.exponential rng ~rate:40.0;
    let payload = Rng.int_in rng 64 1494 in
    let frame = Frame.make ~dlci:100 ~payload in
    let fr = Pvc.police pvc ~now:!now frame in
    let ds = Meter.meter meter ~now:!now ~bytes:(Frame.wire_bytes frame) in
    let fr_idx =
      match fr with Pvc.Committed -> 0 | Pvc.Excess -> 1 | Pvc.Dropped -> 2
    in
    let ds_idx =
      match ds with
      | Meter.Green -> 0
      | Meter.Yellow -> 1
      | Meter.Red -> 2
    in
    fr_counts.(fr_idx) <- fr_counts.(fr_idx) + 1;
    ds_counts.(ds_idx) <- ds_counts.(ds_idx) + 1;
    if fr_idx = ds_idx then incr agree
  done;
  let widths = [22; 12; 12; 12] in
  Tables.row widths ["mechanism"; "committed"; "excess/DE"; "dropped"];
  Tables.rule widths;
  Tables.row widths
    [ "FR CIR/Bc/Be"; string_of_int fr_counts.(0);
      string_of_int fr_counts.(1); string_of_int fr_counts.(2) ];
  Tables.row widths
    [ "DiffServ srTCM"; string_of_int ds_counts.(0);
      string_of_int ds_counts.(1); string_of_int ds_counts.(2) ];
  Tables.note "\nPer-frame agreement: %d / %d (%.2f%%)." !agree n
    (100.0 *. float_of_int !agree /. float_of_int n)

let congestion_parity () =
  Tables.heading "E12b: congestion contract — DE shedding under pressure";
  let sw = Frswitch.create ~congestion_threshold:8 ~queue_capacity:24 () in
  ignore (Frswitch.cross_connect sw ~in_dlci:100 ~out_dlci:100 ~next_hop:1);
  let rng = Rng.create 99 in
  let offered_clean = ref 0 and offered_de = ref 0 in
  let lost_clean = ref 0 and lost_de = ref 0 in
  for _ = 1 to 4000 do
    (* Offer two frames per drain: sustained 2x overload. *)
    for _ = 1 to 2 do
      let frame = Frame.make ~dlci:100 ~payload:500 in
      let de = Rng.bool rng 0.5 in
      frame.Frame.de <- de;
      if de then incr offered_de else incr offered_clean;
      match Frswitch.submit sw frame with
      | Frswitch.Forwarded _ -> ()
      | Frswitch.Discarded_de -> incr lost_de
      | Frswitch.Queue_full ->
        if de then incr lost_de else incr lost_clean
      | Frswitch.Unknown_dlci -> ()
    done;
    ignore (Frswitch.drain sw)
  done;
  let widths = [14; 10; 10; 10] in
  Tables.row widths ["colour"; "offered"; "lost"; "loss"];
  Tables.rule widths;
  Tables.row widths
    [ "clean"; string_of_int !offered_clean; string_of_int !lost_clean;
      Tables.pct (float_of_int !lost_clean /. float_of_int !offered_clean) ];
  Tables.row widths
    [ "DE-marked"; string_of_int !offered_de; string_of_int !lost_de;
      Tables.pct (float_of_int !lost_de /. float_of_int !offered_de) ];
  Tables.note
    "\nFR's DE bit buys clean traffic priority under congestion exactly\n\
     as WRED's drop precedences do for AF classes (ablation A2) — the\n\
     'rivaling frame relay' claim holds mechanism by mechanism."

let overhead_parity () =
  Tables.heading "E12c: per-packet overhead, FR vs MPLS vs ATM (1500 B)";
  let widths = [22; 12; 10] in
  Tables.row widths ["transport"; "overhead B"; "tax"];
  Tables.rule widths;
  let payload = 1500 in
  Tables.row widths
    [ "frame relay"; string_of_int Frame.overhead_bytes;
      Tables.pct
        (float_of_int Frame.overhead_bytes
         /. float_of_int (payload + Frame.overhead_bytes)) ];
  Tables.row widths
    [ "mpls (2 labels)"; "8";
      Tables.pct (8.0 /. float_of_int (payload + 8)) ];
  let atm_over = Mvpn_atm.Aal5.wire_bytes ~payload - payload in
  Tables.row widths
    [ "atm/aal5"; string_of_int atm_over;
      Tables.pct (Mvpn_atm.Aal5.overhead_fraction ~payload) ];
  Tables.note
    "\nMPLS matches frame relay's frugality (within 2 bytes) while\n\
     running over any layer 2 — 'regardless of the layer 2 technology'\n\
     (§3)."

(* The constructive form of parity: carry an actual FR PVC across the
   label-switched backbone on a pseudowire and verify the service. *)
let interworking () =
  Tables.heading
    "E12d: a frame relay PVC emulated over the MPLS backbone (pseudowire)";
  let open Mvpn_core in
  let bb = Backbone.build ~pops:8 () in
  let engine = Mvpn_sim.Engine.create () in
  let net =
    Network.create
      ~policy:(Qos_mapping.Diffserv Qos_mapping.default_diffserv_sched)
      engine (Backbone.topology bb)
  in
  let l2 = L2vpn.deploy ~net ~backbone:bb in
  let pops = Backbone.pops bb in
  let carried : (int, Frame.t) Hashtbl.t = Hashtbl.create 64 in
  let delivered = ref 0 and de_preserved = ref 0 in
  let collector = Mvpn_qos.Sla.collector () in
  let pw =
    match
      L2vpn.create_pw l2
        ~a:{ L2vpn.pe = pops.(0); on_deliver = (fun _ -> ()) }
        ~b:
          { L2vpn.pe = pops.(3);
            on_deliver =
              (fun p ->
                 incr delivered;
                 Mvpn_qos.Sla.on_receive collector
                   ~clock:(Mvpn_sim.Engine.clock engine) p;
                 match Hashtbl.find_opt carried p.Mvpn_net.Packet.uid with
                 | Some f -> if f.Frame.de then incr de_preserved
                 | None -> ()) }
    with
    | Ok id -> id
    | Error e -> failwith e
  in
  (* A policed PVC feeding the wire: in-profile clean, excess DE. *)
  let pvc = Pvc.create (Pvc.default_contract ~cir_bps:256_000.0) in
  let offered = ref 0 and policed = ref 0 in
  let emit _ =
    incr offered;
    let now = Mvpn_sim.Engine.now engine in
    let frame = Frame.make ~dlci:100 ~payload:800 in
    match Pvc.police pvc ~now frame with
    | Pvc.Dropped -> incr policed
    | Pvc.Committed | Pvc.Excess ->
      let p =
        Mvpn_net.Packet.make ~size:(Frame.wire_bytes frame) ~now
          (Mvpn_net.Flow.make
             (Mvpn_net.Ipv4.of_octets 192 168 0 1)
             (Mvpn_net.Ipv4.of_octets 192 168 0 2))
      in
      Hashtbl.replace carried p.Mvpn_net.Packet.uid frame;
      Mvpn_qos.Sla.on_send collector ~clock:(Mvpn_sim.Engine.clock engine)
        ~bytes:p.Mvpn_net.Packet.size;
      L2vpn.send l2 ~pw ~from_a:true p
  in
  (* Offer 2x CIR so policing is visible. *)
  Mvpn_core.Traffic.cbr engine ~start:0.0 ~stop:20.0 ~rate_bps:512_000.0
    ~packet_bytes:800 emit;
  Mvpn_sim.Engine.run engine;
  let r = Mvpn_qos.Sla.report collector in
  let widths = [34; 12] in
  Tables.row widths ["measure"; "value"];
  Tables.rule widths;
  Tables.row widths ["frames offered"; string_of_int !offered];
  Tables.row widths ["policed at the PVC (beyond Bc+Be)"; string_of_int !policed];
  Tables.row widths ["delivered across the backbone"; string_of_int !delivered];
  Tables.row widths
    ["DE-marked frames surviving intact"; string_of_int !de_preserved];
  Tables.row widths ["misordered"; string_of_int (L2vpn.misordered l2 ~pw)];
  Tables.row widths ["mean delay (ms)"; Tables.ms r.Mvpn_qos.Sla.mean_delay];
  Tables.note
    "\nThe FR service contract (CIR policing, DE marking) applies at the\n\
     edge, the MPLS backbone carries the frames on a pseudowire without\n\
     reordering, and the DE bit arrives intact for the far-end switch —\n\
     the existing-service migration path §1 demands ('mechanisms...\n\
     which work over existing deployed backbones')."

let run () =
  contract_parity ();
  congestion_parity ();
  overhead_parity ();
  interworking ()
