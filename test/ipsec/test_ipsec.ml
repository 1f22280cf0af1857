open Mvpn_ipsec
module Packet = Mvpn_net.Packet
module Flow = Mvpn_net.Flow
module Dscp = Mvpn_net.Dscp
module Ipv4 = Mvpn_net.Ipv4

let ip = Ipv4.of_string_exn

(* --- Crypto ------------------------------------------------------------- *)

let test_crypto_cost_ratio () =
  let des = Crypto.processing_delay Crypto.Des ~bytes:100_000 in
  let des3 = Crypto.processing_delay Crypto.Des3 ~bytes:100_000 in
  let ratio = des3 /. des in
  Alcotest.(check bool) "3des is about 3x des" true
    (ratio > 2.7 && ratio < 3.3);
  Alcotest.(check (float 1e-12)) "null is free" 0.0
    (Crypto.processing_delay Crypto.Null ~bytes:100_000)

let test_crypto_cost_monotone () =
  let small = Crypto.processing_delay Crypto.Des ~bytes:100 in
  let large = Crypto.processing_delay Crypto.Des ~bytes:10_000 in
  Alcotest.(check bool) "more bytes, more time" true (large > small);
  Alcotest.(check bool) "per-packet floor" true (small > 0.0)

let test_crypto_block_roundtrip () =
  let key = 0xDEADBEEFCAFEBABEL in
  List.iter
    (fun block ->
       Alcotest.(check int64) "roundtrip" block
         (Crypto.decrypt_block ~key (Crypto.encrypt_block ~key block)))
    [0L; 1L; -1L; 0x0123456789ABCDEFL; Int64.min_int; Int64.max_int]

let test_crypto_block_scrambles () =
  let key = 42L in
  let c0 = Crypto.encrypt_block ~key 0L in
  let c1 = Crypto.encrypt_block ~key 1L in
  Alcotest.(check bool) "ciphertext differs from plaintext" true (c0 <> 0L);
  Alcotest.(check bool) "nearby plaintexts diverge" true (c0 <> c1);
  let other = Crypto.encrypt_block ~key:43L 0L in
  Alcotest.(check bool) "key matters" true (c0 <> other)

let test_crypto_bytes_roundtrip () =
  let key = 7L in
  let plain = Bytes.of_string "the inner IP header: EF dscp 10.0.0.1" in
  let cipher = Crypto.encrypt_bytes ~key plain in
  Alcotest.(check bool) "unreadable" true
    (not (String.equal (Bytes.to_string plain)
            (String.sub (Bytes.to_string cipher) 0 (Bytes.length plain))));
  let back = Crypto.decrypt_bytes ~key cipher in
  Alcotest.(check string) "roundtrip up to padding"
    (Bytes.to_string plain)
    (String.sub (Bytes.to_string back) 0 (Bytes.length plain))

let test_crypto_bytes_bad_length () =
  Alcotest.check_raises "not a block multiple"
    (Invalid_argument "Crypto.decrypt_bytes: length not a block multiple")
    (fun () -> ignore (Crypto.decrypt_bytes ~key:1L (Bytes.create 7)))

let test_crypto_throughput_ordering () =
  Alcotest.(check bool) "null unbounded" true
    (Crypto.throughput_bps Crypto.Null = infinity);
  Alcotest.(check bool) "des 3x 3des" true
    (Crypto.throughput_bps Crypto.Des
     > 2.9 *. Crypto.throughput_bps Crypto.Des3)

let crypto_roundtrip_prop =
  QCheck.Test.make ~name:"feistel roundtrips any block" ~count:500
    QCheck.(pair int64 int64)
    (fun (key, block) ->
       Crypto.decrypt_block ~key (Crypto.encrypt_block ~key block) = block)

(* --- Esp ----------------------------------------------------------------- *)

let test_esp_overhead_null () =
  (* Null cipher: outer 20 + esp 8 + iv 0 + pad 0..? + trailer 2 + auth 12. *)
  let o = Esp.overhead Crypto.Null ~payload:100 in
  Alcotest.(check int) "null overhead" (20 + 8 + 0 + 0 + 2 + 12) o

let test_esp_overhead_des_padding () =
  (* payload 100 + trailer 2 = 102; pad to 104 -> 2 bytes of pad. *)
  let o = Esp.overhead Crypto.Des ~payload:100 in
  Alcotest.(check int) "des overhead" (20 + 8 + 8 + 2 + 2 + 12) o;
  (* payload 102 + 2 = 104 already a multiple -> no pad. *)
  Alcotest.(check int) "no pad case" (20 + 8 + 8 + 0 + 2 + 12)
    (Esp.overhead Crypto.Des ~payload:102)

let esp_padding_aligns =
  QCheck.Test.make ~name:"esp padded body is block aligned" ~count:300
    QCheck.(int_range 1 9000)
    (fun payload ->
       let pad = Esp.pad_bytes Crypto.Des3 ~payload in
       (payload + Esp.trailer_bytes + pad) mod 8 = 0 && pad >= 0 && pad < 8)

(* --- Replay -------------------------------------------------------------- *)

let test_replay_in_order () =
  let w = Replay.create () in
  for seq = 1 to 100 do
    match Replay.check w seq with
    | Replay.Accepted -> ()
    | _ -> Alcotest.failf "rejected fresh seq %d" seq
  done;
  Alcotest.(check int) "highest" 100 (Replay.highest_seen w)

let test_replay_duplicate () =
  let w = Replay.create () in
  ignore (Replay.check w 5);
  Alcotest.(check bool) "duplicate rejected" true
    (Replay.check w 5 = Replay.Duplicate)

let test_replay_out_of_order_within_window () =
  let w = Replay.create () in
  ignore (Replay.check w 10);
  Alcotest.(check bool) "late but fresh" true
    (Replay.check w 7 = Replay.Accepted);
  Alcotest.(check bool) "then duplicate" true
    (Replay.check w 7 = Replay.Duplicate)

let test_replay_too_old () =
  let w = Replay.create () in
  ignore (Replay.check w 100);
  (* The 62-wide window reaches back to 39. *)
  Alcotest.(check bool) "beyond window" true
    (Replay.check w 38 = Replay.Too_old);
  Alcotest.(check bool) "just inside" true
    (Replay.check w 39 = Replay.Accepted)

let replay_never_accepts_twice =
  QCheck.Test.make ~name:"window never accepts a seq twice" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 1 200) (int_range 1 100))
    (fun seqs ->
       let w = Replay.create () in
       let accepted = Hashtbl.create 16 in
       List.for_all
         (fun seq ->
            match Replay.check w seq with
            | Replay.Accepted ->
              if Hashtbl.mem accepted seq then false
              else begin
                Hashtbl.add accepted seq ();
                true
              end
            | Replay.Duplicate | Replay.Too_old -> true)
         seqs)

(* --- Ike ----------------------------------------------------------------- *)

let test_ike_delays () =
  let p = Ike.default_params ~rtt:0.040 in
  Alcotest.(check (float 1e-9)) "phase1" ((3.0 *. 0.040) +. 0.040)
    (Ike.phase1_delay p);
  Alcotest.(check (float 1e-9)) "phase2" ((1.5 *. 0.040) +. 0.020)
    (Ike.phase2_delay p);
  Alcotest.(check bool) "setup dominated by handshakes" true
    (Ike.initial_setup_delay p > 4.0 *. 0.040)

let test_ike_rekey_changes_key () =
  let p = { (Ike.default_params ~rtt:0.01) with Ike.sa_lifetime = 100.0 } in
  let ike = Ike.create p ~now:0.0 in
  let ready = Ike.ready_at ike in
  let k0 = Ike.key_at ike ~now:(ready +. 1.0) in
  let k1 = Ike.key_at ike ~now:(ready +. 150.0) in
  Alcotest.(check bool) "rekeyed" true (k0 <> k1);
  Alcotest.(check int) "one rekey" 1
    (Ike.rekeys_before ike ~now:(ready +. 150.0));
  Alcotest.check_raises "too early"
    (Invalid_argument "Ike.key_at: tunnel not yet established") (fun () ->
      ignore (Ike.key_at ike ~now:0.0))

(* --- Sa ------------------------------------------------------------------ *)

let test_sa_seq_and_accounting () =
  let sa = Sa.create ~spi:0x99 in
  Alcotest.(check int) "seq 1" 1 (Sa.next_seq sa);
  Alcotest.(check int) "seq 2" 2 (Sa.next_seq sa);
  Sa.account sa ~bytes:500;
  Sa.account sa ~bytes:300;
  Alcotest.(check int) "bytes" 800 (Sa.bytes_processed sa);
  Alcotest.(check int) "packets" 2 (Sa.packets_processed sa);
  Alcotest.(check int) "spi" 0x99 (Sa.spi sa)

(* --- Tunnel -------------------------------------------------------------- *)

let fresh_packet ?(dscp = Dscp.ef) () =
  Packet.make ~dscp ~size:512 ~now:0.0
    (Flow.make ~proto:Flow.Udp ~dst_port:5060 (ip "10.1.0.5")
       (ip "10.2.0.9"))

let gateway_pair ?copy_tos cipher =
  Tunnel.create ?copy_tos ~cipher ~local:(ip "198.51.100.1")
    ~remote:(ip "198.51.100.2") ()

let test_tunnel_roundtrip () =
  let t = gateway_pair Crypto.Des in
  let p = fresh_packet () in
  let original_size = p.Packet.size in
  let enc_delay = Tunnel.encapsulate t p in
  Alcotest.(check bool) "encryption costs time" true (enc_delay > 0.0);
  Alcotest.(check bool) "bigger on the wire" true
    (p.Packet.size > original_size);
  Alcotest.(check bool) "encrypted" true p.Packet.encrypted;
  (match Tunnel.decapsulate t p with
   | Tunnel.Decapsulated d -> Alcotest.(check bool) "decrypt cost" true (d > 0.0)
   | _ -> Alcotest.fail "decap failed");
  Alcotest.(check int) "size restored" original_size p.Packet.size;
  Alcotest.(check bool) "readable again" false p.Packet.encrypted

let test_tunnel_tos_erasure () =
  let t = gateway_pair Crypto.Des in
  let p = fresh_packet ~dscp:Dscp.ef () in
  ignore (Tunnel.encapsulate t p);
  Alcotest.(check bool) "EF invisible in transit" true
    (Dscp.equal (Packet.visible_dscp p) Dscp.best_effort);
  Alcotest.(check bool) "5-tuple invisible" true
    (Packet.classifiable_flow p = None)

let test_tunnel_tos_copy_preserves_class () =
  let t = gateway_pair ~copy_tos:true Crypto.Des in
  let p = fresh_packet ~dscp:Dscp.ef () in
  ignore (Tunnel.encapsulate t p);
  Alcotest.(check bool) "EF visible on outer header" true
    (Dscp.equal (Packet.visible_dscp p) Dscp.ef);
  (* The flow details remain hidden either way: only the class leaks. *)
  Alcotest.(check bool) "5-tuple still hidden" true
    (Packet.classifiable_flow p = None)

let test_tunnel_replay_rejected () =
  let t = gateway_pair Crypto.Des in
  let p = fresh_packet () in
  ignore (Tunnel.encapsulate t p);
  (match Tunnel.decapsulate t p with
   | Tunnel.Decapsulated _ -> ()
   | _ -> Alcotest.fail "first copy should pass");
  (* Attacker re-injects the same ESP packet. *)
  let replayed = fresh_packet () in
  ignore (Tunnel.encapsulate t replayed);
  (* Forge: give the copy the original's sequence number by replaying
     the original uid→seq entry. Simplest faithful model: decapsulate
     the original packet again. *)
  Packet.encapsulate p ~src:(ip "198.51.100.1") ~dst:(ip "198.51.100.2")
    ~proto:Flow.Esp ~overhead:57 ~copy_tos:false;
  (match Tunnel.decapsulate t p with
   | Tunnel.Replayed -> ()
   | _ -> Alcotest.fail "replayed packet must be dropped");
  Alcotest.(check int) "replay counted" 1 (Tunnel.replay_drops t)

let test_tunnel_wrong_destination () =
  let t = gateway_pair Crypto.Des in
  let other =
    Tunnel.create ~cipher:Crypto.Des ~local:(ip "198.51.100.1")
      ~remote:(ip "203.0.113.9") ()
  in
  let p = fresh_packet () in
  ignore (Tunnel.encapsulate other p);
  match Tunnel.decapsulate t p with
  | Tunnel.Not_ours -> ()
  | _ -> Alcotest.fail "should not decapsulate someone else's traffic"

let test_tunnel_null_cipher_keeps_headers_visible () =
  let t = gateway_pair Crypto.Null in
  let p = fresh_packet ~dscp:Dscp.ef () in
  let d = Tunnel.encapsulate t p in
  Alcotest.(check (float 1e-12)) "free" 0.0 d;
  Alcotest.(check bool) "not encrypted" false p.Packet.encrypted;
  (* Outer header still governs what classifiers see, but the inner
     5-tuple is readable because nothing is encrypted. *)
  Alcotest.(check bool) "flow classifiable" true
    (Packet.classifiable_flow p <> None)

let test_tunnel_3des_slower_than_des () =
  let t3 = gateway_pair Crypto.Des3 and t1 = gateway_pair Crypto.Des in
  let p3 = fresh_packet () and p1 = fresh_packet () in
  let d3 = Tunnel.encapsulate t3 p3 and d1 = Tunnel.encapsulate t1 p1 in
  Alcotest.(check bool) "3des costlier" true (d3 > d1)

let test_tunnel_counters () =
  let t = gateway_pair Crypto.Des in
  Alcotest.(check int) "fresh" 0 (Tunnel.packets_sent t);
  let p = fresh_packet () in
  ignore (Tunnel.encapsulate t p);
  ignore (Tunnel.encapsulate t (fresh_packet ()));
  Alcotest.(check int) "two sent" 2 (Tunnel.packets_sent t);
  Alcotest.(check int) "no replays yet" 0 (Tunnel.replay_drops t);
  Alcotest.(check bool) "accessors" true
    (Tunnel.cipher t = Crypto.Des && not (Tunnel.copy_tos t))

let test_ike_no_rekey_within_lifetime () =
  let p = Ike.default_params ~rtt:0.01 in
  let ike = Ike.create p ~now:0.0 in
  let ready = Ike.ready_at ike in
  Alcotest.(check int) "zero rekeys early" 0
    (Ike.rekeys_before ike ~now:(ready +. 10.0));
  Alcotest.(check bool) "key stable within lifetime" true
    (Ike.key_at ike ~now:(ready +. 1.0)
     = Ike.key_at ike ~now:(ready +. 3000.0))

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "ipsec"
    [ ("crypto",
       [ Alcotest.test_case "cost ratio" `Quick test_crypto_cost_ratio;
         Alcotest.test_case "cost monotone" `Quick test_crypto_cost_monotone;
         Alcotest.test_case "block roundtrip" `Quick
           test_crypto_block_roundtrip;
         Alcotest.test_case "block scrambles" `Quick
           test_crypto_block_scrambles;
         Alcotest.test_case "bytes roundtrip" `Quick
           test_crypto_bytes_roundtrip;
         Alcotest.test_case "bad length" `Quick test_crypto_bytes_bad_length;
         Alcotest.test_case "throughput ordering" `Quick
           test_crypto_throughput_ordering;
         qt crypto_roundtrip_prop ]);
      ("esp",
       [ Alcotest.test_case "null overhead" `Quick test_esp_overhead_null;
         Alcotest.test_case "des padding" `Quick
           test_esp_overhead_des_padding;
         qt esp_padding_aligns ]);
      ("replay",
       [ Alcotest.test_case "in order" `Quick test_replay_in_order;
         Alcotest.test_case "duplicate" `Quick test_replay_duplicate;
         Alcotest.test_case "out of order" `Quick
           test_replay_out_of_order_within_window;
         Alcotest.test_case "too old" `Quick test_replay_too_old;
         qt replay_never_accepts_twice ]);
      ("ike",
       [ Alcotest.test_case "delays" `Quick test_ike_delays;
         Alcotest.test_case "rekey" `Quick test_ike_rekey_changes_key;
         Alcotest.test_case "stable within lifetime" `Quick
           test_ike_no_rekey_within_lifetime ]);
      ("sa",
       [ Alcotest.test_case "seq and accounting" `Quick
           test_sa_seq_and_accounting ]);
      ("tunnel",
       [ Alcotest.test_case "roundtrip" `Quick test_tunnel_roundtrip;
         Alcotest.test_case "tos erasure" `Quick test_tunnel_tos_erasure;
         Alcotest.test_case "tos copy" `Quick
           test_tunnel_tos_copy_preserves_class;
         Alcotest.test_case "replay rejected" `Quick
           test_tunnel_replay_rejected;
         Alcotest.test_case "wrong destination" `Quick
           test_tunnel_wrong_destination;
         Alcotest.test_case "null cipher visibility" `Quick
           test_tunnel_null_cipher_keeps_headers_visible;
         Alcotest.test_case "3des slower" `Quick
           test_tunnel_3des_slower_than_des;
         Alcotest.test_case "counters" `Quick test_tunnel_counters ]) ]
