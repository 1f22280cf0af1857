open Mvpn_net

(* --- Ipv4 ------------------------------------------------------------- *)

let ip = Ipv4.of_string_exn

let test_ipv4_octets () =
  let a = Ipv4.of_octets 10 1 2 3 in
  Alcotest.(check string) "render" "10.1.2.3" (Ipv4.to_string a);
  Alcotest.(check (pair (pair int int) (pair int int))) "octets"
    ((10, 1), (2, 3))
    (let a, b, c, d = Ipv4.to_octets a in ((a, b), (c, d)))

let test_ipv4_parse_valid () =
  Alcotest.(check int) "value" ((192 lsl 24) lor (168 lsl 16) lor 257)
    (Ipv4.to_int (ip "192.168.1.1"))

let test_ipv4_parse_invalid () =
  let bad s =
    match Ipv4.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error _ -> ()
  in
  List.iter bad
    [""; "1.2.3"; "1.2.3.4.5"; "256.1.1.1"; "-1.2.3.4"; "a.b.c.d";
     "1..2.3"; "1000.2.3.4"]

let test_ipv4_bounds () =
  Alcotest.check_raises "negative" (Invalid_argument
    "Ipv4.of_int32_exn: -1 out of range") (fun () ->
    ignore (Ipv4.of_int32_exn (-1)));
  Alcotest.(check string) "broadcast" "255.255.255.255"
    (Ipv4.to_string Ipv4.broadcast)

let test_ipv4_arith () =
  Alcotest.(check string) "succ" "10.0.0.1"
    (Ipv4.to_string (Ipv4.succ (ip "10.0.0.0")));
  Alcotest.(check string) "wrap" "0.0.0.0"
    (Ipv4.to_string (Ipv4.succ Ipv4.broadcast));
  Alcotest.(check string) "add" "10.0.1.0"
    (Ipv4.to_string (Ipv4.add (ip "10.0.0.0") 256))

let ipv4_roundtrip =
  QCheck.Test.make ~name:"ipv4 string roundtrip" ~count:500
    (QCheck.int_bound 0xFFFF_FFF)
    (fun seed ->
       let a = Ipv4.of_int32_exn (seed * 16) in
       Ipv4.equal a (Ipv4.of_string_exn (Ipv4.to_string a)))

(* --- Prefix ----------------------------------------------------------- *)

let pfx = Prefix.of_string_exn

let test_prefix_canonical () =
  let p = Prefix.make (ip "10.1.2.3") 16 in
  Alcotest.(check string) "canonical" "10.1.0.0/16" (Prefix.to_string p);
  Alcotest.(check bool) "equal" true (Prefix.equal p (pfx "10.1.255.255/16"))

let test_prefix_parse () =
  Alcotest.(check string) "bare address is /32" "10.0.0.1/32"
    (Prefix.to_string (pfx "10.0.0.1"));
  (match Prefix.of_string "10.0.0.0/33" with
   | Ok _ -> Alcotest.fail "accepted /33"
   | Error _ -> ());
  match Prefix.of_string "10.0.0/8" with
  | Ok _ -> Alcotest.fail "accepted bad address"
  | Error _ -> ()

let test_prefix_mem () =
  let p = pfx "172.16.0.0/12" in
  Alcotest.(check bool) "inside" true (Prefix.mem (ip "172.20.1.1") p);
  Alcotest.(check bool) "outside" false (Prefix.mem (ip "172.32.0.0") p);
  Alcotest.(check bool) "first" true (Prefix.mem (Prefix.first p) p);
  Alcotest.(check bool) "last" true (Prefix.mem (Prefix.last p) p)

let test_prefix_subsumes () =
  Alcotest.(check bool) "wider subsumes narrower" true
    (Prefix.subsumes (pfx "10.0.0.0/8") (pfx "10.1.0.0/16"));
  Alcotest.(check bool) "narrower does not" false
    (Prefix.subsumes (pfx "10.1.0.0/16") (pfx "10.0.0.0/8"));
  Alcotest.(check bool) "self" true
    (Prefix.subsumes (pfx "10.0.0.0/8") (pfx "10.0.0.0/8"));
  Alcotest.(check bool) "disjoint" false
    (Prefix.subsumes (pfx "10.0.0.0/8") (pfx "11.0.0.0/8"));
  Alcotest.(check bool) "default subsumes all" true
    (Prefix.subsumes Prefix.default (pfx "203.0.113.0/24"))

let test_prefix_split () =
  (match Prefix.split (pfx "10.0.0.0/8") with
   | Some (lo, hi) ->
     Alcotest.(check string) "lo" "10.0.0.0/9" (Prefix.to_string lo);
     Alcotest.(check string) "hi" "10.128.0.0/9" (Prefix.to_string hi)
   | None -> Alcotest.fail "split failed");
  Alcotest.(check bool) "/32 unsplittable" true
    (Prefix.split (pfx "1.2.3.4/32") = None)

let test_prefix_subnets () =
  let subs = Prefix.subnets (pfx "192.168.0.0/16") 18 in
  Alcotest.(check int) "count" 4 (List.length subs);
  Alcotest.(check (list string)) "order"
    ["192.168.0.0/18"; "192.168.64.0/18"; "192.168.128.0/18";
     "192.168.192.0/18"]
    (List.map Prefix.to_string subs)

let test_prefix_hosts () =
  let p = pfx "10.0.0.0/30" in
  Alcotest.(check int) "size" 4 (Prefix.size p);
  Alcotest.(check string) "nth" "10.0.0.2"
    (Ipv4.to_string (Prefix.nth_host p 2));
  Alcotest.check_raises "out of range"
    (Invalid_argument "Prefix.nth_host: index 4 outside 10.0.0.0/30")
    (fun () -> ignore (Prefix.nth_host p 4))

let prefix_split_partition =
  QCheck.Test.make ~name:"split partitions the prefix" ~count:300
    QCheck.(pair (int_bound 0xFFFF_FFF) (int_bound 31))
    (fun (seed, len) ->
       let p = Prefix.make (Ipv4.of_int32_exn (seed * 16)) len in
       match Prefix.split p with
       | None -> false
       | Some (lo, hi) ->
         Prefix.subsumes p lo && Prefix.subsumes p hi
         && (not (Prefix.overlaps lo hi))
         && Prefix.size lo + Prefix.size hi = Prefix.size p)

let prefix_mem_bounds =
  QCheck.Test.make ~name:"mem agrees with first/last bounds" ~count:300
    QCheck.(triple (int_bound 0xFFFF_FFF) (int_bound 32) (int_bound 0xFFFF))
    (fun (seed, len, probe) ->
       let p = Prefix.make (Ipv4.of_int32_exn (seed * 16)) len in
       let a = Ipv4.add (Prefix.first p) (probe mod Prefix.size p) in
       Prefix.mem a p)

(* --- Dscp ------------------------------------------------------------- *)

let test_dscp_codepoints () =
  Alcotest.(check int) "EF" 46 (Dscp.to_int Dscp.ef);
  Alcotest.(check int) "AF11" 10 (Dscp.to_int (Dscp.af 1 1));
  Alcotest.(check int) "AF31" 26 (Dscp.to_int (Dscp.af 3 1));
  Alcotest.(check int) "AF43" 38 (Dscp.to_int (Dscp.af 4 3));
  Alcotest.(check int) "CS6" 48 (Dscp.to_int (Dscp.cs 6));
  Alcotest.(check int) "BE" 0 (Dscp.to_int Dscp.best_effort)

let test_dscp_phb_roundtrip () =
  let phbs =
    [Dscp.Default; Dscp.Ef; Dscp.Af (1, 1); Dscp.Af (2, 3); Dscp.Af (4, 2);
     Dscp.Cs 3; Dscp.Cs 7]
  in
  List.iter
    (fun phb ->
       Alcotest.(check bool) "roundtrip" true
         (Dscp.to_phb (Dscp.of_phb phb) = phb))
    phbs

let test_dscp_exp_mapping () =
  Alcotest.(check int) "EF->5" 5 (Dscp.to_exp Dscp.ef);
  Alcotest.(check int) "AF3->3" 3 (Dscp.to_exp (Dscp.af 3 2));
  Alcotest.(check int) "BE->0" 0 (Dscp.to_exp Dscp.best_effort);
  Alcotest.(check int) "CS6->6" 6 (Dscp.to_exp (Dscp.cs 6));
  (* of_exp inverts the class even if drop precedence is coarsened *)
  Alcotest.(check int) "exp roundtrip keeps class" 3
    (Dscp.to_exp (Dscp.of_exp (Dscp.to_exp (Dscp.af 3 3))))

let test_dscp_drop_precedence () =
  Alcotest.(check int) "AF13" 3 (Dscp.drop_precedence (Dscp.af 1 3));
  Alcotest.(check int) "EF" 1 (Dscp.drop_precedence Dscp.ef);
  Alcotest.(check int) "BE" 1 (Dscp.drop_precedence Dscp.best_effort)

let test_dscp_invalid () =
  Alcotest.check_raises "64" (Invalid_argument
    "Dscp.of_int_exn: 64 out of range") (fun () ->
    ignore (Dscp.of_int_exn 64));
  Alcotest.check_raises "AF53"
    (Invalid_argument "Dscp.of_phb: AF53 out of range") (fun () ->
      ignore (Dscp.af 5 3))

(* --- Flow ------------------------------------------------------------- *)

let test_flow_reverse () =
  let f =
    Flow.make ~proto:Flow.Tcp ~src_port:1234 ~dst_port:80 (ip "10.0.0.1")
      (ip "10.0.0.2")
  in
  let r = Flow.reverse f in
  Alcotest.(check bool) "src" true (Ipv4.equal r.Flow.src f.Flow.dst);
  Alcotest.(check int) "port" 80 r.Flow.src_port;
  Alcotest.(check bool) "involutive" true (Flow.equal f (Flow.reverse r))

let test_flow_compare () =
  let a = Flow.make (ip "10.0.0.1") (ip "10.0.0.2") in
  let b = Flow.make (ip "10.0.0.1") (ip "10.0.0.3") in
  Alcotest.(check bool) "lt" true (Flow.compare a b < 0);
  Alcotest.(check bool) "eq" true (Flow.equal a a);
  Alcotest.(check bool) "hash eq" true (Flow.hash a = Flow.hash a)

(* --- Packet ----------------------------------------------------------- *)

let fresh_packet ?dscp () =
  let flow = Flow.make (ip "10.1.0.1") (ip "10.2.0.1") in
  Packet.make ?dscp ~now:0.0 flow

let test_packet_labels () =
  let p = fresh_packet () in
  let size0 = p.Packet.size in
  Packet.push_label p ~label:100 ~exp:5 ~ttl:64;
  Packet.push_label p ~label:200 ~exp:5 ~ttl:64;
  Alcotest.(check int) "size grows" (size0 + 8) p.Packet.size;
  Alcotest.(check int) "top" 200 (Packet.Shim.label (Packet.top_packed p));
  Packet.swap_label p ~label:300;
  let s = Packet.top_packed p in
  Alcotest.(check int) "swapped" 300 (Packet.Shim.label s);
  Alcotest.(check int) "ttl decremented" 63 (Packet.Shim.ttl s);
  Alcotest.(check int) "popped" 300 (Packet.Shim.label (Packet.pop_packed p));
  ignore (Packet.pop_packed p);
  Alcotest.(check int) "size restored" size0 p.Packet.size;
  Alcotest.(check int) "empty pop" Packet.Shim.none (Packet.pop_packed p)

let test_packet_swap_empty () =
  let p = fresh_packet () in
  Alcotest.check_raises "swap on empty"
    (Invalid_argument "Packet.swap_label: empty label stack") (fun () ->
      Packet.swap_label p ~label:1)

let test_packet_encap_tos_copy () =
  let p = fresh_packet ~dscp:Dscp.ef () in
  let size0 = p.Packet.size in
  Packet.encapsulate p ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
    ~proto:Flow.Esp ~overhead:57 ~copy_tos:true;
  Alcotest.(check int) "overhead" (size0 + 57) p.Packet.size;
  Alcotest.(check bool) "visible dscp preserved" true
    (Dscp.equal (Packet.visible_dscp p) Dscp.ef);
  Packet.decapsulate p;
  Alcotest.(check int) "size restored" size0 p.Packet.size

let test_packet_encap_no_tos_copy () =
  let p = fresh_packet ~dscp:Dscp.ef () in
  Packet.encapsulate p ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
    ~proto:Flow.Esp ~overhead:57 ~copy_tos:false;
  p.Packet.encrypted <- true;
  Alcotest.(check bool) "service class erased" true
    (Dscp.equal (Packet.visible_dscp p) Dscp.best_effort);
  Alcotest.(check bool) "flow unreadable" true
    (Packet.classifiable_flow p = None);
  Packet.decapsulate p;
  Alcotest.(check bool) "restored after decap" true
    (Dscp.equal (Packet.visible_dscp p) Dscp.ef);
  Alcotest.(check bool) "flow readable again" true
    (Packet.classifiable_flow p <> None)

let test_packet_double_encap () =
  let p = fresh_packet () in
  Packet.encapsulate p ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
    ~proto:Flow.Gre ~overhead:24 ~copy_tos:true;
  Alcotest.check_raises "double encap"
    (Invalid_argument "Packet.encapsulate: already encapsulated") (fun () ->
      Packet.encapsulate p ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
        ~proto:Flow.Gre ~overhead:24 ~copy_tos:true)

let test_packet_uids_unique () =
  let a = fresh_packet () and b = fresh_packet () in
  Alcotest.(check bool) "distinct" true (a.Packet.uid <> b.Packet.uid)

let test_packet_swap_in_place () =
  let p = fresh_packet () in
  Packet.push_label p ~label:100 ~exp:5 ~ttl:64;
  Packet.push_label p ~label:200 ~exp:3 ~ttl:4;
  let size0 = p.Packet.size and depth0 = Packet.label_depth p in
  (* A swap is one integer store into the packed stack: steady-state
     swaps must allocate nothing. [Gc.minor_words] samples the counter
     before boxing its result, so the delta of the loop alone is exact. *)
  Packet.swap_label p ~label:300;
  let w0 = Gc.minor_words () in
  for i = 0 to 999 do
    Packet.swap_label p ~label:(301 + (i land 7))
  done;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "zero alloc across 1000 swaps" 0.0 dw;
  Alcotest.(check int) "size unchanged" size0 p.Packet.size;
  Alcotest.(check int) "depth unchanged" depth0 (Packet.label_depth p);
  let s = Packet.top_packed p in
  Alcotest.(check int) "last swap visible" (301 + (999 land 7))
    (Packet.Shim.label s);
  Alcotest.(check int) "exp preserved" 3 (Packet.Shim.exp s);
  (* uniform TTL model: one decrement per swap, clamped at 0 *)
  Alcotest.(check int) "ttl clamped at 0" 0 (Packet.Shim.ttl s);
  Alcotest.(check (list int)) "bottom entry untouched"
    [ 301 + (999 land 7); 100 ] (Packet.label_values p)

let test_packet_pool_recycle () =
  Packet.set_pooling true;
  Fun.protect ~finally:(fun () -> Packet.set_pooling false) @@ fun () ->
  let p = fresh_packet () in
  Packet.push_label p ~label:77 ~exp:2 ~ttl:9;
  Packet.encapsulate p ~src:(ip "1.1.1.1") ~dst:(ip "2.2.2.2")
    ~proto:Flow.Gre ~overhead:24 ~copy_tos:true;
  let uid0 = p.Packet.uid in
  Packet.release p;
  let parked = Packet.pool_size () in
  Alcotest.(check bool) "parked" true (parked >= 1);
  Packet.release p;
  Alcotest.(check int) "release idempotent" parked (Packet.pool_size ());
  let q = fresh_packet () in
  Alcotest.(check bool) "storage recycled" true (p == q);
  Alcotest.(check bool) "uid fresh" true (q.Packet.uid <> uid0);
  Alcotest.(check bool) "stack cleared" false (Packet.labelled q);
  Alcotest.(check bool) "outer disarmed" false (Packet.has_outer q);
  Alcotest.(check int) "pool drained" (parked - 1) (Packet.pool_size ())

(* Each domain mints uids from blocks of its own: one domain's uids run
   1, 2, 3, ... past a block boundary as with one shared counter, and
   two domains minting at once never collide. *)
let test_packet_uid_blocks () =
  Packet.reset_uid_counter ();
  let uids n = List.init n (fun _ -> (fresh_packet ()).Packet.uid) in
  Alcotest.(check (list int)) "one domain counts from 1" (List.init 5000 succ)
    (uids 5000);
  let other = Domain.spawn (fun () -> uids 5000) in
  let mine = uids 5000 in
  let all = List.sort_uniq compare (mine @ Domain.join other) in
  Alcotest.(check int) "two domains never collide" 10_000 (List.length all);
  Packet.reset_uid_counter ()

(* Retired records move between domains' pools: a record reclaimed on
   one domain and adopted on another is what that domain's next packet
   reuses. *)
let test_packet_reclaim_adopt () =
  Packet.set_pooling true;
  Fun.protect ~finally:(fun () -> Packet.set_pooling false) @@ fun () ->
  let p = fresh_packet () in
  Packet.release p;
  let before = Packet.pool_size () in
  let moved = Domain.join (Domain.spawn Packet.reclaim) in
  Alcotest.(check bool) "a fresh domain's pool is empty" true
    (moved == Packet.null);
  let q = Packet.reclaim () in
  Alcotest.(check bool) "reclaimed" true (q == p);
  Alcotest.(check int) "pool shrank" (before - 1) (Packet.pool_size ());
  let reused =
    Domain.join
      (Domain.spawn (fun () ->
           Packet.adopt q;
           let n = Packet.pool_size () in
           (n, fresh_packet ())))
  in
  Alcotest.(check int) "adopted" 1 (fst reused);
  Alcotest.(check bool) "reused on the adopting domain" true (snd reused == p);
  Alcotest.check_raises "a live packet is not adopted"
    (Invalid_argument "Packet.adopt: not a retired packet") (fun () ->
      Packet.adopt (fresh_packet ()))

let test_packet_pool_off_noop () =
  Alcotest.(check bool) "pooling off by default" false (Packet.pooling ());
  let p = fresh_packet () in
  let before = Packet.pool_size () in
  Packet.release p;
  Alcotest.(check int) "release is a no-op" before (Packet.pool_size ());
  let q = fresh_packet () in
  Alcotest.(check bool) "make allocates fresh" true (p != q)

(* --- Packet vs boxed reference model ---------------------------------- *)

(* A deliberately naive boxed model of the label stack: a list of
   (label, exp, ttl) tuples, top at the head, with the packed
   representation's clamping rules (label masked to 20 bits, exp to
   3 bits, ttl clamped into [0, 255]; swap decrements TTL clamping at
   0). Random op sequences run against a real packet and the model;
   every observable decode must agree after every op. *)
type stack_model = { mutable stk : (int * int * int) list; mutable msz : int }

let model_agrees p m =
  let depth = Packet.label_depth p in
  let flat =
    List.init depth (fun i ->
        let s = p.Packet.stack.(depth - 1 - i) in
        Packet.Shim.(label s, exp s, ttl s))
  in
  flat = m.stk
  && p.Packet.size = m.msz
  && Packet.label_depth p = List.length m.stk
  && Packet.labelled p = (m.stk <> [])
  && (match m.stk with
      | [] -> Packet.top_packed p = Packet.Shim.none
      | (l, e, t) :: _ ->
        let pk = Packet.top_packed p in
        Packet.Shim.label pk = l && Packet.Shim.exp pk = e
        && Packet.Shim.ttl pk = t)

let stack_op_gen =
  QCheck.Gen.(
    frequency
      [ (4,
         map3
           (fun l e t -> `Push (l, e, t))
           (int_bound 0x3F_FFFF) (int_bound 7) (int_bound 300));
        (3, return `Pop);
        (3, map (fun l -> `Swap l) (int_bound 0x3F_FFFF));
        (1, map (fun e -> `Set_exp_all e) (int_bound 7)) ])

let pp_stack_op op =
  match op with
  | `Push (l, e, t) -> Printf.sprintf "push(%d,%d,%d)" l e t
  | `Pop -> "pop"
  | `Swap l -> Printf.sprintf "swap(%d)" l
  | `Set_exp_all e -> Printf.sprintf "set_exp_all(%d)" e

let packet_matches_model =
  QCheck.Test.make ~name:"flat label stack = boxed reference model"
    ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat ";" (List.map pp_stack_op ops))
       QCheck.Gen.(list_size (int_bound 40) stack_op_gen))
    (fun ops ->
      let p = fresh_packet () in
      let m = { stk = []; msz = p.Packet.size } in
      List.for_all
        (fun op ->
           (match op with
            | `Push (label, exp, ttl) ->
              if List.length m.stk < Packet.max_depth then begin
                Packet.push_label p ~label ~exp ~ttl;
                m.stk <-
                  (label land 0xF_FFFF, exp land 7, max 0 (min 255 ttl))
                  :: m.stk;
                m.msz <- m.msz + 4
              end
            | `Pop ->
              let got = Packet.pop_packed p in
              (match m.stk with
               | [] -> assert (got = Packet.Shim.none)
               | (l, e, t) :: rest ->
                 assert
                   (got <> Packet.Shim.none
                    && Packet.Shim.(label got = l && exp got = e
                                    && ttl got = t));
                 m.stk <- rest;
                 m.msz <- m.msz - 4)
            | `Swap label ->
              (match m.stk with
               | [] -> ()  (* raising path covered by swap-on-empty test *)
               | (_, e, t) :: rest ->
                 Packet.swap_label p ~label;
                 m.stk <- (label land 0xF_FFFF, e, max 0 (t - 1)) :: rest)
            | `Set_exp_all exp ->
              Packet.set_exp_all p ~exp;
              m.stk <-
                List.map (fun (l, _, t) -> (l, exp land 7, t)) m.stk);
           model_agrees p m)
        ops)

(* --- Radix ------------------------------------------------------------ *)

let route_testable = Alcotest.(option (pair string int))

let lookup_str t a =
  Option.map (fun (p, v) -> (Prefix.to_string p, v)) (Radix.lookup t a)

let test_radix_basic () =
  let t = Radix.create () in
  Alcotest.(check bool) "empty" true (Radix.is_empty t);
  Radix.add t (pfx "10.0.0.0/8") 1;
  Radix.add t (pfx "10.1.0.0/16") 2;
  Radix.add t (pfx "10.1.2.0/24") 3;
  Radix.add t (pfx "192.168.0.0/16") 4;
  Alcotest.(check int) "cardinal" 4 (Radix.cardinal t);
  Alcotest.check route_testable "lpm /24" (Some ("10.1.2.0/24", 3))
    (lookup_str t (ip "10.1.2.99"));
  Alcotest.check route_testable "lpm /16" (Some ("10.1.0.0/16", 2))
    (lookup_str t (ip "10.1.3.1"));
  Alcotest.check route_testable "lpm /8" (Some ("10.0.0.0/8", 1))
    (lookup_str t (ip "10.9.9.9"));
  Alcotest.check route_testable "other branch" (Some ("192.168.0.0/16", 4))
    (lookup_str t (ip "192.168.44.1"));
  Alcotest.check route_testable "miss" None (lookup_str t (ip "8.8.8.8"))

let test_radix_default_route () =
  let t = Radix.create () in
  Radix.add t Prefix.default 0;
  Radix.add t (pfx "10.0.0.0/8") 1;
  Alcotest.check route_testable "default catches" (Some ("0.0.0.0/0", 0))
    (lookup_str t (ip "8.8.8.8"));
  Alcotest.check route_testable "specific wins" (Some ("10.0.0.0/8", 1))
    (lookup_str t (ip "10.0.0.1"))

let test_radix_replace () =
  let t = Radix.create () in
  Radix.add t (pfx "10.0.0.0/8") 1;
  Radix.add t (pfx "10.0.0.0/8") 9;
  Alcotest.(check int) "no duplicate" 1 (Radix.cardinal t);
  Alcotest.(check (option int)) "replaced" (Some 9)
    (Radix.find t (pfx "10.0.0.0/8"))

let test_radix_remove () =
  let t = Radix.create () in
  Radix.add t (pfx "10.0.0.0/8") 1;
  Radix.add t (pfx "10.1.0.0/16") 2;
  Radix.add t (pfx "10.1.2.0/24") 3;
  Alcotest.(check bool) "removed" true (Radix.remove t (pfx "10.1.0.0/16"));
  Alcotest.(check bool) "absent now" false (Radix.remove t (pfx "10.1.0.0/16"));
  Alcotest.(check int) "cardinal" 2 (Radix.cardinal t);
  Alcotest.check route_testable "falls back to /8"
    (Some ("10.0.0.0/8", 1))
    (lookup_str t (ip "10.1.3.1"));
  Alcotest.check route_testable "/24 intact" (Some ("10.1.2.0/24", 3))
    (lookup_str t (ip "10.1.2.1"));
  Alcotest.(check bool) "remove root-subsumed miss" false
    (Radix.remove t (pfx "11.0.0.0/8"))

let test_radix_remove_all () =
  let t = Radix.create () in
  let prefixes =
    [pfx "10.0.0.0/8"; pfx "10.128.0.0/9"; pfx "10.64.0.0/10";
     pfx "0.0.0.0/0"; pfx "1.2.3.4/32"]
  in
  List.iteri (fun i p -> Radix.add t p i) prefixes;
  List.iter (fun p -> ignore (Radix.remove t p)) prefixes;
  Alcotest.(check bool) "empty again" true (Radix.is_empty t);
  Alcotest.check route_testable "no matches" None (lookup_str t (ip "10.0.0.1"))

let test_radix_order () =
  let t = Radix.create () in
  Radix.add t (pfx "10.1.0.0/16") 2;
  Radix.add t (pfx "10.0.0.0/8") 1;
  Radix.add t (pfx "9.0.0.0/8") 0;
  Radix.add t (pfx "10.1.0.0/24") 3;
  Alcotest.(check (list string)) "sorted"
    ["9.0.0.0/8"; "10.0.0.0/8"; "10.1.0.0/16"; "10.1.0.0/24"]
    (List.map (fun (p, _) -> Prefix.to_string p) (Radix.to_list t))

(* Model-based property: radix LPM agrees with a linear scan over the
   same bindings. *)
let radix_vs_linear =
  let gen =
    QCheck.make
      QCheck.Gen.(
        pair
          (list_size (int_bound 60)
             (pair (int_bound 0xFFFF) (int_range 4 32)))
          (small_list (int_bound 0xFFFF)))
  in
  QCheck.Test.make ~name:"radix lpm = linear scan" ~count:200 gen
    (fun (bindings, probes) ->
       let t = Radix.create () in
       let model = Hashtbl.create 16 in
       List.iteri
         (fun i (seed, len) ->
            let p = Prefix.make (Ipv4.of_int32_exn (seed * 65536)) len in
            Radix.add t p i;
            Hashtbl.replace model p i)
         bindings;
       List.for_all
         (fun seed ->
            let a = Ipv4.of_int32_exn (seed * 65536 + seed) in
            let expected =
              Hashtbl.fold
                (fun p v best ->
                   if Prefix.mem a p then
                     match best with
                     | Some (bp, _) when Prefix.length bp >= Prefix.length p ->
                       best
                     | Some _ | None -> Some (p, v)
                   else best)
                model None
            in
            match Radix.lookup t a, expected with
            | None, None -> true
            | Some (p, _), Some (q, _) ->
              (* Values can differ when two prefixes tie; length cannot. *)
              Prefix.length p = Prefix.length q
            | Some _, None | None, Some _ -> false)
         probes)

let radix_add_remove_roundtrip =
  let gen =
    QCheck.make
      QCheck.Gen.(
        list_size (int_bound 80) (pair (int_bound 0xFFFF) (int_range 1 32)))
  in
  QCheck.Test.make ~name:"add then remove leaves trie empty" ~count:200 gen
    (fun bindings ->
       let t = Radix.create () in
       let prefixes =
         List.map
           (fun (seed, len) ->
              Prefix.make (Ipv4.of_int32_exn (seed * 65536)) len)
           bindings
       in
       List.iteri (fun i p -> Radix.add t p i) prefixes;
       let distinct = List.sort_uniq Prefix.compare prefixes in
       Radix.cardinal t = List.length distinct
       && (List.iter (fun p -> ignore (Radix.remove t p)) distinct;
           Radix.is_empty t))

(* Churn property driven by the simulator's deterministic RNG:
   interleave adds and removes against a naive assoc-list model, then
   compare LPM answers. Removal is biased toward present prefixes so
   glue-node splicing and re-rooting actually run, and addresses
   cluster inside a few /8s so prefixes nest deeply. *)
let test_radix_churn_matches_model () =
  let rng = Mvpn_sim.Rng.create 0xce11 in
  let random_addr () =
    Ipv4.of_octets
      (10 + Mvpn_sim.Rng.int rng 3)
      (Mvpn_sim.Rng.int rng 4)
      (Mvpn_sim.Rng.int rng 4)
      (Mvpn_sim.Rng.int rng 256)
  in
  let random_prefix () =
    Prefix.make (random_addr ()) (Mvpn_sim.Rng.int rng 33)
  in
  let naive model a =
    List.fold_left
      (fun best (p, v) ->
         if Prefix.mem a p then
           match best with
           | Some (bp, _) when Prefix.length bp >= Prefix.length p -> best
           | Some _ | None -> Some (p, v)
         else best)
      None model
  in
  for trial = 0 to 299 do
    let t = Radix.create () in
    let model = ref [] in
    let drop p = List.filter (fun (q, _) -> not (Prefix.equal q p)) in
    let ops = 20 + Mvpn_sim.Rng.int rng 60 in
    for i = 0 to ops - 1 do
      if !model <> [] && Mvpn_sim.Rng.bool rng 0.35 then begin
        let victim =
          if Mvpn_sim.Rng.bool rng 0.8 then
            fst
              (List.nth !model
                 (Mvpn_sim.Rng.int rng (List.length !model)))
          else random_prefix ()
        in
        let present =
          List.exists (fun (q, _) -> Prefix.equal q victim) !model
        in
        if Radix.remove t victim <> present then
          Alcotest.failf "trial %d: remove %s returned %b" trial
            (Prefix.to_string victim) (not present);
        model := drop victim !model
      end
      else begin
        let p = random_prefix () in
        Radix.add t p i;
        model := (p, i) :: drop p !model
      end
    done;
    if Radix.cardinal t <> List.length !model then
      Alcotest.failf "trial %d: cardinal %d, model has %d" trial
        (Radix.cardinal t) (List.length !model);
    let check_addr a =
      match Radix.lookup t a, naive !model a with
      | None, None -> ()
      | Some (p, v), Some (q, w) ->
        if not (Prefix.equal p q && v = w) then
          Alcotest.failf "trial %d: %s -> %s=%d, model says %s=%d" trial
            (Ipv4.to_string a) (Prefix.to_string p) v (Prefix.to_string q)
            w
      | Some (p, v), None ->
        Alcotest.failf "trial %d: %s -> %s=%d, model says none" trial
          (Ipv4.to_string a) (Prefix.to_string p) v
      | None, Some (q, w) ->
        Alcotest.failf "trial %d: %s -> none, model says %s=%d" trial
          (Ipv4.to_string a) (Prefix.to_string q) w
    in
    for _ = 1 to 25 do
      check_addr (random_addr ())
    done;
    List.iter (fun (p, _) -> check_addr (Prefix.network p)) !model
  done

let test_radix_default_only () =
  let t = Radix.create () in
  Radix.add t Prefix.default "everything";
  Alcotest.(check (option string)) "any address matches" (Some "everything")
    (Radix.lookup_value t (ip "203.0.113.9"));
  Alcotest.(check bool) "remove default" true (Radix.remove t Prefix.default);
  Alcotest.(check bool) "now empty" true (Radix.is_empty t)

let test_radix_of_list_roundtrip () =
  let bindings =
    [ (pfx "10.0.0.0/8", 1); (pfx "10.1.0.0/16", 2); (pfx "0.0.0.0/0", 0) ]
  in
  let t = Radix.of_list bindings in
  Alcotest.(check int) "cardinal" 3 (Radix.cardinal t);
  Alcotest.(check (list string)) "ordered"
    ["0.0.0.0/0"; "10.0.0.0/8"; "10.1.0.0/16"]
    (List.map (fun (p, _) -> Prefix.to_string p) (Radix.to_list t));
  Radix.clear t;
  Alcotest.(check int) "cleared" 0 (Radix.cardinal t)

let test_dscp_of_exp_bounds () =
  Alcotest.check_raises "exp 8" (Invalid_argument "Dscp.of_exp: 8 out of range")
    (fun () -> ignore (Dscp.of_exp 8));
  Alcotest.check_raises "exp -1"
    (Invalid_argument "Dscp.of_exp: -1 out of range") (fun () ->
      ignore (Dscp.of_exp (-1)))

let test_dscp_pp_names () =
  let show d = Format.asprintf "%a" Dscp.pp d in
  Alcotest.(check string) "EF" "EF" (show Dscp.ef);
  Alcotest.(check string) "AF22" "AF22" (show (Dscp.af 2 2));
  Alcotest.(check string) "CS5" "CS5" (show (Dscp.cs 5));
  Alcotest.(check string) "BE" "BE" (show Dscp.best_effort)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  n = 0 || go 0

(* The pieces operators grep for in traces, on a doubly-labelled EF
   packet: transport label 200 pushed under VPN label 100, so the
   stack renders top first. *)
let test_packet_pp_renders () =
  let p =
    Packet.make ~dscp:Dscp.ef ~now:0.0
      (Flow.make ~proto:Flow.Udp ~src_port:4000 ~dst_port:4001
         (ip "10.1.0.1") (ip "10.2.0.1"))
  in
  Packet.push_label p ~label:200 ~exp:3 ~ttl:64;
  Packet.push_label p ~label:100 ~exp:5 ~ttl:64;
  let s = Format.asprintf "%a" Packet.pp p in
  let has what needle =
    if not (contains ~needle s) then Alcotest.failf "%s missing from %S" what s
  in
  has "label stack" "[100(exp=5);200(exp=3)]";
  has "source address" "10.1.0.1";
  has "destination address" "10.2.0.1";
  has "DSCP name" "EF";
  has "wire size (512B + 2 shims)" "520B"

let test_flow_proto_names () =
  Alcotest.(check (list string)) "all protos"
    ["tcp"; "udp"; "icmp"; "esp"; "gre"]
    (List.map Flow.proto_to_string
       [Flow.Tcp; Flow.Udp; Flow.Icmp; Flow.Esp; Flow.Gre])

(* --- Fib -------------------------------------------------------------- *)

let test_fib_basic () =
  let fib = Fib.create () in
  Fib.add fib (pfx "10.1.0.0/16")
    { Fib.next_hop = 3; cost = 10; source = Fib.Igp };
  Fib.add fib (pfx "10.0.0.0/8")
    { Fib.next_hop = 2; cost = 20; source = Fib.Bgp };
  Alcotest.(check (option int)) "lpm" (Some 3)
    (Fib.next_hop fib (ip "10.1.2.3"));
  Alcotest.(check (option int)) "fallback" (Some 2)
    (Fib.next_hop fib (ip "10.9.9.9"));
  Alcotest.(check (option int)) "miss" None
    (Fib.next_hop fib (ip "192.0.2.1"))

let test_fib_clear_source () =
  let fib = Fib.create () in
  Fib.add fib (pfx "10.0.0.0/8")
    { Fib.next_hop = 1; cost = 1; source = Fib.Igp };
  Fib.add fib (pfx "10.1.0.0/16")
    { Fib.next_hop = 2; cost = 1; source = Fib.Igp };
  Fib.add fib (pfx "172.16.0.0/12")
    { Fib.next_hop = 3; cost = 1; source = Fib.Static };
  Alcotest.(check int) "cleared" 2 (Fib.clear_source fib Fib.Igp);
  Alcotest.(check int) "static survives" 1 (Fib.size fib);
  Alcotest.(check (option int)) "static route" (Some 3)
    (Fib.next_hop fib (ip "172.16.1.1"))

(* Generation counters: every mutation that can change a lookup answer
   must bump; no-op mutations must not (route caches key on this). *)
let test_radix_generation () =
  let t = Radix.create () in
  let g0 = Radix.generation t in
  Radix.add t (pfx "10.0.0.0/8") 1;
  let g1 = Radix.generation t in
  Alcotest.(check bool) "add bumps" true (g1 > g0);
  Radix.add t (pfx "10.0.0.0/8") 2;
  let g2 = Radix.generation t in
  Alcotest.(check bool) "replace bumps" true (g2 > g1);
  Alcotest.(check bool) "remove miss" false (Radix.remove t (pfx "10.1.0.0/16"));
  Alcotest.(check int) "no-op remove does not bump" g2 (Radix.generation t);
  Alcotest.(check bool) "remove hit" true (Radix.remove t (pfx "10.0.0.0/8"));
  Alcotest.(check bool) "remove bumps" true (Radix.generation t > g2)

let test_fib_generation () =
  let fib = Fib.create () in
  let g0 = Fib.generation fib in
  Fib.add fib (pfx "10.0.0.0/8")
    { Fib.next_hop = 1; cost = 1; source = Fib.Igp };
  Fib.add fib (pfx "172.16.0.0/12")
    { Fib.next_hop = 2; cost = 1; source = Fib.Static };
  let g1 = Fib.generation fib in
  Alcotest.(check bool) "adds bump" true (g1 > g0);
  Alcotest.(check int) "reconvergence clear" 1 (Fib.clear_source fib Fib.Igp);
  Alcotest.(check bool) "clear_source bumps" true (Fib.generation fib > g1)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "net"
    [ ("ipv4",
       [ Alcotest.test_case "octets" `Quick test_ipv4_octets;
         Alcotest.test_case "parse valid" `Quick test_ipv4_parse_valid;
         Alcotest.test_case "parse invalid" `Quick test_ipv4_parse_invalid;
         Alcotest.test_case "bounds" `Quick test_ipv4_bounds;
         Alcotest.test_case "arithmetic" `Quick test_ipv4_arith;
         qt ipv4_roundtrip ]);
      ("prefix",
       [ Alcotest.test_case "canonical" `Quick test_prefix_canonical;
         Alcotest.test_case "parse" `Quick test_prefix_parse;
         Alcotest.test_case "mem" `Quick test_prefix_mem;
         Alcotest.test_case "subsumes" `Quick test_prefix_subsumes;
         Alcotest.test_case "split" `Quick test_prefix_split;
         Alcotest.test_case "subnets" `Quick test_prefix_subnets;
         Alcotest.test_case "hosts" `Quick test_prefix_hosts;
         qt prefix_split_partition;
         qt prefix_mem_bounds ]);
      ("dscp",
       [ Alcotest.test_case "codepoints" `Quick test_dscp_codepoints;
         Alcotest.test_case "phb roundtrip" `Quick test_dscp_phb_roundtrip;
         Alcotest.test_case "exp mapping" `Quick test_dscp_exp_mapping;
         Alcotest.test_case "drop precedence" `Quick
           test_dscp_drop_precedence;
         Alcotest.test_case "of_exp bounds" `Quick test_dscp_of_exp_bounds;
         Alcotest.test_case "pp names" `Quick test_dscp_pp_names;
         Alcotest.test_case "invalid" `Quick test_dscp_invalid ]);
      ("flow",
       [ Alcotest.test_case "reverse" `Quick test_flow_reverse;
         Alcotest.test_case "compare" `Quick test_flow_compare;
         Alcotest.test_case "proto names" `Quick test_flow_proto_names ]);
      ("packet",
       [ Alcotest.test_case "label stack" `Quick test_packet_labels;
         Alcotest.test_case "swap on empty" `Quick test_packet_swap_empty;
         Alcotest.test_case "encap tos copy" `Quick
           test_packet_encap_tos_copy;
         Alcotest.test_case "encap no tos copy" `Quick
           test_packet_encap_no_tos_copy;
         Alcotest.test_case "double encap" `Quick test_packet_double_encap;
         Alcotest.test_case "pp renders" `Quick test_packet_pp_renders;
         Alcotest.test_case "uids unique" `Quick test_packet_uids_unique;
         Alcotest.test_case "swap in place" `Quick test_packet_swap_in_place;
         Alcotest.test_case "pool recycle" `Quick test_packet_pool_recycle;
         Alcotest.test_case "pool off no-op" `Quick
           test_packet_pool_off_noop;
         Alcotest.test_case "uid blocks" `Quick test_packet_uid_blocks;
         Alcotest.test_case "reclaim and adopt" `Quick
           test_packet_reclaim_adopt;
         qt packet_matches_model ]);
      ("radix",
       [ Alcotest.test_case "basic lpm" `Quick test_radix_basic;
         Alcotest.test_case "default route" `Quick test_radix_default_route;
         Alcotest.test_case "replace" `Quick test_radix_replace;
         Alcotest.test_case "remove" `Quick test_radix_remove;
         Alcotest.test_case "remove all" `Quick test_radix_remove_all;
         Alcotest.test_case "iteration order" `Quick test_radix_order;
         Alcotest.test_case "default only" `Quick test_radix_default_only;
         Alcotest.test_case "of_list roundtrip" `Quick
           test_radix_of_list_roundtrip;
         Alcotest.test_case "churn matches model" `Quick
           test_radix_churn_matches_model;
         qt radix_vs_linear;
         qt radix_add_remove_roundtrip;
         Alcotest.test_case "generation" `Quick test_radix_generation ]);
      ("fib",
       [ Alcotest.test_case "basic" `Quick test_fib_basic;
         Alcotest.test_case "clear source" `Quick test_fib_clear_source;
         Alcotest.test_case "generation" `Quick test_fib_generation ]) ]
