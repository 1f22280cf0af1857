type proto = Tcp | Udp | Icmp | Esp | Gre

type t = {
  src : Ipv4.t;
  dst : Ipv4.t;
  proto : proto;
  src_port : int;
  dst_port : int;
}

let make ?(proto = Udp) ?(src_port = 0) ?(dst_port = 0) src dst =
  { src; dst; proto; src_port; dst_port }

let proto_rank = function Tcp -> 0 | Udp -> 1 | Icmp -> 2 | Esp -> 3 | Gre -> 4

let compare a b =
  let c = Ipv4.compare a.src b.src in
  if c <> 0 then c
  else
    let c = Ipv4.compare a.dst b.dst in
    if c <> 0 then c
    else
      let c = Int.compare (proto_rank a.proto) (proto_rank b.proto) in
      if c <> 0 then c
      else
        let c = Int.compare a.src_port b.src_port in
        if c <> 0 then c else Int.compare a.dst_port b.dst_port

let equal a b =
  Ipv4.equal a.src b.src && Ipv4.equal a.dst b.dst && a.proto == b.proto
  && Int.equal a.src_port b.src_port && Int.equal a.dst_port b.dst_port

(* Multiply-add over the five fields, then a xor-shift-multiply
   finalizer so the low bits a hash table masks with depend on every
   field. Allocation-free, unlike hashing a tuple of the fields. *)
let hash a =
  let step h x = (h * 0x1F3D5B79) + x in
  let h =
    step
      (step
         (step (step (Ipv4.to_int a.src) (Ipv4.to_int a.dst))
            (proto_rank a.proto))
         a.src_port)
      a.dst_port
  in
  let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 32)) land max_int

let proto_to_string = function
  | Tcp -> "tcp"
  | Udp -> "udp"
  | Icmp -> "icmp"
  | Esp -> "esp"
  | Gre -> "gre"

let reverse f =
  { f with src = f.dst; dst = f.src; src_port = f.dst_port;
    dst_port = f.src_port }
