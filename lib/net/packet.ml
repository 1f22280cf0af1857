(* label (20 bits) | exp (3 bits) | ttl (8 bits), one immediate int.
   [none] is -1 so every valid packed shim tests [>= 0]. *)
module Shim = struct
  type packed = int

  let none = -1

  let clamp_ttl ttl = if ttl < 0 then 0 else if ttl > 255 then 255 else ttl

  let pack ~label ~exp ~ttl =
    ((label land 0xFFFFF) lsl 11) lor ((exp land 0x7) lsl 8)
    lor clamp_ttl ttl

  let label packed = packed lsr 11
  let exp packed = (packed lsr 8) land 0x7
  let ttl packed = packed land 0xFF

  let with_label packed label =
    ((label land 0xFFFFF) lsl 11) lor (packed land 0x7FF)

  let with_exp packed exp =
    (packed land (lnot 0x700)) lor ((exp land 0x7) lsl 8)

  let with_ttl packed ttl =
    (packed land (lnot 0xFF)) lor clamp_ttl ttl
end

type header = {
  mutable src : Ipv4.t;
  mutable dst : Ipv4.t;
  mutable proto : Flow.proto;
  mutable src_port : int;
  mutable dst_port : int;
  mutable dscp : Dscp.t;
  mutable ttl : int;
}

type t = {
  mutable uid : int;
  mutable flow : Flow.t;
  mutable vpn : int option;
  mutable seq : int;
  created : floatarray;
  mutable size : int;
  inner : header;
  mutable encrypted : bool;
  outer : header;
  mutable has_outer : bool;
  stack : int array;
  mutable depth : int;
  mutable encap_bytes : int;
  mutable in_pool : bool;
  mutable fated : bool;
}

let default_ttl = 64

let max_depth = 8

(* The next free uid block's base. Each domain mints uids from a
   private block of [uid_block] (see [mint]), so domains building
   packets at once do not contend on one atomic. Uids stay unique
   process-wide but which domain gets which block is not deterministic
   — nothing semantic may depend on uid values beyond uniqueness
   (per-packet fault verdicts key on uid, which is why seeded chaos
   runs are single-domain). One domain takes consecutive blocks, so
   its uids run 1, 2, 3, ... as with one shared counter. Pool reuse
   mints a fresh uid on every incarnation, so the uid sequence a run
   observes is the same with pooling on or off. *)
let uid_counter = Atomic.make 0

let uid_block = 4096

(* Fresh record allocations (pool reuse excluded), process-wide. The
   invariant auditor uses [allocated - live - pool_size] as a leak
   witness: with pooling on it must stay constant between audit ticks. *)
let alloc_counter = Atomic.make 0

let allocated () = Atomic.get alloc_counter

let blank_header () =
  { src = Ipv4.any; dst = Ipv4.any; proto = Flow.Udp; src_port = 0;
    dst_port = 0; dscp = Dscp.best_effort; ttl = default_ttl }

let null =
  let flow = Flow.make Ipv4.any Ipv4.any in
  { uid = 0; flow; vpn = None; seq = 0; created = Float.Array.make 1 0.;
    size = 0; inner = blank_header (); encrypted = false;
    outer = blank_header (); has_outer = false;
    stack = Array.make max_depth 0; depth = 0; encap_bytes = 0;
    in_pool = false; fated = false }

(* One free list per domain (no locking, no cross-domain races): a
   packet released on a domain is reincarnated by that same domain's
   next [make]. The global flag is plain (not atomic) — the runners set
   it once before spawning domains and never mid-run. The domain's uid
   block, [uid_next] up to [uid_end], rides in the same record, so
   minting costs no second lookup. *)
type pool = {
  mutable slots : t array;
  mutable len : int;
  mutable uid_next : int;
  mutable uid_end : int;
}

let pooling_flag = ref false

let set_pooling on = pooling_flag := on
let pooling () = !pooling_flag

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { slots = [||]; len = 0; uid_next = 0; uid_end = 0 })

let pool_size () = (Domain.DLS.get pool_key).len

let reset_uid_counter () =
  Atomic.set uid_counter 0;
  let pool = Domain.DLS.get pool_key in
  pool.uid_next <- 0;
  pool.uid_end <- 0

let mint pool =
  if pool.uid_next = pool.uid_end then begin
    let base = Atomic.fetch_and_add uid_counter uid_block in
    pool.uid_next <- base + 1;
    pool.uid_end <- base + 1 + uid_block
  end;
  let u = pool.uid_next in
  pool.uid_next <- u + 1;
  u

let push_pool pool p =
  let cap = Array.length pool.slots in
  if pool.len = cap then begin
    let slots = Array.make (max 64 (2 * cap)) null in
    Array.blit pool.slots 0 slots 0 cap;
    pool.slots <- slots
  end;
  pool.slots.(pool.len) <- p;
  pool.len <- pool.len + 1

let release p =
  if !pooling_flag && not p.in_pool && p != null then begin
    p.in_pool <- true;
    push_pool (Domain.DLS.get pool_key) p
  end

let reclaim () =
  let pool = Domain.DLS.get pool_key in
  if pool.len = 0 then null
  else begin
    pool.len <- pool.len - 1;
    let p = pool.slots.(pool.len) in
    pool.slots.(pool.len) <- null;
    p
  end

let adopt p =
  if p.in_pool && p != null then push_pool (Domain.DLS.get pool_key) p
  else invalid_arg "Packet.adopt: not a retired packet"

(* A retired packet if one is available, else a fresh allocation, with
   a fresh uid either way. The caller must reinitialise every other
   mutable field. *)
let obtain () =
  let pool = Domain.DLS.get pool_key in
  let p =
    if !pooling_flag && pool.len > 0 then begin
      pool.len <- pool.len - 1;
      let p = pool.slots.(pool.len) in
      pool.slots.(pool.len) <- null;
      p.in_pool <- false;
      p
    end
    else begin
      Atomic.incr alloc_counter;
      { uid = 0; flow = null.flow; vpn = None; seq = 0;
        created = Float.Array.make 1 0.; size = 0; inner = blank_header ();
        encrypted = false; outer = blank_header (); has_outer = false;
        stack = Array.make max_depth 0; depth = 0; encap_bytes = 0;
        in_pool = false; fated = false }
    end
  in
  p.uid <- mint pool;
  p

let set_header (h : header) ~src ~dst ~proto ~src_port ~dst_port ~dscp ~ttl =
  h.src <- src; h.dst <- dst; h.proto <- proto; h.src_port <- src_port;
  h.dst_port <- dst_port; h.dscp <- dscp; h.ttl <- ttl

let created_at p = Float.Array.get p.created 0

(* Every field but the creation stamp, which each constructor writes
   into the record's own cell (unboxed, and reused by the pool). *)
let init p ~vpn ~seq ~dscp ~size (flow : Flow.t) =
  p.flow <- flow;
  p.vpn <- vpn;
  p.seq <- seq;
  p.size <- size;
  set_header p.inner ~src:flow.src ~dst:flow.dst ~proto:flow.proto
    ~src_port:flow.src_port ~dst_port:flow.dst_port ~dscp
    ~ttl:default_ttl;
  p.encrypted <- false;
  p.has_outer <- false;
  p.depth <- 0;
  p.encap_bytes <- 0;
  p.fated <- false;
  p

let make ?vpn ?(seq = 0) ?(dscp = Dscp.best_effort) ?(size = 512) ~now flow =
  let p = obtain () in
  Float.Array.set p.created 0 now;
  init p ~vpn ~seq ~dscp ~size flow

let make_cell ?vpn ?(seq = 0) ?(dscp = Dscp.best_effort) ?(size = 512) clock
    flow =
  let p = obtain () in
  Float.Array.set p.created 0 (Float.Array.get clock 0);
  init p ~vpn ~seq ~dscp ~size flow

let assign_header (dst : header) (src : header) =
  set_header dst ~src:src.src ~dst:src.dst ~proto:src.proto
    ~src_port:src.src_port ~dst_port:src.dst_port ~dscp:src.dscp
    ~ttl:src.ttl

let copy p =
  let q = obtain () in
  q.flow <- p.flow;
  q.vpn <- p.vpn;
  q.seq <- p.seq;
  Float.Array.set q.created 0 (Float.Array.get p.created 0);
  q.size <- p.size;
  assign_header q.inner p.inner;
  q.encrypted <- p.encrypted;
  assign_header q.outer p.outer;
  q.has_outer <- p.has_outer;
  Array.blit p.stack 0 q.stack 0 p.depth;
  q.depth <- p.depth;
  q.encap_bytes <- p.encap_bytes;
  q.fated <- false;
  q

let visible_header p = if p.has_outer then p.outer else p.inner

let visible_dscp p = (visible_header p).dscp

let classifiable_flow p =
  if not p.has_outer then
    Some
      { Flow.src = p.inner.src; dst = p.inner.dst; proto = p.inner.proto;
        src_port = p.inner.src_port; dst_port = p.inner.dst_port }
  else if p.encrypted then None
  else
    Some
      { Flow.src = p.outer.src; dst = p.outer.dst; proto = p.outer.proto;
        src_port = p.outer.src_port; dst_port = p.outer.dst_port }

let has_outer p = p.has_outer

let outer_header p =
  if p.has_outer then p.outer
  else invalid_arg "Packet.outer_header: no outer header"

let labelled p = p.depth > 0

let label_depth p = p.depth

let top_packed p = if p.depth = 0 then Shim.none else p.stack.(p.depth - 1)

let shim_bytes = 4

let push_label p ~label ~exp ~ttl =
  if p.depth = max_depth then
    invalid_arg "Packet.push_label: label stack overflow";
  p.stack.(p.depth) <- Shim.pack ~label ~exp ~ttl;
  p.depth <- p.depth + 1;
  p.size <- p.size + shim_bytes

let pop_packed p =
  if p.depth = 0 then Shim.none
  else begin
    p.depth <- p.depth - 1;
    p.size <- p.size - shim_bytes;
    p.stack.(p.depth)
  end

let set_top p packed =
  if p.depth = 0 then invalid_arg "Packet.set_top: empty label stack";
  p.stack.(p.depth - 1) <- packed

let swap_label p ~label =
  if p.depth = 0 then invalid_arg "Packet.swap_label: empty label stack";
  let i = p.depth - 1 in
  let s = p.stack.(i) in
  p.stack.(i) <- Shim.with_ttl (Shim.with_label s label) (Shim.ttl s - 1)

let set_exp_all p ~exp =
  for i = 0 to p.depth - 1 do
    p.stack.(i) <- Shim.with_exp p.stack.(i) exp
  done

let label_values p =
  let rec loop i acc =
    if i >= p.depth then acc
    else loop (i + 1) (Shim.label p.stack.(i) :: acc)
  in
  loop 0 []

let encapsulate p ~src ~dst ~proto ~overhead ~copy_tos =
  if p.has_outer then invalid_arg "Packet.encapsulate: already encapsulated";
  let dscp = if copy_tos then p.inner.dscp else Dscp.best_effort in
  set_header p.outer ~src ~dst ~proto ~src_port:0 ~dst_port:0 ~dscp
    ~ttl:default_ttl;
  p.has_outer <- true;
  p.size <- p.size + overhead;
  p.encap_bytes <- overhead

let decapsulate p =
  if not p.has_outer then invalid_arg "Packet.decapsulate: no outer header";
  p.has_outer <- false;
  p.encrypted <- false;
  p.size <- p.size - p.encap_bytes;
  p.encap_bytes <- 0

let pp ppf p =
  let labels =
    if p.depth = 0 then ""
    else begin
      let buf = Buffer.create 32 in
      Buffer.add_string buf " [";
      for i = p.depth - 1 downto 0 do
        let s = p.stack.(i) in
        Buffer.add_string buf
          (Printf.sprintf "%d(exp=%d)" (Shim.label s) (Shim.exp s));
        if i > 0 then Buffer.add_char buf ';'
      done;
      Buffer.add_char buf ']';
      Buffer.contents buf
    end
  in
  Format.fprintf ppf "#%d %a -> %a %a %dB%s%s" p.uid Ipv4.pp p.inner.src
    Ipv4.pp p.inner.dst Dscp.pp (visible_dscp p) p.size labels
    (if p.encrypted then " enc" else "")
