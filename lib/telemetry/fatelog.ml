(* Meta packing: bit 0 dropped, bits 1-21 band, bits 22+ vpn. *)
type t = {
  mutable times : floatarray;
  mutable lats : floatarray;  (* latency; 0.0 for drops *)
  mutable meta : int array;
  mutable n : int;
}

let create () =
  { times = Float.Array.create 1024; lats = Float.Array.create 1024;
    meta = Array.make 1024 0; n = 0 }

let length fl = fl.n

(* Double every column: appends stay amortised O(1), and only an
   append that fills the log allocates. *)
let grow fl =
  let n = fl.n in
  let cap = 2 * n in
  let t = Float.Array.create cap and l = Float.Array.create cap in
  Float.Array.blit fl.times 0 t 0 n;
  Float.Array.blit fl.lats 0 l 0 n;
  let m = Array.make cap 0 in
  Array.blit fl.meta 0 m 0 n;
  fl.times <- t;
  fl.lats <- l;
  fl.meta <- m

let record fl ~vpn ~band ~dropped ~clock ~latency =
  let n = fl.n in
  if n = Array.length fl.meta then grow fl;
  Float.Array.set fl.times n (Float.Array.get clock 0);
  Float.Array.set fl.lats n (if dropped then 0.0 else Float.Array.get latency 0);
  fl.meta.(n) <- (vpn lsl 22) lor (band lsl 1) lor Bool.to_int dropped;
  fl.n <- n + 1

let fate fl i =
  let meta = fl.meta.(i) in
  ( Float.Array.get fl.times i, meta lsr 22, (meta lsr 1) land 0x1FFFFF,
    meta land 1 = 1, Float.Array.get fl.lats i )

(* Each step scans the logs' heads in index order and takes the first
   with the least time, so equal times go to the lower log index. The
   times are compared where they lie in their columns, so no float is
   held in a variable or passed anywhere. *)
let iter_merged logs f =
  let k = Array.length logs in
  let pos = Array.make k 0 in
  let remaining = ref (Array.fold_left (fun acc fl -> acc + fl.n) 0 logs) in
  while !remaining > 0 do
    let best = ref (-1) in
    for j = 0 to k - 1 do
      let fl = logs.(j) and i = pos.(j) in
      if i < fl.n
      && (!best < 0
          || Float.Array.get fl.times i
             < Float.Array.get logs.(!best).times pos.(!best))
      then best := j
    done;
    let j = !best in
    let i = pos.(j) in
    pos.(j) <- i + 1;
    decr remaining;
    f j i
  done

(* Each fate's time and latency are copied into two cells and handed
   to the engine's cell observers, so the replay boxes no float. *)
let replay logs slo =
  let clock = Float.Array.make 1 0.0 and latency = Float.Array.make 1 0.0 in
  iter_merged logs (fun j i ->
      let fl = logs.(j) in
      let meta = fl.meta.(i) in
      let vpn = meta lsr 22 and band = (meta lsr 1) land 0x1FFFFF in
      Float.Array.set clock 0 (Float.Array.get fl.times i);
      if meta land 1 = 1 then Slo.observe_drop_cell slo ~vpn ~band ~clock
      else begin
        Float.Array.set latency 0 (Float.Array.get fl.lats i);
        Slo.observe_delivery_cell slo ~vpn ~band ~clock ~latency
      end)
