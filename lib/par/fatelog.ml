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

let add fl ~time ~vpn ~band ~dropped ~latency =
  let n = fl.n in
  if n = Array.length fl.meta then begin
    let cap = 2 * n in
    let t = Float.Array.create cap and l = Float.Array.create cap in
    Float.Array.blit fl.times 0 t 0 n;
    Float.Array.blit fl.lats 0 l 0 n;
    let m = Array.make cap 0 in
    Array.blit fl.meta 0 m 0 n;
    fl.times <- t;
    fl.lats <- l;
    fl.meta <- m
  end;
  Float.Array.set fl.times n time;
  Float.Array.set fl.lats n latency;
  fl.meta.(n) <- (vpn lsl 22) lor (band lsl 1) lor Bool.to_int dropped;
  fl.n <- n + 1

let emit fl i f =
  let meta = fl.meta.(i) in
  f ~time:(Float.Array.get fl.times i) ~vpn:(meta lsr 22)
    ~band:((meta lsr 1) land 0x1FFFFF) ~dropped:(meta land 1 = 1)
    ~latency:(Float.Array.get fl.lats i)

let iter fl f =
  for i = 0 to fl.n - 1 do
    emit fl i f
  done

(* Each step scans the logs' heads in index order and takes the first
   with the least time, so equal times go to the lower log index. *)
let iter_merged logs f =
  let pos = Array.make (Array.length logs) 0 in
  let remaining = ref (Array.fold_left (fun acc fl -> acc + fl.n) 0 logs) in
  while !remaining > 0 do
    let best = ref (-1) and best_time = ref infinity in
    for k = 0 to Array.length logs - 1 do
      let fl = logs.(k) and i = pos.(k) in
      if i < fl.n then begin
        let time = Float.Array.get fl.times i in
        if !best < 0 || time < !best_time then begin
          best := k;
          best_time := time
        end
      end
    done;
    let k = !best in
    emit logs.(k) pos.(k) f;
    pos.(k) <- pos.(k) + 1;
    decr remaining
  done
