(* Clocks and order statistics shared by every workload. *)

let cpu () = Sys.time ()  (* process CPU seconds, every domain *)
let wall () = Unix.gettimeofday ()
let now_ns () = Mvpn_sim.Profile.now_ns ()

(* Minor-heap words allocated by the whole process. [Gc.quick_stat]
   folds in joined domains, unlike [Gc.minor_words], which is per
   domain — the sharded workload allocates on its shard domains. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1048576.0

(* Nearest-rank percentile, [p] in (0, 1]: the smallest sample with at
   least a [p] share of the samples at or below it. *)
let percentile xs p =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else a.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Median with the usual midpoint for even counts. *)
let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
