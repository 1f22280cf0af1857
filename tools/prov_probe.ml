(* Cost probe for the E19 10k-VPN provisioning compile.

     prov_probe.exe [N]

   Builds the seed-11 portfolio of 10k Pareto-sized customer VPNs on
   12 PEs (the one E19 and perfbench's provision_10k compile) and its
   1,200-delta churn (seed 12), then runs N passes (default 7). Each
   pass compiles the portfolio twice and applies the churn to each
   state in four chunks of 300 deltas:

   - plainly, chunk after chunk;
   - with an allocating kernel (a heap of closure-carrying records
     plus a hash table, the kind of work that fills the major heap)
     run before the first chunk and after every chunk, the shape of
     perfbench's calibration brackets. The kernel's own time is not
     counted.

   Delta CPU is raw process CPU, never scaled. The second form shows
   how the churn's CPU reacts to the heap it runs on: a store that
   holds large pointer arrays makes every major slice that lands in a
   chunk pay for marking them.

   Printed: compile CPU (minimum of the 2N compiles), minor words per
   route, live bytes per route after a full major GC, and for each
   churn form the minimum and median over passes of its total CPU and
   the median per-chunk CPU. *)

module P = Mvpn_provision

let customers = 10_000
let pe_count = 12
let seed = 11
let ops = 1200
let chunk_count = 4

type ev = { at : float; tag : int; k : int -> int }

(* About a tenth of a second of allocation-heavy work. *)
let kernel () =
  let heap = Array.make (1 lsl 17) { at = 0.0; tag = 0; k = Fun.id } in
  let n = ref 0 in
  let push e =
    let i = ref !n in
    incr n;
    while !i > 0 && heap.((!i - 1) / 2).at > e.at do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    let last = heap.(!n) in
    let i = ref 0 and stop = ref false in
    while not !stop do
      let l = (2 * !i) + 1 in
      if l >= !n then stop := true
      else begin
        let c =
          if l + 1 < !n && heap.(l + 1).at < heap.(l).at then l + 1 else l
        in
        if heap.(c).at < last.at then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else stop := true
      end
    done;
    heap.(!i) <- last;
    top
  in
  let tbl = Hashtbl.create 65536 in
  let rng = Random.State.make [| 7 |] in
  let acc = ref 0 in
  for i = 1 to 100_000 do
    push { at = Random.State.float rng 1.0; tag = i; k = (fun x -> x + i) }
  done;
  for _ = 1 to 100_000 do
    let e = pop () in
    acc := e.k !acc land 0xFFFFFF;
    let key = (e.tag * 7919) land 0xFFFF in
    Hashtbl.replace tbl key
      (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key));
    push
      { at = e.at +. Random.State.float rng 1.0; tag = e.tag + 1;
        k = (fun x -> x lxor e.tag) }
  done;
  !acc

let cpu = Sys.time

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let minimum = List.fold_left Float.min infinity

(* [l] cut into [n] consecutive runs of near-equal length. *)
let chunks n l =
  let len = List.length l in
  List.init n (fun i -> List.filteri (fun j _ -> j * n / len = i) l)

let compile portfolio =
  let c0 = cpu () in
  let state = P.Compile.compile portfolio in
  (state, cpu () -. c0)

(* The churn's per-chunk CPU on a freshly compiled state. *)
let churn ~with_kernel state parts =
  if with_kernel then ignore (Sys.opaque_identity (kernel ()));
  List.map
    (fun part ->
       let c0 = cpu () in
       List.iter (fun op -> ignore (P.Delta.apply state op)) part;
       let dt = cpu () -. c0 in
       if with_kernel then ignore (Sys.opaque_identity (kernel ()));
       dt)
    parts

let () =
  let passes =
    match Sys.argv with
    | [| _ |] -> 7
    | [| _; n |] -> (
        match int_of_string_opt n with
        | Some n when n > 0 -> n
        | _ ->
          prerr_endline "usage: prov_probe.exe [N]  (N passes, N > 0)";
          exit 2)
    | _ ->
      prerr_endline "usage: prov_probe.exe [N]";
      exit 2
  in
  let portfolio =
    P.Portfolio.generate ~dist:P.Portfolio.Pareto ~pe_count ~seed ~customers
      ()
  in
  let parts = chunks chunk_count (P.Portfolio.churn portfolio ~seed:(seed + 1) ~ops) in
  (* One deterministic compile for the allocation and residency
     figures. *)
  Gc.full_major ();
  let w0 = (Gc.stat ()).Gc.live_words in
  let m0 = Gc.minor_words () in
  let state = P.Compile.compile portfolio in
  let minor = Gc.minor_words () -. m0 in
  Gc.full_major ();
  let w1 = (Gc.stat ()).Gc.live_words in
  let routes = float_of_int (P.Compile.metrics state).P.Compile.routes in
  ignore (Sys.opaque_identity state);
  let compiles = ref [] and plain = ref [] and loaded = ref [] in
  for _ = 1 to passes do
    Gc.full_major ();
    let a, ca = compile portfolio in
    plain := churn ~with_kernel:false a parts :: !plain;
    Gc.full_major ();
    let b, cb = compile portfolio in
    loaded := churn ~with_kernel:true b parts :: !loaded;
    compiles := ca :: cb :: !compiles
  done;
  Printf.printf "portfolio            %d VPNs, %d PEs, seed %d, %.0f routes\n"
    customers pe_count seed routes;
  Printf.printf "compile cpu          %.3f s (min of %d)\n" (minimum !compiles)
    (List.length !compiles);
  Printf.printf "minor words/route    %.1f\n" (minor /. routes);
  Printf.printf "live bytes/route     %.1f\n"
    (float_of_int ((w1 - w0) * (Sys.word_size / 8)) /. routes);
  let report name runs =
    let totals = List.map (List.fold_left ( +. ) 0.0) runs in
    Printf.printf
      "churn %-14s %d deltas: total cpu min %.1f ms, median %.1f ms; \
       chunk median %.2f ms\n"
      name ops (1e3 *. minimum totals) (1e3 *. median totals)
      (1e3 *. median (List.concat runs))
  in
  report "plain" !plain;
  report "with kernel" !loaded
