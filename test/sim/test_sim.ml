open Mvpn_sim

(* --- Rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different streams" true
    (Rng.bits64 a <> Rng.bits64 b)

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.fork parent in
  let c1 = Rng.bits64 child in
  (* Re-deriving from the same parent state gives a different child. *)
  let child2 = Rng.fork parent in
  Alcotest.(check bool) "children differ" true (Rng.bits64 child2 <> c1)

let test_rng_split_indexed () =
  (* split derives from the parent's current position and the index
     only: it never advances the parent, so substream i is the same
     stream regardless of how many siblings are taken or in what
     order. *)
  let parent = Rng.create 7 in
  let before = Rng.split parent 0 in
  let again = Rng.split parent 0 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same substream" (Rng.bits64 before)
      (Rng.bits64 again)
  done;
  let backwards = List.rev_map (Rng.split parent) [ 2; 1; 0 ] in
  let forwards = List.map (Rng.split parent) [ 0; 1; 2 ] in
  List.iter2
    (fun a b ->
       Alcotest.(check int64) "order independent" (Rng.bits64 a)
         (Rng.bits64 b))
    backwards forwards;
  let untouched = Rng.create 7 in
  Alcotest.(check int64) "parent unmoved" (Rng.bits64 untouched)
    (Rng.bits64 parent)

let test_rng_split_distinct () =
  let parent = Rng.create 23 in
  let seen = Hashtbl.create 64 in
  for i = 0 to 63 do
    let v = Rng.bits64 (Rng.split parent i) in
    if Hashtbl.mem seen v then
      Alcotest.failf "substreams %d and %d collide" (Hashtbl.find seen v) i;
    Hashtbl.add seen v i
  done;
  (* splitting after the parent advances gives fresh substreams *)
  let first = Rng.bits64 (Rng.split parent 0) in
  ignore (Rng.bits64 parent);
  Alcotest.(check bool) "substreams track parent position" true
    (Rng.bits64 (Rng.split parent 0) <> first)

let test_rng_int_bounds () =
  let r = Rng.create 3 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int r 0))

let test_rng_int_in () =
  let r = Rng.create 5 in
  for _ = 1 to 1000 do
    let v = Rng.int_in r (-5) 5 in
    if v < -5 || v > 5 then Alcotest.failf "out of range: %d" v
  done

let test_rng_uniform_mean () =
  let r = Rng.create 11 in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Rng.uniform r)
  done;
  let m = Stats.Summary.mean s in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (m -. 0.5) < 0.01)

let test_rng_exponential_mean () =
  let r = Rng.create 13 in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Rng.exponential r ~rate:4.0)
  done;
  let m = Stats.Summary.mean s in
  Alcotest.(check bool) "mean near 1/4" true (abs_float (m -. 0.25) < 0.01)

let test_rng_pareto_min () =
  let r = Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Rng.pareto r ~shape:1.5 ~scale:100.0 in
    if v < 100.0 then Alcotest.failf "below scale: %f" v
  done

let test_rng_normal_moments () =
  let r = Rng.create 19 in
  let s = Stats.Summary.create () in
  for _ = 1 to 20_000 do
    Stats.Summary.add s (Rng.normal r ~mean:10.0 ~stddev:2.0)
  done;
  Alcotest.(check bool) "mean" true
    (abs_float (Stats.Summary.mean s -. 10.0) < 0.1);
  Alcotest.(check bool) "stddev" true
    (abs_float (Stats.Summary.stddev s -. 2.0) < 0.1)

let test_rng_shuffle_permutes () =
  let r = Rng.create 23 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

(* The splitmix64 stream is pinned to the published algorithm (state
   += golden gamma, then the mix finalizer) from [create 42]: keeping
   the state unboxed must not move a single draw. *)
let test_rng_stream_pinned () =
  let r = Rng.create 42 in
  List.iter
    (fun want -> Alcotest.(check int64) "bits64" want (Rng.bits64 r))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L ]

(* Each cell draw is its float twin's draw, bit for bit, and advances
   the generator the same way. *)
let test_rng_cell_draws_match () =
  let a = Rng.create 29 and b = Rng.create 29 in
  let cell = Float.Array.make 1 0.0 in
  let same what x =
    Alcotest.(check int64) what (Int64.bits_of_float x)
      (Int64.bits_of_float (Float.Array.get cell 0))
  in
  for _ = 1 to 1000 do
    Rng.uniform_cell b cell;
    same "uniform" (Rng.uniform a);
    Rng.exponential_cell b ~rate:3.0 cell;
    same "exponential" (Rng.exponential a ~rate:3.0);
    Rng.pareto_cell b ~shape:1.5 ~scale:10.0 cell;
    same "pareto" (Rng.pareto a ~shape:1.5 ~scale:10.0)
  done

(* Warmed draws allocate nothing: the state advances in place and the
   cell draws hand their float over unboxed. *)
let test_rng_draws_allocate_nothing () =
  let r = Rng.create 31 and cell = Float.Array.make 1 0.0 in
  let acc = ref 0 in
  let draws n =
    for _ = 1 to n do
      Rng.uniform_cell r cell;
      Rng.exponential_cell r ~rate:2.0 cell;
      Rng.pareto_cell r ~shape:1.5 ~scale:1.0 cell;
      acc := !acc + Rng.int r 1000
    done
  in
  draws 100;
  let w0 = Gc.minor_words () in
  draws 10_000;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 40k draws" 0.0 dw;
  Alcotest.(check bool) "drew" true (!acc > 0)

(* --- Heap ------------------------------------------------------------- *)

let test_heap_order () =
  let h = Heap.create () in
  List.iter (fun (k, v) -> Heap.push h k v)
    [(3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z")];
  let drain () =
    let rec go acc =
      match Heap.pop h with
      | None -> List.rev acc
      | Some (_, v) -> go (v :: acc)
    in
    go []
  in
  Alcotest.(check (list string)) "sorted" ["z"; "a"; "b"; "c"] (drain ())

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iter (fun v -> Heap.push h 1.0 v) ["first"; "second"; "third"];
  let pops =
    List.filter_map (fun _ -> Option.map snd (Heap.pop h)) [(); (); ()]
  in
  Alcotest.(check (list string)) "insertion order"
    ["first"; "second"; "third"] pops

let test_heap_empty () =
  let h : int Heap.t = Heap.create () in
  Alcotest.(check bool) "empty pop" true (Heap.pop h = None);
  Alcotest.(check bool) "empty peek" true (Heap.peek h = None);
  Alcotest.(check int) "size" 0 (Heap.size h)

let heap_sorts =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:300
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun keys ->
       let h = Heap.create () in
       List.iteri (fun i k -> Heap.push h k i) keys;
       let rec drain acc =
         match Heap.pop h with
         | None -> List.rev acc
         | Some (k, _) -> drain (k :: acc)
       in
       let popped = drain [] in
       popped = List.sort Float.compare keys)

(* --- Scheduler contract (Heap and Calendar through one harness) ------- *)

(* Both event queues must implement the same total order: ascending key,
   FIFO among equal keys. The property drives random interleaved
   sequences of both push and both pop entry points (keys drawn from a
   small set so ties are common) against a brute-force reference model;
   Heap is the original oracle, Calendar must be indistinguishable from
   it. *)
module type Queue = sig
  type 'a t

  val create : unit -> 'a t
  val push : 'a t -> float -> 'a -> unit
  val push_at : 'a t -> floatarray -> 'a -> unit
  val pop : 'a t -> (float * 'a) option
  val pop_due :
    'a t -> bound:floatarray -> strict:bool -> default:'a ->
    key_out:floatarray -> 'a
  val size : 'a t -> int
end

module Scheduler_contract (Q : Queue) = struct
  (* Reference minimum (key, insertion id) over a plain list. *)
  let ref_min model =
    match !model with
    | [] -> None
    | first :: rest ->
      Some
        (List.fold_left
           (fun ((bk, bi) as b) ((k, i) as c) ->
              if k < bk || (k = bk && i < bi) then c else b)
           first rest)

  let ref_remove model (_, bi) =
    model := List.filter (fun (_, i) -> i <> bi) !model

  (* [Push k] inserts at absolute key [k]; [Push_after d] at the last
     popped key plus [d] through [push_at], the way the engine
     schedules. [Pop_due (d, strict)] pops through [pop_due] with the
     bound at the last popped key plus [d]. *)
  type op = Pop | Push of float | Push_after of float | Pop_due of float * bool

  let agrees ops =
    let q = Q.create () in
    let model = ref [] in
    let next_id = ref 0 in
    let last = ref 0.0 in
    let ok = ref true in
    let cell = Float.Array.make 1 0.0 in
    (* The model's minimum leaves the model whatever the queue returns,
       so a diverging queue cannot keep the final drain looping. *)
    let check_pop () =
      let r = ref_min model in
      Option.iter (ref_remove model) r;
      match (Q.pop q, r) with
      | Some (k, v), Some (rk, ri) ->
        if k <> rk || v <> ri then ok := false;
        last := k
      | None, None -> ()
      | _ -> ok := false
    in
    (* Payload ids are non-negative, so -1 is the not-due sentinel. *)
    let check_pop_due d strict =
      let bound = !last +. d and before = Q.size q in
      let v =
        Q.pop_due q ~bound:(Float.Array.make 1 bound) ~strict ~default:(-1)
          ~key_out:cell
      in
      match ref_min model with
      | Some ((rk, ri) as r) when (if strict then rk < bound else rk <= bound)
        ->
        ref_remove model r;
        if v <> ri || Float.Array.get cell 0 <> rk then ok := false;
        last := rk
      | Some _ | None -> if v <> -1 || Q.size q <> before then ok := false
    in
    let push ~at k =
      let id = !next_id in
      incr next_id;
      if at then begin
        Float.Array.set cell 0 k;
        Q.push_at q cell id
      end
      else Q.push q k id;
      model := (k, id) :: !model
    in
    List.iter
      (function
        | Pop -> check_pop ()
        | Push k -> push ~at:false k
        | Push_after d -> push ~at:true (!last +. d)
        | Pop_due (d, strict) -> check_pop_due d strict)
      ops;
    while Q.size q > 0 || !model <> [] do
      check_pop ()
    done;
    !ok

  (* Codes 0-7 push keys on a half-unit grid; 8-11 pop through
     [pop_due] with the bound 0 or 0.5 past the last popped key, strict
     or not, so keys sitting exactly on the bound are common. *)
  let fifo_contract name =
    QCheck.Test.make ~name ~count:150
      QCheck.(list_of_size (QCheck.Gen.int_range 0 120)
                (option (int_bound 11)))
      (fun ops ->
         agrees
           (List.map
              (function
                | None -> Pop
                | Some kc when kc < 8 -> Push (float_of_int kc *. 0.5)
                | Some kc ->
                  Pop_due (float_of_int ((kc - 8) / 2) *. 0.5, kc mod 2 = 0))
              ops))

  (* Phases that push the storage through its corners: bursts of
     hundreds of live events (slot-array growth, bucket doubling),
     drains (halving rebuilds, every slot back on the free list, then
     reused), keys at wildly different scales and far-future outliers
     (direct-scan fallback), and long engine-like churn at a steady
     population (past the density-drift re-width period). Keys are
     drawn from coarse grids so ties stay common. *)
  let phase =
    let open QCheck.Gen in
    let scale = oneofl [ 1e-6; 0.5; 1e3 ] in
    let burst =
      map3
        (fun n scale outliers ->
           List.init n (fun i ->
               Push (float_of_int ((i * 7919) mod 53) *. scale))
           @ List.init outliers (fun i -> Push (1e9 +. float_of_int i)))
        (int_range 40 400) scale (int_bound 2)
    in
    let drain =
      list_size (int_range 1 500)
        (frequency
           [ (2, return Pop);
             (1,
              map2
                (fun d strict -> Pop_due (d, strict))
                (oneofl [ 0.0; 1e-4; 0.5; 1e3 ]) bool) ])
    in
    let churn =
      map2
        (fun n delays ->
           let delays = Array.of_list delays in
           List.concat
             (List.init n (fun i ->
                  [ Push_after delays.(i mod Array.length delays); Pop ])))
        (int_range 1 9000)
        (list_size (int_range 1 5) (oneofl [ 0.0; 1e-4; 3e-4; 0.01; 2.0 ]))
    in
    frequency [ (3, burst); (3, drain); (1, churn) ]

  let storage_contract name =
    QCheck.Test.make ~name ~count:40
      (QCheck.make
         ~print:(fun ops -> Printf.sprintf "<%d ops>" (List.length ops))
         QCheck.Gen.(map List.concat (list_size (int_range 1 8) phase)))
      agrees
end

module Heap_contract = Scheduler_contract (Heap)
module Calendar_contract = Scheduler_contract (Calendar)

let heap_fifo_contract =
  Heap_contract.fifo_contract "heap matches the (key, seq) reference"

let calendar_fifo_contract =
  Calendar_contract.fifo_contract "calendar matches the (key, seq) reference"

let heap_storage_contract =
  Heap_contract.storage_contract "heap matches the reference through resizes"

let calendar_storage_contract =
  Calendar_contract.storage_contract
    "calendar matches the reference through slot reuse and rebuilds"

(* --- Calendar --------------------------------------------------------- *)

let test_calendar_order () =
  let c = Calendar.create () in
  List.iter (fun (k, v) -> Calendar.push c k v)
    [(3.0, "c"); (1.0, "a"); (2.0, "b"); (0.5, "z")];
  let rec drain acc =
    match Calendar.pop c with
    | None -> List.rev acc
    | Some (_, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "sorted" ["z"; "a"; "b"; "c"] (drain [])

let test_calendar_fifo_ties () =
  let c = Calendar.create () in
  List.iter (fun v -> Calendar.push c 1.0 v) ["first"; "second"; "third"];
  let pops =
    List.filter_map (fun _ -> Option.map snd (Calendar.pop c)) [(); (); ()]
  in
  Alcotest.(check (list string)) "insertion order"
    ["first"; "second"; "third"] pops

let test_calendar_empty () =
  let c : int Calendar.t = Calendar.create () in
  Alcotest.(check bool) "empty pop" true (Calendar.pop c = None);
  Alcotest.(check bool) "empty peek" true (Calendar.peek c = None);
  Alcotest.(check int) "size" 0 (Calendar.size c)

let test_calendar_clear () =
  let c = Calendar.create () in
  Calendar.push c 1.0 "x";
  Calendar.push c 2.0 "y";
  Calendar.clear c;
  Alcotest.(check int) "cleared" 0 (Calendar.size c);
  Alcotest.(check bool) "pop after clear" true (Calendar.pop c = None);
  Calendar.push c 5.0 "z";
  Alcotest.(check bool) "usable after clear" true
    (Calendar.pop c = Some (5.0, "z"))

(* Population growth must widen the ring and re-derive the width, and
   neither resize may perturb the pop order. *)
let test_calendar_resize () =
  let c = Calendar.create () in
  let b0 = Calendar.bucket_count c in
  for i = 0 to 999 do
    Calendar.push c (float_of_int ((i * 7919) mod 1000) /. 100.0) i
  done;
  Alcotest.(check bool) "buckets grew" true (Calendar.bucket_count c > b0);
  Alcotest.(check bool) "width positive" true (Calendar.width c > 0.0);
  let rec drain last n =
    match Calendar.pop c with
    | None -> n
    | Some (k, _) ->
      Alcotest.(check bool) "non-decreasing" true (k >= last);
      drain k (n + 1)
  in
  Alcotest.(check int) "all popped" 1000 (drain neg_infinity 0);
  Alcotest.(check bool) "buckets shrank back" true
    (Calendar.bucket_count c <= b0 * 2)

(* A far-future outlier must not stall dequeue of the near cluster (the
   direct-search fallback covers sparse years). *)
let test_calendar_sparse_outlier () =
  let c = Calendar.create () in
  Calendar.push c 1e6 "far";
  for i = 0 to 9 do
    Calendar.push c (float_of_int i *. 1e-6) (Printf.sprintf "near%d" i)
  done;
  for i = 0 to 9 do
    Alcotest.(check bool) "near first" true
      (Calendar.pop c = Some (float_of_int i *. 1e-6, Printf.sprintf "near%d" i))
  done;
  Alcotest.(check bool) "outlier last" true (Calendar.pop c = Some (1e6, "far"));
  Alcotest.(check bool) "drained" true (Calendar.pop c = None)

(* Part-way through this drain the width is re-derived as 20000/7, so
   the key 40000 lands on a bucket edge: 40000 / w rounds to just
   under 14 (bucket 13) while 14 * w rounds to exactly 40000. The due
   test must follow the division, or 40000 sits out a whole year and
   pops after 41000. *)
let test_calendar_bucket_edge () =
  let c = Calendar.create () in
  let keys = List.init 210 (fun i -> float_of_int (i * 7919 mod 53) *. 1e3) in
  List.iteri (fun i k -> Calendar.push c k i) keys;
  let expected =
    List.stable_sort (fun (a, _) (b, _) -> Float.compare a b)
      (List.mapi (fun i k -> (k, i)) keys)
  in
  let rec drain acc =
    match Calendar.pop c with None -> List.rev acc | Some e -> drain (e :: acc)
  in
  Alcotest.(check (list (pair (float 0.0) int))) "(key, seq) order" expected
    (drain [])

let test_calendar_rejects_nonfinite () =
  let c = Calendar.create () in
  Alcotest.check_raises "nan key"
    (Invalid_argument "Calendar.push: key not finite") (fun () ->
        Calendar.push c Float.nan "x");
  Alcotest.check_raises "inf key"
    (Invalid_argument "Calendar.push: key not finite") (fun () ->
        Calendar.push c infinity "x")

(* --- Engine ----------------------------------------------------------- *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:2.0 (fun () -> log := "b" :: !log);
  Engine.schedule e ~delay:1.0 (fun () -> log := "a" :: !log);
  Engine.schedule e ~delay:3.0 (fun () -> log := "c" :: !log);
  Engine.run e;
  Alcotest.(check (list string)) "order" ["a"; "b"; "c"] (List.rev !log);
  Alcotest.(check (float 1e-9)) "clock" 3.0 (Engine.now e)

let test_engine_cascading () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 5 then Engine.schedule e ~delay:1.0 tick
  in
  Engine.schedule e ~delay:1.0 tick;
  Engine.run e;
  Alcotest.(check int) "five ticks" 5 !count;
  Alcotest.(check (float 1e-9)) "final time" 5.0 (Engine.now e)

let test_engine_until () =
  let e = Engine.create () in
  let ran = ref [] in
  List.iter
    (fun t -> Engine.schedule e ~delay:t (fun () -> ran := t :: !ran))
    [1.0; 2.0; 3.0; 4.0];
  Engine.run ~until:2.5 e;
  Alcotest.(check (list (float 1e-9))) "only early events" [1.0; 2.0]
    (List.rev !ran);
  Alcotest.(check (float 1e-9)) "clock at horizon" 2.5 (Engine.now e);
  Alcotest.(check int) "pending" 2 (Engine.pending e);
  Engine.run e;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_engine_until_inclusive () =
  let e = Engine.create () in
  let ran = ref false in
  Engine.schedule e ~delay:2.0 (fun () -> ran := true);
  Engine.run ~until:2.0 e;
  Alcotest.(check bool) "event at horizon runs" true !ran

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    Engine.schedule e ~delay:1.0 (fun () ->
        incr count;
        if !count = 3 then Engine.stop e)
  done;
  Engine.run e;
  Alcotest.(check int) "stopped after 3" 3 !count;
  Alcotest.(check int) "rest pending" 7 (Engine.pending e)

let test_engine_invalid () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1.0) ignore);
  Engine.schedule e ~delay:5.0 ignore;
  Engine.run e;
  Alcotest.check_raises "past time"
    (Invalid_argument "Engine.schedule_at: time in the past") (fun () ->
      Engine.schedule_at e ~time:1.0 ignore)

let test_engine_simultaneous_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo among ties" [1; 2; 3; 4; 5]
    (List.rev !log)

(* Both backends must execute an identical, tie-heavy, self-scheduling
   workload in exactly the same order — the property every cross-K
   fingerprint rests on. *)
let test_engine_backend_parity () =
  let trace backend =
    let e = Engine.create ~backend () in
    let log = ref [] in
    let rec spawn depth tag =
      log := tag :: !log;
      if depth < 3 then begin
        (* Equal delays on purpose: ties across sibling events. *)
        Engine.schedule e ~delay:0.25 (fun () -> spawn (depth + 1) (tag * 2));
        Engine.schedule e ~delay:0.25 (fun () -> spawn (depth + 1) ((tag * 2) + 1))
      end
    in
    for i = 1 to 4 do
      Engine.schedule e ~delay:(float_of_int (i mod 2)) (fun () -> spawn 0 i)
    done;
    Engine.run e;
    (List.rev !log, Engine.processed e, Engine.now e)
  in
  let lh, ph, nh = trace Engine.Binary_heap in
  let lc, pc, nc = trace Engine.Calendar in
  Alcotest.(check (list int)) "same execution order" lh lc;
  Alcotest.(check int) "same processed count" ph pc;
  Alcotest.(check (float 1e-12)) "same final clock" nh nc

(* --- Engine.every ----------------------------------------------------- *)

let k_every = Profile.register_kind "test.every"

(* Tick times are the running sum of the interval from the arming
   instant: the first at [now + interval], each next [interval] after
   the last, never [start + k * interval]. *)
let test_every_ticks () =
  let e = Engine.create () in
  Engine.schedule e ~delay:0.5 ignore;
  Engine.run e;
  let times = ref [] in
  let (_ : unit -> unit) =
    Engine.every e ~kind:k_every ~interval:1.0 (fun () ->
        times := Engine.now e :: !times)
  in
  Engine.run ~until:10.5 e;
  Alcotest.(check (list (float 0.0))) "ten ticks from now + interval"
    (List.init 10 (fun i -> 1.5 +. float_of_int i))
    (List.rev !times);
  Alcotest.(check int) "the next tick stays armed" 1 (Engine.pending e);
  (* 0.1 is inexact: the running sum drifts from [k * 0.1], and the
     ticks must follow the sum. *)
  let e = Engine.create () in
  let times = ref [] in
  let (_ : unit -> unit) =
    Engine.every e ~kind:k_every ~interval:0.1 ~until:1.0 (fun () ->
        times := Engine.now e :: !times)
  in
  Engine.run e;
  let sums =
    List.rev
      (snd
         (List.fold_left
            (fun (t, acc) _ -> (t +. 0.1, (t +. 0.1) :: acc))
            (0.0, []) (List.init 10 Fun.id)))
  in
  Alcotest.(check bool) "the sum is not the product" true
    (List.nth sums 7 <> 8.0 *. 0.1);
  Alcotest.(check (list (float 0.0))) "running-sum tick times" sums
    (List.rev !times)

(* With [until], a bare [run] drains: [f] runs at every tick up to the
   horizon, then one trailing tick past it is a no-op that does not
   re-arm. *)
let test_every_until_drains () =
  let e = Engine.create () in
  let n = ref 0 in
  let (_ : unit -> unit) =
    Engine.every e ~kind:k_every ~interval:1.0 ~until:5.0 (fun () -> incr n)
  in
  Engine.run e;
  Alcotest.(check int) "ticks up to the horizon, inclusive" 5 !n;
  Alcotest.(check int) "one trailing no-op event" 6 (Engine.processed e);
  Alcotest.(check (float 0.0)) "trailing tick one interval past" 6.0
    (Engine.now e);
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_every_stop () =
  (* Stopped from inside a tick: the tick it armed is a no-op. *)
  let e = Engine.create () in
  let n = ref 0 in
  let stop = ref ignore in
  stop :=
    Engine.every e ~kind:k_every ~interval:1.0 (fun () ->
        incr n;
        if !n = 3 then !stop ());
  Engine.run ~until:10.0 e;
  Alcotest.(check int) "no tick after stop" 3 !n;
  Alcotest.(check int) "one pending no-op ran" 4 (Engine.processed e);
  Alcotest.(check int) "and did not re-arm" 0 (Engine.pending e);
  (* Stopped between runs. *)
  let e = Engine.create () in
  let n = ref 0 in
  let stop = Engine.every e ~kind:k_every ~interval:1.0 (fun () -> incr n) in
  Engine.run ~until:2.5 e;
  stop ();
  Engine.run e;
  Alcotest.(check int) "pending tick does nothing" 2 !n;
  Alcotest.(check int) "drained" 0 (Engine.pending e)

let test_every_validation () =
  let e = Engine.create () in
  List.iter
    (fun (interval, shown) ->
       Alcotest.check_raises "interval refused"
         (Invalid_argument
            ("Engine.every: interval must be finite and positive, got "
             ^ shown))
         (fun () ->
            ignore (Engine.every e ~kind:k_every ~interval ignore : unit -> unit)))
    [ (Float.nan, "nan"); (0.0, "0"); (-0.5, "-0.5"); (infinity, "inf") ];
  List.iter
    (fun until ->
       Alcotest.check_raises "until refused"
         (Invalid_argument "Engine.every: until must be >= 0") (fun () ->
             ignore
               (Engine.every e ~kind:k_every ~interval:1.0 ~until ignore
                : unit -> unit)))
    [ Float.nan; -1.0 ];
  Alcotest.(check int) "nothing armed" 0 (Engine.pending e);
  (* The boundary cases that must keep working. *)
  let n = ref 0 in
  let (_ : unit -> unit) =
    Engine.every e ~kind:k_every ~interval:0.25 ~until:0.0 (fun () -> incr n)
  in
  Engine.run e;
  Alcotest.(check int) "until 0: the first tick is already past" 0 !n;
  Alcotest.(check int) "and drains" 0 (Engine.pending e)

(* Every tick, the trailing no-op included, is scheduled under the
   caller's kind. *)
let test_every_profile_kind () =
  let e = Engine.create () in
  let p = Engine.profiler e in
  let k = Profile.register_kind "test.every.profiled" in
  Profile.enable p;
  let (_ : unit -> unit) =
    Engine.every e ~kind:k ~interval:1.0 ~until:5.0 ignore
  in
  Engine.run e;
  Alcotest.(check int) "scheduled per kind" 6 (Profile.kind_count p k);
  Alcotest.(check int) "executed" 6 (Profile.events p)

(* Two periodic ticks and one-shot events on shared instants execute in
   the same order under both backends. *)
let test_every_backend_parity () =
  let trace backend =
    let e = Engine.create ~backend () in
    let log = ref [] in
    let note tag () = log := (tag, Engine.now e) :: !log in
    let (_ : unit -> unit) =
      Engine.every e ~kind:k_every ~interval:0.25 ~until:3.0 (note 1)
    in
    Engine.schedule e ~delay:0.5 (note 0);
    let (_ : unit -> unit) =
      Engine.every e ~kind:k_every ~interval:0.5 ~until:2.0 (note 2)
    in
    Engine.schedule e ~delay:1.0 (note 3);
    Engine.run e;
    (List.rev !log, Engine.processed e)
  in
  let lh, ph = trace Engine.Binary_heap in
  let lc, pc = trace Engine.Calendar in
  Alcotest.(check int) "every tick ran" 18 (List.length lh);
  Alcotest.(check (list (pair int (float 0.0)))) "same sequence" lh lc;
  Alcotest.(check int) "same processed count" ph pc

(* --- Stats ------------------------------------------------------------ *)

let test_summary_moments () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0];
  (* m2 = 32 over 8 samples: sample variance 32/7, not 32/8. *)
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" (32.0 /. 7.0)
    (Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "stddev"
    (sqrt (32.0 /. 7.0))
    (Stats.Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s)

let test_summary_empty () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 1e-9)) "mean" 0.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance" 0.0 (Stats.Summary.variance s);
  (* The internal +/-infinity sentinels must not leak out of an empty
     summary — they end up as invalid literals in bench JSON. *)
  Alcotest.(check (float 1e-9)) "min" 0.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 0.0 (Stats.Summary.max s)

(* Pin the n-1 estimator on a known dataset, and pin that a merged
   summary agrees exactly with the single-stream one: merge's parallel
   m2 combination is exact, so both report sum((x - 5.5)^2) / 9. *)
let test_summary_sample_variance_merged () =
  let xs = [1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0; 9.0; 10.0] in
  let single = Stats.Summary.create () in
  List.iter (Stats.Summary.add single) xs;
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  List.iteri
    (fun i x -> Stats.Summary.add (if i < 5 then a else b) x)
    xs;
  let merged = Stats.Summary.merge a b in
  Alcotest.(check (float 1e-9)) "single variance" (82.5 /. 9.0)
    (Stats.Summary.variance single);
  Alcotest.(check (float 1e-9)) "merged variance" (82.5 /. 9.0)
    (Stats.Summary.variance merged);
  Alcotest.(check (float 1e-9)) "merged mean" 5.5 (Stats.Summary.mean merged)

let test_summary_merge () =
  let a = Stats.Summary.create () and b = Stats.Summary.create () in
  let all = Stats.Summary.create () in
  List.iter
    (fun x -> Stats.Summary.add a x; Stats.Summary.add all x)
    [1.0; 2.0; 3.0];
  List.iter
    (fun x -> Stats.Summary.add b x; Stats.Summary.add all x)
    [10.0; 20.0];
  let m = Stats.Summary.merge a b in
  Alcotest.(check (float 1e-9)) "mean" (Stats.Summary.mean all)
    (Stats.Summary.mean m);
  Alcotest.(check (float 1e-6)) "variance" (Stats.Summary.variance all)
    (Stats.Summary.variance m);
  Alcotest.(check int) "count" 5 (Stats.Summary.count m)

let summary_matches_naive =
  QCheck.Test.make ~name:"welford matches naive moments" ~count:200
    QCheck.(list_of_size (QCheck.Gen.int_range 2 50)
              (float_bound_exclusive 1000.0))
    (fun xs ->
       let s = Stats.Summary.create () in
       List.iter (Stats.Summary.add s) xs;
       let n = float_of_int (List.length xs) in
       let mean = List.fold_left ( +. ) 0.0 xs /. n in
       let var =
         List.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 xs
         /. (n -. 1.0)
       in
       abs_float (Stats.Summary.mean s -. mean) < 1e-6
       && abs_float (Stats.Summary.variance s -. var) < 1e-4)

let test_samples_percentiles () =
  let s = Stats.Samples.create () in
  for i = 1 to 100 do
    Stats.Samples.add s (float_of_int i)
  done;
  Alcotest.(check (float 1e-9)) "median" 50.5 (Stats.Samples.median s);
  Alcotest.(check (float 1e-6)) "p99" 99.01 (Stats.Samples.percentile s 0.99);
  Alcotest.(check (float 1e-9)) "p0" 1.0 (Stats.Samples.percentile s 0.0);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.Samples.percentile s 1.0);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Stats.Samples.mean s)

let test_samples_interleaved_sorting () =
  let s = Stats.Samples.create () in
  Stats.Samples.add s 5.0;
  Stats.Samples.add s 1.0;
  ignore (Stats.Samples.median s);
  Stats.Samples.add s 3.0;
  Alcotest.(check (float 1e-9)) "median after resort" 3.0
    (Stats.Samples.median s);
  Alcotest.(check (array (float 1e-9))) "sorted" [|1.0; 3.0; 5.0|]
    (Stats.Samples.to_array s)

(* --- Stats equivalence with the boxed reference ------------------------ *)

(* [Float.compare]-equal and bitwise equal, except that -0 and +0 may
   trade places: the reference sort and the in-place one both leave
   equal elements in an unspecified order. *)
let same_float x y =
  Float.compare x y = 0
  && (Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || (x = 0.0 && y = 0.0))

(* The interpolation [Samples.percentile] documents, over an array the
   stdlib sorted. *)
let ref_percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor pos) in
    let hi = Int.min (lo + 1) (n - 1) in
    let frac = pos -. float_of_int lo in
    (sorted.(lo) *. (1.0 -. frac)) +. (sorted.(hi) *. frac)
  end

let quantiles = [ 0.0; 0.5; 0.99; 1.0 ]

(* Add [xs] in two halves with a percentile read between them, so the
   second read re-sorts a sorted prefix plus an unsorted tail; then
   check every quantile and the sorted copy against the stdlib. *)
let samples_agree xs =
  let s = Stats.Samples.create () in
  let n = Array.length xs in
  Array.iteri
    (fun i x ->
       if i = n / 2 then ignore (Stats.Samples.percentile s 0.5);
       Stats.Samples.add s x)
    xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.for_all
    (fun q ->
       Float.compare (Stats.Samples.percentile s q) (ref_percentile sorted q)
       = 0)
    quantiles
  &&
  let got = Stats.Samples.to_array s in
  Array.length got = n && Array.for_all2 same_float got sorted

(* One nan bit pattern only: two nans compare equal under
   [Float.compare] but may differ in payload. *)
let specials =
  [| Float.nan; infinity; neg_infinity; 0.0; -0.0; 1.0; -1.0; max_float;
     Float.min_float; 5e-324 |]

let samples_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [ (4, map float_of_int (int_range (-40) 40));
        (3, map (fun x -> if Float.is_nan x then Float.nan else x) float);
        (1, oneofa specials) ]
  in
  let shape =
    oneofl [ `Random; `Sorted; `Reversed; `Equal; `Organ_pipe ]
  in
  pair shape (int_range 0 5000) >>= fun (shape, n) ->
  array_repeat n value >|= fun xs ->
  let sorted () =
    let c = Array.copy xs in
    Array.sort Float.compare c;
    c
  in
  match shape with
  | `Random -> xs
  | `Sorted -> sorted ()
  | `Reversed ->
    let c = sorted () in
    Array.init n (fun i -> c.(n - 1 - i))
  | `Equal -> if n = 0 then xs else Array.make n xs.(0)
  | `Organ_pipe ->
    Array.init n (fun i -> float_of_int (Int.min i (n - 1 - i)))

let samples_match_stdlib_sort =
  QCheck.Test.make ~name:"samples sort and percentiles match stdlib"
    ~count:200
    (QCheck.make
       ~print:(fun xs ->
           Printf.sprintf "%d samples: %s" (Array.length xs)
             (String.concat " "
                (List.map string_of_float
                   (Array.to_list (Array.sub xs 0 (Int.min 20 (Array.length xs)))))))
       samples_gen)
    samples_agree

(* Musser's median-of-three killer: it drives the median-of-three
   partition to its depth limit, so the sort has to finish in the
   heap-sort fallback (a quadratic quicksort would take minutes). *)
let test_samples_quicksort_killer () =
  let n = 200_000 in
  let k = n / 2 in
  let xs = Array.make n 0.0 in
  for i = 1 to k do
    if i mod 2 = 1 then begin
      xs.(i - 1) <- float_of_int i;
      xs.(i) <- float_of_int (k + i)
    end;
    xs.(k + i - 1) <- float_of_int (2 * i)
  done;
  Alcotest.(check bool) "matches stdlib sort" true (samples_agree xs)

(* The reference: a Welford summary on a record of boxed floats, with
   the same arithmetic as [Stats.Summary], operation for operation. *)
type ref_summary = {
  mutable r_count : int;
  mutable r_mean : float;
  mutable r_m2 : float;
  mutable r_min : float;
  mutable r_max : float;
}

let ref_create () =
  { r_count = 0; r_mean = 0.0; r_m2 = 0.0; r_min = infinity;
    r_max = neg_infinity }

let ref_add s x =
  s.r_count <- s.r_count + 1;
  let delta = x -. s.r_mean in
  s.r_mean <- s.r_mean +. (delta /. float_of_int s.r_count);
  s.r_m2 <- s.r_m2 +. (delta *. (x -. s.r_mean));
  if x < s.r_min then s.r_min <- x;
  if x > s.r_max then s.r_max <- x

let ref_merge a b =
  if a.r_count = 0 then { b with r_count = b.r_count }
  else if b.r_count = 0 then { a with r_count = a.r_count }
  else begin
    let n = a.r_count + b.r_count in
    let delta = b.r_mean -. a.r_mean in
    let mean =
      a.r_mean +. (delta *. float_of_int b.r_count /. float_of_int n)
    in
    let m2 =
      a.r_m2 +. b.r_m2
      +. (delta *. delta *. float_of_int a.r_count *. float_of_int b.r_count
          /. float_of_int n)
    in
    { r_count = n; r_mean = mean; r_m2 = m2;
      r_min = Float.min a.r_min b.r_min; r_max = Float.max a.r_max b.r_max }
  end

(* Bit for bit, except that any two NaNs match: with two NaN operands
   x86 returns the payload of whichever the instruction names first,
   and the compiler may order a commutative operation's operands
   either way. *)
let bits_equal x y =
  Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  || (Float.is_nan x && Float.is_nan y)

(* Every accessor, bit for bit, with the reference's own guards. *)
let summary_is s r =
  let n = r.r_count in
  Stats.Summary.count s = n
  && bits_equal (Stats.Summary.mean s) (if n = 0 then 0.0 else r.r_mean)
  && bits_equal (Stats.Summary.variance s)
    (if n < 2 then 0.0 else r.r_m2 /. float_of_int (n - 1))
  && bits_equal (Stats.Summary.stddev s)
    (sqrt (if n < 2 then 0.0 else r.r_m2 /. float_of_int (n - 1)))
  && bits_equal (Stats.Summary.min s) (if n = 0 then 0.0 else r.r_min)
  && bits_equal (Stats.Summary.max s) (if n = 0 then 0.0 else r.r_max)

let summary_gen =
  let open QCheck.Gen in
  let value =
    frequency
      [ (6, float_range (-1e6) 1e6); (2, float); (1, oneofa specials) ]
  in
  pair (list_size (int_range 0 60) value) (list_size (int_range 0 60) value)

let summary_matches_boxed_reference =
  QCheck.Test.make ~name:"summary matches boxed welford bit for bit"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair (list float) (list float))
       summary_gen)
    (fun (xs, ys) ->
       let a = Stats.Summary.create () and ra = ref_create () in
       let b = Stats.Summary.create () and rb = ref_create () in
       List.iter (fun x -> Stats.Summary.add a x; ref_add ra x) xs;
       List.iter (fun y -> Stats.Summary.add b y; ref_add rb y) ys;
       let m = Stats.Summary.merge a b and rm = ref_merge ra rb in
       let merged_ok = summary_is m rm in
       (* The merge shares nothing: adding to it leaves both inputs as
          they were, and adding to an input leaves the merge alone. *)
       Stats.Summary.add m 12345.0;
       ref_add rm 12345.0;
       let inputs_untouched = summary_is a ra && summary_is b rb in
       Stats.Summary.add a (-7.0);
       ref_add ra (-7.0);
       Stats.Summary.add b 9.0;
       ref_add rb 9.0;
       merged_ok && inputs_untouched && summary_is m rm && summary_is a ra
       && summary_is b rb)

(* Warmed sort, pre-boxed samples: each round appends one sample and
   reads a percentile, which re-sorts all 1000 in place. The returned
   float's box (2 words) is the only allocation; a generic
   [Array.sort Float.compare] would box both operands of every
   comparison. *)
let test_samples_resort_allocates_nothing () =
  let s = Stats.Samples.create () in
  for i = 1 to 1000 do
    Stats.Samples.add s (float_of_int ((i * 7919) mod 1000))
  done;
  (* Boxed once, here; the rounds below pass these boxes on. *)
  let tail = List.init 20 (fun i -> float_of_int (i * 37 mod 50)) in
  let rec rounds = function
    | [] -> ()
    | x :: rest ->
      Stats.Samples.add s x;
      ignore (Sys.opaque_identity (Stats.Samples.percentile s 0.99));
      rounds rest
  in
  ignore (Stats.Samples.percentile s 0.99);
  let w0 = Gc.minor_words () in
  rounds tail;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 20 re-sorts"
    (2.0 *. 20.0) dw

(* [Summary.add] with pre-boxed samples allocates nothing: its
   accumulators are unboxed stores into a floatarray. *)
let test_summary_add_allocates_nothing () =
  let s = Stats.Summary.create () in
  let xs = List.init 1000 (fun i -> float_of_int ((i * 31) mod 97) /. 7.0) in
  let rec feed = function
    | [] -> ()
    | x :: rest ->
      Stats.Summary.add s x;
      feed rest
  in
  feed xs;
  let w0 = Gc.minor_words () in
  feed xs;
  let dw = Gc.minor_words () -. w0 in
  Alcotest.(check (float 0.0)) "minor words over 1000 adds" 0.0 dw;
  Alcotest.(check int) "count" 2000 (Stats.Summary.count s)

(* Push payloads while registering them in a weak array, without
   leaving strong references on this frame's stack.  [@inline never]
   keeps the payload roots confined to the callee. *)
let[@inline never] fill_weak push (w : int ref Weak.t) n =
  for i = 0 to n - 1 do
    let payload = ref i in
    Weak.set w i (Some payload);
    push (float_of_int i) payload
  done

(* Pop the two smallest of four; their payloads must become collectable
   even though the queue itself stays live with the other two. *)
let pop_releases_payload ~push ~pop ~size () =
  let w = Weak.create 4 in
  fill_weak push w 4;
  ignore (Sys.opaque_identity (pop ()));
  ignore (Sys.opaque_identity (pop ()));
  Gc.full_major ();
  Alcotest.(check bool) "popped payloads reclaimed" true
    (Weak.get w 0 = None && Weak.get w 1 = None);
  Alcotest.(check bool) "live payloads retained" true
    (Weak.get w 2 <> None && Weak.get w 3 <> None);
  Alcotest.(check int) "queue still holds the rest" 2 (size ())

(* Enough pushes to force storage growth; after draining, nothing may
   be pinned by vacated or freshly grown slots. *)
let drain_releases_all ~push ~pop ~size () =
  let n = 40 in
  let w = Weak.create n in
  fill_weak push w n;
  while pop () <> None do () done;
  Gc.full_major ();
  for i = 0 to n - 1 do
    if Weak.get w i <> None then
      Alcotest.failf "payload %d still reachable after drain" i
  done;
  (* Keep the drained queue (and its backing arrays) live across the GC
     above, so reclamation is due to cleared slots, not a dead queue. *)
  Alcotest.(check int) "drained" 0 (size ())

let test_heap_pop_releases_payload () =
  let h : int ref Heap.t = Heap.create () in
  pop_releases_payload ~push:(Heap.push h) ~pop:(fun () -> Heap.pop h)
    ~size:(fun () -> Heap.size h) ()

let test_heap_drain_releases_all () =
  let h : int ref Heap.t = Heap.create () in
  drain_releases_all ~push:(Heap.push h) ~pop:(fun () -> Heap.pop h)
    ~size:(fun () -> Heap.size h) ()

let test_calendar_pop_releases_payload () =
  let c : int ref Calendar.t = Calendar.create () in
  pop_releases_payload ~push:(Calendar.push c) ~pop:(fun () -> Calendar.pop c)
    ~size:(fun () -> Calendar.size c) ()

let test_calendar_drain_releases_all () =
  let c : int ref Calendar.t = Calendar.create () in
  drain_releases_all ~push:(Calendar.push c) ~pop:(fun () -> Calendar.pop c)
    ~size:(fun () -> Calendar.size c) ()

(* The engine's pop path, for either queue: [pop_due] must clear the
   vacated slot too, and a warmed [push_at]/[pop_due] cycle allocates
   nothing, so a float boxed anywhere on the path fails here, not only
   in the benchmark. *)
module Storage_checks (Q : Queue) = struct
  let pop_due_releases_payload () =
    let q : int ref Q.t = Q.create () in
    let default = ref (-1) and key_out = Float.Array.make 1 0.0 in
    let bound = Float.Array.make 1 infinity in
    pop_releases_payload ~push:(Q.push q)
      ~pop:(fun () ->
          let v = Q.pop_due q ~bound ~strict:false ~default ~key_out in
          if v == default then None else Some v)
      ~size:(fun () -> Q.size q) ()

  let cycle_allocates_nothing () =
    let q : (unit -> unit) Q.t = Q.create () in
    let ev () = () in
    let kcell = Float.Array.make 1 0.0 and key_out = Float.Array.make 1 0.0 in
    let bound = Float.Array.make 1 infinity in
    let cycles n =
      for i = 1 to n do
        (* ~50 live events at a steady population, engine-like keys. *)
        Float.Array.set kcell 0
          (Float.Array.get key_out 0 +. float_of_int (i land 63) *. 1e-4);
        Q.push_at q kcell ev;
        if Q.size q > 50 then begin
          let (_ : unit -> unit) =
            Q.pop_due q ~bound ~strict:false ~default:ignore ~key_out
          in
          ()
        end
      done
    in
    cycles 20_000;
    let w0 = Gc.minor_words () in
    cycles 10_000;
    let dw = Gc.minor_words () -. w0 in
    Alcotest.(check (float 0.0)) "minor words over 10k cycles" 0.0 dw
end

module Heap_storage = Storage_checks (Heap)
module Calendar_storage = Storage_checks (Calendar)

let test_heap_clear () =
  let h = Heap.create () in
  Heap.push h 1.0 "x";
  Heap.push h 2.0 "y";
  Heap.clear h;
  Alcotest.(check int) "emptied" 0 (Heap.size h);
  Heap.push h 3.0 "z";
  Alcotest.(check bool) "usable after clear" true
    (match Heap.pop h with Some (_, "z") -> true | _ -> false)

let test_engine_processed_counter () =
  let e = Engine.create () in
  for _ = 1 to 5 do
    Engine.schedule e ~delay:1.0 ignore
  done;
  Engine.run e;
  Alcotest.(check int) "five processed" 5 (Engine.processed e);
  Alcotest.(check bool) "step on empty" false (Engine.step e)

let test_engine_schedule_at_now () =
  let e = Engine.create () in
  let ran = ref false in
  Engine.schedule e ~delay:1.0 (fun () ->
      (* Scheduling at exactly the current time is allowed. *)
      Engine.schedule_at e ~time:(Engine.now e) (fun () -> ran := true));
  Engine.run e;
  Alcotest.(check bool) "ran" true !ran

let test_engine_run_before () =
  (* run_before is strict: events at exactly the bound stay queued, so
     a conservative window [completed, bound) never executes an event a
     later cross-shard arrival at [bound] could precede. *)
  let e = Engine.create () in
  let fired = ref [] in
  List.iter
    (fun t -> Engine.schedule_at e ~time:t (fun () -> fired := t :: !fired))
    [ 1.0; 2.0; 3.0 ];
  Engine.run_before e ~before:(Float.Array.make 1 2.0);
  Alcotest.(check (list (float 0.0))) "strictly before" [ 1.0 ]
    (List.rev !fired);
  Alcotest.(check (option (float 0.0))) "bound event still queued"
    (Some 2.0) (Engine.peek_time e);
  Engine.run_before e ~before:(Float.Array.make 1 10.0);
  Alcotest.(check (list (float 0.0))) "rest drained" [ 1.0; 2.0; 3.0 ]
    (List.rev !fired);
  Alcotest.(check (option (float 0.0))) "empty" None (Engine.peek_time e)

let test_engine_profiler () =
  (* The dispatch-cost ledger: off by default (the plain drain loop
     never touches the clock), and when enabled it buckets every
     executed event's wall time into pop + handler and counts
     dispatches per registered kind. *)
  let e = Engine.create () in
  let p = Engine.profiler e in
  Alcotest.(check bool) "off by default" false (Profile.enabled p);
  let k = Profile.register_kind "test.tick" in
  Profile.enable p;
  let fired = ref 0 in
  let rec tick n =
    if n > 0 then
      Engine.schedule_kind e ~kind:k ~delay:1.0 (fun () ->
          incr fired;
          tick (n - 1))
  in
  tick 50;
  Engine.run e;
  Alcotest.(check int) "all fired" 50 !fired;
  Alcotest.(check int) "every event bucketed" 50 (Profile.events p);
  Alcotest.(check int) "kind dispatches counted" 50 (Profile.kind_count p k);
  Alcotest.(check bool) "pop bucket non-negative" true
    (Profile.pop_seconds p >= 0.0);
  Alcotest.(check bool) "handler bucket non-negative" true
    (Profile.handler_seconds p >= 0.0);
  Profile.disable p;
  Profile.reset p;
  Alcotest.(check int) "reset clears the ledger" 0 (Profile.events p);
  (* Off again: further events leave the ledger untouched. *)
  Engine.schedule e ~delay:1.0 ignore;
  Engine.run e;
  Alcotest.(check int) "plain drain does not record" 0 (Profile.events p)

let test_summary_single_sample () =
  let s = Stats.Summary.create () in
  Stats.Summary.add s 5.0;
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "variance zero" 0.0
    (Stats.Summary.variance s);
  Alcotest.(check (float 1e-9)) "min=max" (Stats.Summary.min s)
    (Stats.Summary.max s)

(* --- Topology --------------------------------------------------------- *)

let test_topology_accessor_errors () =
  let t = Topology.create () in
  let a = Topology.add_node ~name:"alpha" t in
  Alcotest.(check string) "name" "alpha" (Topology.node_name t a);
  Alcotest.check_raises "bad node" (Invalid_argument "Topology: unknown node 9")
    (fun () -> ignore (Topology.node_name t 9));
  Alcotest.check_raises "bad link"
    (Invalid_argument "Topology.link: unknown link 3") (fun () ->
      ignore (Topology.link t 3));
  Alcotest.(check (option int)) "find_node miss" None
    (Topology.find_node t "beta")

let test_topology_connect () =
  let t = Topology.create () in
  let a = Topology.add_node ~name:"a" t in
  let b = Topology.add_node ~name:"b" t in
  let ab, ba = Topology.connect t a b ~bandwidth:1e9 ~delay:0.001 in
  Alcotest.(check int) "nodes" 2 (Topology.node_count t);
  Alcotest.(check int) "links" 2 (Topology.link_count t);
  Alcotest.(check int) "ab src" a ab.Topology.src;
  Alcotest.(check int) "ba src" b ba.Topology.src;
  Alcotest.(check (option int)) "find by name" (Some b)
    (Topology.find_node t "b");
  Alcotest.(check bool) "find link" true
    (Topology.find_link t a b <> None);
  Alcotest.(check int) "neighbors of a" 1
    (List.length (Topology.neighbors t a))

let test_topology_duplicate_rejected () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Topology.connect: duplicate link 0->1") (fun () ->
      ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001));
  Alcotest.check_raises "self loop"
    (Invalid_argument "Topology.connect: self-loop") (fun () ->
      ignore (Topology.connect t a a ~bandwidth:1e9 ~delay:0.001))

let test_topology_failure () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  Alcotest.(check int) "up neighbors" 1
    (List.length (Topology.up_neighbors t a));
  Topology.set_duplex_state t a b false;
  Alcotest.(check int) "after failure" 0
    (List.length (Topology.up_neighbors t a));
  Alcotest.(check int) "reverse down too" 0
    (List.length (Topology.up_neighbors t b));
  Topology.set_duplex_state t a b true;
  Alcotest.(check int) "restored" 1
    (List.length (Topology.up_neighbors t a))

(* A redundant set_duplex_state is a no-op: no hook firings, no
   generation bump — chaos replays and retry loops must be free to
   re-assert the state they already believe in. *)
let test_topology_duplex_idempotent () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  ignore (Topology.connect t a b ~bandwidth:1e9 ~delay:0.001);
  let fired = ref 0 in
  Topology.on_duplex_change t (fun ~a:_ ~b:_ ~up:_ -> incr fired);
  Topology.set_duplex_state t a b false;
  let gen = Topology.generation t in
  Alcotest.(check int) "one transition, one firing" 1 !fired;
  Topology.set_duplex_state t a b false;
  Topology.set_duplex_state t a b false;
  Alcotest.(check int) "redundant sets fire nothing" 1 !fired;
  Alcotest.(check int) "generation untouched" gen (Topology.generation t);
  Topology.set_duplex_state t a b true;
  Alcotest.(check int) "restore fires once" 2 !fired;
  Alcotest.(check bool) "generation bumped" true
    (Topology.generation t > gen);
  Topology.set_duplex_state t a b true;
  Alcotest.(check int) "redundant restore is silent" 2 !fired

let test_topology_reserve () =
  let t = Topology.create () in
  let a = Topology.add_node t and b = Topology.add_node t in
  let ab, _ = Topology.connect t a b ~bandwidth:100.0 ~delay:0.001 in
  Alcotest.(check bool) "reserve ok" true (Topology.reserve ab 60.0);
  Alcotest.(check (float 1e-9)) "available" 40.0 (Topology.available ab);
  Alcotest.(check bool) "over-reserve refused" false
    (Topology.reserve ab 50.0);
  Alcotest.(check (float 1e-9)) "unchanged" 40.0 (Topology.available ab);
  Topology.release ab 60.0;
  Alcotest.(check (float 1e-9)) "released" 100.0 (Topology.available ab)

let test_topology_builders () =
  let t = Topology.create () in
  let ring = Topology.ring t 5 ~bandwidth:1e9 ~delay:0.001 in
  Alcotest.(check int) "ring nodes" 5 (Array.length ring);
  Alcotest.(check int) "ring links" 10 (Topology.link_count t);
  let t2 = Topology.create () in
  let mesh = Topology.full_mesh t2 4 ~bandwidth:1e9 ~delay:0.001 in
  Alcotest.(check int) "mesh links" 12 (Topology.link_count t2);
  ignore mesh;
  let t3 = Topology.create () in
  let hub, leaves = Topology.star t3 6 ~bandwidth:1e9 ~delay:0.001 in
  Alcotest.(check int) "star nodes" 7 (Topology.node_count t3);
  Alcotest.(check int) "hub degree" 6
    (List.length (Topology.neighbors t3 hub));
  ignore leaves

let test_topology_ring_with_chords () =
  let t = Topology.create () in
  let ids =
    Topology.ring_with_chords t 6 ~chords:[(0, 3); (1, 4)] ~bandwidth:1e9
      ~delay:0.001
  in
  Alcotest.(check int) "links" ((6 + 2) * 2) (Topology.link_count t);
  Alcotest.(check bool) "chord exists" true
    (Topology.find_link t ids.(0) ids.(3) <> None)

let random_connected_is_connected =
  QCheck.Test.make ~name:"random topology is connected" ~count:50
    QCheck.(pair (int_range 2 30) (int_bound 20))
    (fun (n, extra) ->
       let t = Topology.create () in
       let rng = Rng.create (n * 1000 + extra) in
       let ids =
         Topology.random_connected t rng ~n ~extra_links:extra
           ~bandwidth:1e9 ~delay:0.001
       in
       (* BFS from the first node must reach all. *)
       let visited = Array.make (Topology.node_count t) false in
       let queue = Queue.create () in
       Queue.add ids.(0) queue;
       visited.(ids.(0)) <- true;
       while not (Queue.is_empty queue) do
         let v = Queue.pop queue in
         List.iter
           (fun (nbr, _) ->
              if not visited.(nbr) then begin
                visited.(nbr) <- true;
                Queue.add nbr queue
              end)
           (Topology.neighbors t v)
       done;
       Array.for_all (fun id -> visited.(id)) ids)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [ ("rng",
       [ Alcotest.test_case "determinism" `Quick test_rng_determinism;
         Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
         Alcotest.test_case "split" `Quick test_rng_split_independent;
         Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
         Alcotest.test_case "int_in" `Quick test_rng_int_in;
         Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
         Alcotest.test_case "exponential mean" `Quick
           test_rng_exponential_mean;
         Alcotest.test_case "pareto min" `Quick test_rng_pareto_min;
         Alcotest.test_case "split indexed" `Quick test_rng_split_indexed;
         Alcotest.test_case "split distinct" `Quick test_rng_split_distinct;
         Alcotest.test_case "normal moments" `Quick test_rng_normal_moments;
         Alcotest.test_case "shuffle permutes" `Quick
           test_rng_shuffle_permutes;
         Alcotest.test_case "stream pinned" `Quick test_rng_stream_pinned;
         Alcotest.test_case "cell draws match" `Quick
           test_rng_cell_draws_match;
         Alcotest.test_case "draws allocate nothing" `Quick
           test_rng_draws_allocate_nothing ]);
      ("heap",
       [ Alcotest.test_case "order" `Quick test_heap_order;
         Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
         Alcotest.test_case "empty" `Quick test_heap_empty;
         Alcotest.test_case "clear" `Quick test_heap_clear;
         qt heap_fifo_contract;
         qt heap_storage_contract;
         Alcotest.test_case "pop releases payload" `Quick
           test_heap_pop_releases_payload;
         Alcotest.test_case "drain releases all" `Quick
           test_heap_drain_releases_all;
         Alcotest.test_case "pop_due releases payload" `Quick
           Heap_storage.pop_due_releases_payload;
         Alcotest.test_case "push/pop cycle allocates nothing" `Quick
           Heap_storage.cycle_allocates_nothing;
         qt heap_sorts ]);
      ("calendar",
       [ Alcotest.test_case "order" `Quick test_calendar_order;
         Alcotest.test_case "fifo ties" `Quick test_calendar_fifo_ties;
         Alcotest.test_case "empty" `Quick test_calendar_empty;
         Alcotest.test_case "clear" `Quick test_calendar_clear;
         Alcotest.test_case "resize" `Quick test_calendar_resize;
         Alcotest.test_case "sparse outlier" `Quick
           test_calendar_sparse_outlier;
         Alcotest.test_case "rejects non-finite keys" `Quick
           test_calendar_rejects_nonfinite;
         Alcotest.test_case "bucket-edge keys pop in order" `Quick
           test_calendar_bucket_edge;
         qt calendar_fifo_contract;
         qt calendar_storage_contract;
         Alcotest.test_case "pop releases payload" `Quick
           test_calendar_pop_releases_payload;
         Alcotest.test_case "pop_due releases payload" `Quick
           Calendar_storage.pop_due_releases_payload;
         Alcotest.test_case "drain releases all" `Quick
           test_calendar_drain_releases_all;
         Alcotest.test_case "push/pop cycle allocates nothing" `Quick
           Calendar_storage.cycle_allocates_nothing ]);
      ("engine",
       [ Alcotest.test_case "time order" `Quick test_engine_time_order;
         Alcotest.test_case "cascading" `Quick test_engine_cascading;
         Alcotest.test_case "until" `Quick test_engine_until;
         Alcotest.test_case "until inclusive" `Quick
           test_engine_until_inclusive;
         Alcotest.test_case "stop" `Quick test_engine_stop;
         Alcotest.test_case "invalid times" `Quick test_engine_invalid;
         Alcotest.test_case "backend parity" `Quick
           test_engine_backend_parity;
         Alcotest.test_case "simultaneous fifo" `Quick
           test_engine_simultaneous_fifo;
         Alcotest.test_case "processed counter" `Quick
           test_engine_processed_counter;
         Alcotest.test_case "schedule_at now" `Quick
           test_engine_schedule_at_now;
         Alcotest.test_case "run_before strict" `Quick
           test_engine_run_before;
         Alcotest.test_case "profiler ledger" `Quick
           test_engine_profiler;
         Alcotest.test_case "every tick times and count" `Quick
           test_every_ticks;
         Alcotest.test_case "every until drains" `Quick
           test_every_until_drains;
         Alcotest.test_case "every stop" `Quick test_every_stop;
         Alcotest.test_case "every validation" `Quick test_every_validation;
         Alcotest.test_case "every profile kind" `Quick
           test_every_profile_kind;
         Alcotest.test_case "every backend parity" `Quick
           test_every_backend_parity ]);
      ("stats",
       [ Alcotest.test_case "summary moments" `Quick test_summary_moments;
         Alcotest.test_case "summary empty" `Quick test_summary_empty;
         Alcotest.test_case "summary merge" `Quick test_summary_merge;
         Alcotest.test_case "summary sample variance merged" `Quick
           test_summary_sample_variance_merged;
         qt summary_matches_naive;
         Alcotest.test_case "percentiles" `Quick test_samples_percentiles;
         Alcotest.test_case "interleaved sorting" `Quick
           test_samples_interleaved_sorting;
         qt samples_match_stdlib_sort;
         Alcotest.test_case "quicksort killer" `Quick
           test_samples_quicksort_killer;
         qt summary_matches_boxed_reference;
         Alcotest.test_case "re-sort allocates only the result" `Quick
           test_samples_resort_allocates_nothing;
         Alcotest.test_case "summary add allocates nothing" `Quick
           test_summary_add_allocates_nothing;
         Alcotest.test_case "summary single sample" `Quick
           test_summary_single_sample ]);
      ("topology",
       [ Alcotest.test_case "connect" `Quick test_topology_connect;
         Alcotest.test_case "duplicates rejected" `Quick
           test_topology_duplicate_rejected;
         Alcotest.test_case "failure injection" `Quick test_topology_failure;
         Alcotest.test_case "duplex state idempotent" `Quick
           test_topology_duplex_idempotent;
         Alcotest.test_case "reservation" `Quick test_topology_reserve;
         Alcotest.test_case "builders" `Quick test_topology_builders;
         Alcotest.test_case "ring with chords" `Quick
           test_topology_ring_with_chords;
         Alcotest.test_case "accessor errors" `Quick
           test_topology_accessor_errors;
         qt random_connected_is_connected ]) ]
