(* Host-speed calibration. This box is shared: its speed drifts by tens
   of percent over minutes, far more than the within-run spread. Each
   run therefore also times a fixed reference kernel that lives here,
   outside the code under test (so no change to the repository can
   speed it up), and scales its CPU figures to the kernel's nominal
   speed. The kernel mimics the simulator's mix — a binary heap of
   float-keyed events, small-record allocation, hashing and closure
   calls — so contention slows it the way it slows the workloads. *)

(* CPU seconds the kernel takes when the host runs at the speed the
   benchmark's figures are quoted at. *)
let nominal_s = 0.125

type ev = { time : float; tag : int; k : int -> int }

let kernel () =
  let cap = 1 lsl 17 in
  let heap = Array.make cap { time = 0.0; tag = 0; k = Fun.id } in
  let n = ref 0 in
  let push e =
    let i = ref !n in
    incr n;
    while !i > 0 && heap.((!i - 1) / 2).time > e.time do
      heap.(!i) <- heap.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    heap.(!i) <- e
  in
  let pop () =
    let top = heap.(0) in
    decr n;
    let last = heap.(!n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !n then fin := true
      else begin
        let c = if l + 1 < !n && heap.(l + 1).time < heap.(l).time then l + 1 else l in
        if heap.(c).time < last.time then begin
          heap.(!i) <- heap.(c);
          i := c
        end
        else fin := true
      end
    done;
    heap.(!i) <- last;
    top
  in
  let tbl = Hashtbl.create 65536 in
  let rng = Random.State.make [| 7 |] in
  let acc = ref 0 in
  for i = 1 to 100_000 do
    push { time = Random.State.float rng 1.0; tag = i; k = (fun x -> x + i) }
  done;
  for _ = 1 to 100_000 do
    let e = pop () in
    acc := e.k !acc land 0xFFFFFF;
    let key = (e.tag * 7919) land 0xFFFF in
    Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key));
    push
      { time = e.time +. Random.State.float rng 1.0; tag = e.tag + 1;
        k = (fun x -> x lxor e.tag) }
  done;
  !acc

(* CPU seconds of one kernel run. *)
let sample () =
  let c0 = Stat.cpu () in
  ignore (Sys.opaque_identity (kernel ()));
  Stat.cpu () -. c0

(* Scale factor from the host's speed around a pass (the kernel timed
   just before and just after it) to the nominal speed: multiply the
   pass's times by it, divide its rates by it. *)
let factor ~before ~after = nominal_s /. ((before +. after) /. 2.0)

(* The latest sample: back-to-back brackets share the one between
   them, which halves the kernel's share of a run. *)
let last = ref None

(* Forget [last], after work that was not bracketed. *)
let restart () = last := None

(* [f ()] and the factor of the calibration bracket around it. *)
let bracket f =
  let before = match !last with Some s -> s | None -> sample () in
  let r = f () in
  let after = sample () in
  last := Some after;
  (r, factor ~before ~after)
