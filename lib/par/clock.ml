exception Aborted

type t = {
  shards : int;
  horizon : float;
  (* Shard [i]'s inbound cut sources and their minimum delays, as
     parallel arrays, so a bound is a plain loop. *)
  in_src : int array array;
  in_delay : floatarray array;
  (* [cap.{i}]: shard [i]'s minimum inbound delay (+infinity with no
     inbound link), the longest window it may run past what it has
     completed. *)
  cap : floatarray;
  la : bool;
  (* [pubs.(i)]: shard [i]'s publication, encoded by [enc]. Only shard
     [i] writes it. *)
  pubs : int Atomic.t array;
  (* Shards blocked in [next_bound], counted under [mutex]. *)
  waiters : int Atomic.t;
  aborted : bool Atomic.t;  (* set once by {!abort}, never cleared *)
  mutex : Mutex.t;
  changed : Condition.t;
  nexts : float array;  (* barrier-disciplined: write own slot, barrier,
                           read all, barrier *)
  mutable arrived : int;  (* guarded by [mutex] *)
  mutable phase : bool;  (* guarded by [mutex] *)
}

(* A publication is a float >= 0 (they start at 0 and only rise), so
   its IEEE bits lie in [0, 2^63) and order as the floats do. Shifted
   down by 2^62 they fit an immediate int exactly, which an [Atomic.t]
   holds without boxing: a publication is one atomic store, and
   reading one gives the reader everything its publisher did before
   (the exchange sends it must ingest). *)
let[@inline] enc v =
  Int64.to_int (Int64.sub (Int64.bits_of_float v) 0x4000_0000_0000_0000L)

let[@inline] dec i =
  Int64.float_of_bits (Int64.add (Int64.of_int i) 0x4000_0000_0000_0000L)

let create ~shards ~horizon ~inbound =
  if shards < 1 then invalid_arg "Clock.create: shards < 1";
  if Array.length inbound <> shards then
    invalid_arg "Clock.create: inbound length <> shards";
  Array.iter
    (List.iter (fun (j, _) ->
         if j < 0 || j >= shards then
           invalid_arg "Clock.create: bad source shard"))
    inbound;
  let la = Array.for_all (List.for_all (fun (_, d) -> d > 0.0)) inbound in
  { shards; horizon;
    in_src = Array.map (fun l -> Array.of_list (List.map fst l)) inbound;
    in_delay = Array.map (fun l -> Float.Array.of_list (List.map snd l)) inbound;
    cap =
      Float.Array.map_from_array
        (List.fold_left (fun m (_, d) -> Float.min m d) infinity)
        inbound;
    la; pubs = Array.init shards (fun _ -> Atomic.make (enc 0.0));
    waiters = Atomic.make 0; aborted = Atomic.make false;
    mutex = Mutex.create (); changed = Condition.create ();
    nexts = Array.make shards infinity; arrived = 0; phase = false }

let horizon t = t.horizon

let lookahead t = t.la

let[@inline] pub t j = dec (Atomic.get t.pubs.(j))

(* The bound rule of clock.mli, with [completed] the shard's own
   publication. Plain compares, not [Float.min], keep every float
   unboxed. *)
let[@inline] bound t shard ~completed =
  let src = t.in_src.(shard) and dly = t.in_delay.(shard) in
  let b = ref (completed +. Float.Array.get t.cap shard) in
  if t.horizon < !b then b := t.horizon;
  for k = 0 to Array.length src - 1 do
    let v = pub t src.(k) +. Float.Array.get dly k in
    if v < !b then b := v
  done;
  !b

(* A shard that must wait counts itself in [waiters] under [mutex]
   before it re-reads the publications, and sleeps on [changed]; a
   publisher stores its publication, then reads [waiters], and takes
   the mutex to broadcast only if someone waits. No wakeup is lost:
   both sides' accesses are atomic, hence sequentially consistent. If
   the publisher's read of [waiters] comes before the waiter's
   increment, its store came before too, so the waiter's re-read sees
   the publication and it does not sleep. Otherwise the publisher sees
   the waiter and locks the mutex, which the waiter holds from its
   increment until [Condition.wait] releases it, so the broadcast
   finds it asleep. A wait ends in [Aborted] once {!abort} has run. *)
let wait_bound t ~shard out =
  let completed = pub t shard in
  Mutex.lock t.mutex;
  Atomic.incr t.waiters;
  Float.Array.set out 0 (bound t shard ~completed);
  while
    (not (Atomic.get t.aborted))
    && Float.Array.get out 0 <= completed
    && Float.Array.get out 0 < t.horizon
  do
    Condition.wait t.changed t.mutex;
    Float.Array.set out 0 (bound t shard ~completed)
  done;
  Atomic.decr t.waiters;
  Mutex.unlock t.mutex

let next_bound t ~shard out =
  if Atomic.get t.aborted then raise Aborted;
  let completed = pub t shard in
  let b = bound t shard ~completed in
  if b > completed || b >= t.horizon then Float.Array.set out 0 b
  else begin
    wait_bound t ~shard out;
    if Atomic.get t.aborted then raise Aborted
  end

let abort t =
  Atomic.set t.aborted true;
  Mutex.lock t.mutex;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex

let publish t ~shard v =
  let v = Float.Array.get v 0 in
  if v > pub t shard then begin
    Atomic.set t.pubs.(shard) (enc v);
    if Atomic.get t.waiters > 0 then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.changed;
      Mutex.unlock t.mutex
    end
  end

let barrier t =
  Mutex.lock t.mutex;
  if not (Atomic.get t.aborted) then begin
    let sense = t.phase in
    t.arrived <- t.arrived + 1;
    if t.arrived = t.shards then begin
      t.arrived <- 0;
      t.phase <- not t.phase;
      Condition.broadcast t.changed
    end
    else
      while t.phase = sense && not (Atomic.get t.aborted) do
        Condition.wait t.changed t.mutex
      done
  end;
  let aborted = Atomic.get t.aborted in
  Mutex.unlock t.mutex;
  if aborted then raise Aborted

let min_next t ~shard v =
  t.nexts.(shard) <- v;
  barrier t;
  let m = Array.fold_left Float.min infinity t.nexts in
  (* Second rendezvous: nobody overwrites [nexts] for the following
     round until everyone has read this one. *)
  barrier t;
  m
