exception Aborted

type t = {
  shards : int;
  horizon : float;
  (* Shard [i]'s inbound cut sources and their minimum delays, as
     parallel arrays, so a bound is a plain loop. *)
  in_src : int array array;
  in_delay : floatarray array;
  la : bool;
  mutex : Mutex.t;
  changed : Condition.t;
  pubs : float array;  (* guarded by [mutex] *)
  nexts : float array;  (* barrier-disciplined: write own slot, barrier,
                           read all, barrier *)
  mutable arrived : int;
  mutable phase : bool;
  mutable aborted : bool;  (* guarded by [mutex]; never cleared *)
}

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
    la; mutex = Mutex.create (); changed = Condition.create ();
    pubs = Array.make shards 0.0; nexts = Array.make shards infinity;
    arrived = 0; phase = false; aborted = false }

let horizon t = t.horizon

let lookahead t = t.la

let[@inline] bound_locked t shard =
  let src = t.in_src.(shard) and dly = t.in_delay.(shard) in
  let b = ref t.horizon in
  for k = 0 to Array.length src - 1 do
    let v = t.pubs.(src.(k)) +. Float.Array.get dly k in
    if v < !b then b := v
  done;
  !b

(* Waits are plain loops on the condition; each ends in [Aborted]
   once {!abort} has run. Called with [mutex] held; releases it. *)
let unlock_checked t =
  let aborted = t.aborted in
  Mutex.unlock t.mutex;
  if aborted then raise Aborted

let next_bound t ~shard ~completed =
  Mutex.lock t.mutex;
  let b = ref (bound_locked t shard) in
  while (not t.aborted) && !b <= completed && !b < t.horizon do
    Condition.wait t.changed t.mutex;
    b := bound_locked t shard
  done;
  unlock_checked t;
  !b

let abort t =
  Mutex.lock t.mutex;
  t.aborted <- true;
  Condition.broadcast t.changed;
  Mutex.unlock t.mutex

let publish t ~shard v =
  Mutex.lock t.mutex;
  if v > t.pubs.(shard) then begin
    t.pubs.(shard) <- v;
    Condition.broadcast t.changed
  end;
  Mutex.unlock t.mutex

let barrier t =
  Mutex.lock t.mutex;
  if not t.aborted then begin
    let sense = t.phase in
    t.arrived <- t.arrived + 1;
    if t.arrived = t.shards then begin
      t.arrived <- 0;
      t.phase <- not t.phase;
      Condition.broadcast t.changed
    end
    else
      while t.phase = sense && not t.aborted do
        Condition.wait t.changed t.mutex
      done
  end;
  unlock_checked t

let min_next t ~shard v =
  t.nexts.(shard) <- v;
  barrier t;
  let m = Array.fold_left Float.min infinity t.nexts in
  (* Second rendezvous: nobody overwrites [nexts] for the following
     round until everyone has read this one. *)
  barrier t;
  m
