(* Fixed-capacity (sim_time, value) series with 2x decimation.

   Storage discipline follows counter.ml: the handle is shared across
   domains, the samples live in domain-local state, so concurrent shard
   domains append to private buffers and a harness folds them together
   with [Registry.snapshot] + [Registry.absorb].

   Residency is bounded by construction. The buffer holds at most
   [capacity] samples; when an accepted sample would overflow it, the
   buffer is compacted to its even-indexed half and the acceptance
   stride doubles, so a run of any length keeps at most [capacity]
   samples at stride 2^level. The accepted set is always exactly the
   arrivals at indices {k * stride}, which makes the retained sample
   times a pure function of the arrival sequence: every shard's sampler
   sees the same arrival sequence, so every shard retains the same
   times and the cross-domain merge lines up sample-for-sample. *)

type scope = Sim | Host

type state = {
  mutable times : floatarray;
  mutable values : floatarray;
  mutable count : int;
  mutable stride : int;  (* accept 1 arrival in [stride]; 2^level *)
  mutable arrivals : int;
}

type t = {
  name : string;
  capacity : int;
  scope : scope;
  key : state Domain.DLS.key;
}

let default_capacity = 512

let fresh_state capacity () =
  { times = Float.Array.create capacity;
    values = Float.Array.create capacity;
    count = 0; stride = 1; arrivals = 0 }

let make ?(capacity = default_capacity) ?(scope = Sim) name =
  if capacity < 2 || capacity land 1 <> 0 then
    invalid_arg "Timeseries.make: capacity must be even and >= 2";
  { name; capacity; scope; key = Domain.DLS.new_key (fresh_state capacity) }

let scope t = t.scope

let state t = Domain.DLS.get t.key

(* Keep the even-indexed half. Arrivals retained before: {k * stride};
   after: {k * 2 * stride}. The arrival that triggered the compaction
   has index [capacity * stride], a multiple of the doubled stride
   (capacity is even), so it is always accepted right after. *)
let decimate s =
  let half = s.count / 2 in
  for i = 0 to half - 1 do
    Float.Array.set s.times i (Float.Array.get s.times (2 * i));
    Float.Array.set s.values i (Float.Array.get s.values (2 * i))
  done;
  s.count <- half;
  s.stride <- s.stride * 2

let add t ~time v =
  if !Control.enabled then begin
    let s = state t in
    let a = s.arrivals in
    s.arrivals <- a + 1;
    if a land (s.stride - 1) = 0 then begin
      (* [absorb] can leave more than [capacity] merged samples (shards
         with disjoint sample times); halve until the append fits. *)
      while s.count >= t.capacity do decimate s done;
      Float.Array.set s.times s.count time;
      Float.Array.set s.values s.count v;
      s.count <- s.count + 1
    end
  end

let length t = (state t).count

let level t =
  let s = state t in
  let rec log2 n acc = if n <= 1 then acc else log2 (n lsr 1) (acc + 1) in
  log2 s.stride 0

let get t i =
  let s = state t in
  if i < 0 || i >= s.count then invalid_arg "Timeseries.get";
  (Float.Array.get s.times i, Float.Array.get s.values i)

let iter t f =
  let s = state t in
  for i = 0 to s.count - 1 do
    f (Float.Array.get s.times i) (Float.Array.get s.values i)
  done

let samples t =
  let s = state t in
  Array.init s.count (fun i ->
      (Float.Array.get s.times i, Float.Array.get s.values i))

let reset t =
  let s = state t in
  s.count <- 0;
  s.stride <- 1;
  s.arrivals <- 0

(* --- snapshot / restore / absorb --------------------------------------- *)

type snapshot = {
  snap_times : float array;
  snap_values : float array;
  snap_stride : int;
  snap_arrivals : int;
}

let snapshot t =
  let s = state t in
  { snap_times = Array.init s.count (Float.Array.get s.times);
    snap_values = Array.init s.count (Float.Array.get s.values);
    snap_stride = s.stride;
    snap_arrivals = s.arrivals }

let ensure_room s n =
  if Float.Array.length s.times < n then begin
    let cap = ref (Float.Array.length s.times) in
    while !cap < n do cap := !cap * 2 done;
    let times = Float.Array.create !cap in
    let values = Float.Array.create !cap in
    for i = 0 to s.count - 1 do
      Float.Array.set times i (Float.Array.get s.times i);
      Float.Array.set values i (Float.Array.get s.values i)
    done;
    s.times <- times;
    s.values <- values
  end

let restore t snap =
  let s = state t in
  let n = Array.length snap.snap_times in
  s.count <- 0;
  ensure_room s n;
  for i = 0 to n - 1 do
    Float.Array.set s.times i snap.snap_times.(i);
    Float.Array.set s.values i snap.snap_values.(i)
  done;
  s.count <- n;
  s.stride <- snap.snap_stride;
  s.arrivals <- snap.snap_arrivals

(* Union merge keyed on exact sample time, values summed on equal
   times. Associative and commutative (merge-sum of time->value maps),
   so shard partials fold in any order into one deterministic series.
   Shards sampling the same schedule carry identical time sets and the
   merge never grows past [capacity]; disjoint sets are kept whole here
   (bounded by K * capacity) and re-decimated by the next [add]. *)
let absorb t snap =
  let s = state t in
  let n2 = Array.length snap.snap_times in
  if n2 > 0 then begin
    let n1 = s.count in
    let t1 = Array.init n1 (Float.Array.get s.times) in
    let v1 = Array.init n1 (Float.Array.get s.values) in
    ensure_room s (n1 + n2);
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let put time v =
      Float.Array.set s.times !k time;
      Float.Array.set s.values !k v;
      incr k
    in
    while !i < n1 && !j < n2 do
      let ta = t1.(!i) and tb = snap.snap_times.(!j) in
      if ta = tb then begin
        put ta (v1.(!i) +. snap.snap_values.(!j));
        incr i; incr j
      end
      else if ta < tb then begin put ta v1.(!i); incr i end
      else begin put tb snap.snap_values.(!j); incr j end
    done;
    while !i < n1 do put t1.(!i) v1.(!i); incr i done;
    while !j < n2 do put snap.snap_times.(!j) snap.snap_values.(!j); incr j done;
    s.count <- !k;
    s.stride <- Stdlib.max s.stride snap.snap_stride;
    s.arrivals <- Stdlib.max s.arrivals snap.snap_arrivals
  end

let pp ppf t =
  Format.fprintf ppf "%s: %d samples (stride %d)" t.name (length t)
    (state t).stride
