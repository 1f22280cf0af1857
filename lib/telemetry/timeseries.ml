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

(* --- snapshot / absorb -------------------------------------------------- *)

type snapshot = {
  snap_times : floatarray;
  snap_values : floatarray;
  snap_stride : int;
  snap_arrivals : int;
}

let snapshot t =
  let s = state t in
  { snap_times = Float.Array.sub s.times 0 s.count;
    snap_values = Float.Array.sub s.values 0 s.count;
    snap_stride = s.stride;
    snap_arrivals = s.arrivals }

let ensure_room s n =
  if Float.Array.length s.times < n then begin
    let cap = ref (Float.Array.length s.times) in
    while !cap < n do cap := !cap * 2 done;
    let times = Float.Array.create !cap in
    let values = Float.Array.create !cap in
    Float.Array.blit s.times 0 times 0 s.count;
    Float.Array.blit s.values 0 values 0 s.count;
    s.times <- times;
    s.values <- values
  end

(* Union merge keyed on exact sample time, values summed on equal
   times. Associative and commutative (merge-sum of time->value maps),
   so shard partials fold in any order into one deterministic series.
   Shards sampling the same schedule carry identical time sets and the
   merge never grows past [capacity]; disjoint sets are kept whole here
   (bounded by K * capacity) and re-decimated by the next [add]. The
   merge copies the buffer once and boxes no float. *)
let absorb t snap =
  let s = state t in
  let t2 = snap.snap_times and v2 = snap.snap_values in
  let n2 = Float.Array.length t2 in
  if n2 > 0 then begin
    let n1 = s.count in
    let t1 = Float.Array.sub s.times 0 n1 in
    let v1 = Float.Array.sub s.values 0 n1 in
    ensure_room s (n1 + n2);
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < n1 && !j < n2 do
      let ta = Float.Array.get t1 !i and tb = Float.Array.get t2 !j in
      if ta = tb then begin
        Float.Array.set s.times !k ta;
        Float.Array.set s.values !k
          (Float.Array.get v1 !i +. Float.Array.get v2 !j);
        incr i; incr j
      end
      else if ta < tb then begin
        Float.Array.set s.times !k ta;
        Float.Array.set s.values !k (Float.Array.get v1 !i);
        incr i
      end
      else begin
        Float.Array.set s.times !k tb;
        Float.Array.set s.values !k (Float.Array.get v2 !j);
        incr j
      end;
      incr k
    done;
    Float.Array.blit t1 !i s.times !k (n1 - !i);
    Float.Array.blit v1 !i s.values !k (n1 - !i);
    k := !k + n1 - !i;
    Float.Array.blit t2 !j s.times !k (n2 - !j);
    Float.Array.blit v2 !j s.values !k (n2 - !j);
    s.count <- !k + n2 - !j;
    s.stride <- Stdlib.max s.stride snap.snap_stride;
    s.arrivals <- Stdlib.max s.arrivals snap.snap_arrivals
  end

let pp ppf t =
  Format.fprintf ppf "%s: %d samples (stride %d)" t.name (length t)
    (state t).stride
