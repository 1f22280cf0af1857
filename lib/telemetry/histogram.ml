(* Log-bucketed histogram: bucket [i] covers [lo·2^i, lo·2^(i+1)).
   Recording is O(1) (one exponent read, one array bump); quantiles are
   read by a cumulative walk with linear interpolation inside the
   crossing bucket, clamped to the exact observed min/max. Relative
   error is bounded by the factor-of-two bucket width, which is plenty
   for latency p50/p90/p99 summaries.

   The handle (name + bucket geometry) is shared across domains; the
   mutable state lives in domain-local storage so concurrent domains
   record into private cells. Per-domain partials are combined with
   [snapshot] (in the owning domain) + [absorb]. *)

(* [fl] packs the float accumulators ([0] sum, [1] min, [2] max) in a
   flat array so a hot observe is three unboxed stores, not three
   fresh boxes. *)
type state = {
  counts : int array;
  mutable total : int;
  fl : floatarray;
}

let f_sum = 0
and f_min = 1
and f_max = 2

let fresh_fl () =
  let a = Float.Array.make 3 0.0 in
  Float.Array.set a f_min infinity;
  Float.Array.set a f_max neg_infinity;
  a

(* The handle is immutable: an observation resolves its domain's state
   with [Domain.DLS.get] and writes nothing shared, as {!Counter}. *)
type t = {
  lo : float;  (* lower bound of bucket 0; values below land in it *)
  buckets : int;
  cells : state Domain.DLS.key;
}

let default_buckets = 96

let make ?(lo = 1e-9) ?(buckets = default_buckets) () =
  if lo <= 0.0 then invalid_arg "Histogram.make: lo must be positive";
  if buckets < 1 then invalid_arg "Histogram.make: need at least one bucket";
  { lo; buckets;
    cells =
      Domain.DLS.new_key (fun () ->
          { counts = Array.make buckets 0; total = 0; fl = fresh_fl () }) }

let[@inline] state t = Domain.DLS.get t.cells

(* floor(log2 (v / lo)), clamped: the IEEE exponent field of the
   ratio, read through [Int64.bits_of_float] (an unboxed external) like
   [Slo.lat_index]; [Float.frexp] would allocate its result pair on
   every observation. For v >= lo the ratio is >= 1, so never
   subnormal. A ratio that overflows to +inf (v = +inf, or v above
   max_float·lo) has exponent field 2047 and clamps to the top bucket
   (frexp reports exponent 0 for infinity, which would file it in
   bucket 0). NaN fails [v >= lo] and lands in bucket 0. Inlined, so
   a value read from a cell reaches it unboxed. *)
let[@inline] bucket_index t v =
  if not (v >= t.lo) then 0
  else
    let e =
      Int64.to_int
        (Int64.logand
           (Int64.shift_right_logical (Int64.bits_of_float (v /. t.lo)) 52)
           0x7FFL)
      - 1023
    in
    Int.min (t.buckets - 1) (Int.max 0 e)

let[@inline] observe_unchecked t v =
  let s = state t in
  let i = bucket_index t v in
  s.counts.(i) <- s.counts.(i) + 1;
  s.total <- s.total + 1;
  Float.Array.set s.fl f_sum (Float.Array.get s.fl f_sum +. v);
  if v < Float.Array.get s.fl f_min then Float.Array.set s.fl f_min v;
  if v > Float.Array.get s.fl f_max then Float.Array.set s.fl f_max v

let observe t v = if !Control.enabled then observe_unchecked t v

let observe_cell t cell =
  if !Control.enabled then observe_unchecked t (Float.Array.get cell 0)

let observe_int t n = if !Control.enabled then observe_unchecked t (float_of_int n)

let count t = (state t).total

let sum t = Float.Array.get (state t).fl f_sum

let mean t =
  let s = state t in
  if s.total = 0 then 0.0
  else Float.Array.get s.fl f_sum /. float_of_int s.total

let min_value t =
  let s = state t in
  if s.total = 0 then 0.0 else Float.Array.get s.fl f_min

let max_value t =
  let s = state t in
  if s.total = 0 then 0.0 else Float.Array.get s.fl f_max

let quantile t q =
  if q < 0.0 || q > 1.0 then
    invalid_arg "Histogram.quantile: fraction outside [0, 1]";
  let s = state t in
  if s.total = 0 then 0.0
  else begin
    let target = Float.max 1.0 (Float.round (q *. float_of_int s.total)) in
    let n = t.buckets in
    let rec walk i cum =
      if i >= n then Float.Array.get s.fl f_max
      else begin
        let cum' = cum + s.counts.(i) in
        if float_of_int cum' >= target && s.counts.(i) > 0 then begin
          let lower = if i = 0 then 0.0 else t.lo *. Float.pow 2.0 (float_of_int i) in
          let upper = t.lo *. Float.pow 2.0 (float_of_int (i + 1)) in
          let frac =
            (target -. float_of_int cum) /. float_of_int s.counts.(i)
          in
          let est = lower +. (frac *. (upper -. lower)) in
          Float.min (Float.Array.get s.fl f_max)
            (Float.max (Float.Array.get s.fl f_min) est)
        end
        else walk (i + 1) cum'
      end
    in
    walk 0 0
  end

let p50 t = quantile t 0.50
let p90 t = quantile t 0.90
let p99 t = quantile t 0.99

let reset t =
  let s = state t in
  Array.fill s.counts 0 t.buckets 0;
  s.total <- 0;
  Float.Array.set s.fl f_sum 0.0;
  Float.Array.set s.fl f_min infinity;
  Float.Array.set s.fl f_max neg_infinity

(* Snapshots absorb unconditionally, like [reset] — they are harness
   operations, not instrumentation. *)
type snapshot = {
  s_counts : int array;
  s_total : int;
  s_sum : float;
  s_vmin : float;
  s_vmax : float;
}

let snapshot t =
  let s = state t in
  { s_counts = Array.copy s.counts; s_total = s.total;
    s_sum = Float.Array.get s.fl f_sum;
    s_vmin = Float.Array.get s.fl f_min;
    s_vmax = Float.Array.get s.fl f_max }

let absorb t snap =
  let s = state t in
  let n = Stdlib.min t.buckets (Array.length snap.s_counts) in
  for i = 0 to n - 1 do
    s.counts.(i) <- s.counts.(i) + snap.s_counts.(i)
  done;
  s.total <- s.total + snap.s_total;
  Float.Array.set s.fl f_sum (Float.Array.get s.fl f_sum +. snap.s_sum);
  if snap.s_vmin < Float.Array.get s.fl f_min then
    Float.Array.set s.fl f_min snap.s_vmin;
  if snap.s_vmax > Float.Array.get s.fl f_max then
    Float.Array.set s.fl f_max snap.s_vmax
