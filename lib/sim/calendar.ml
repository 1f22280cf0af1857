(* Calendar queue (Brown 1988): an array of [nbuckets] FIFO-sorted time
   buckets of width [w]. An event with key [k] lives in virtual bucket
   [vb = floor (k / w)], physical bucket [vb land mask]; one "year" is
   [nbuckets * w] of key space. The dequeue cursor [cur_vb] walks
   virtual buckets: a bucket's head is popped when it falls inside the
   cursor's window ([key < (cur_vb + 1) * w]), otherwise the cursor
   advances. A full fruitless year falls back to a direct scan of all
   bucket heads (the queue is sparse relative to the width), which also
   re-seats the cursor.

   Buckets are kept sorted by [(key, seq)] with [seq] a global push
   counter, so equal-key events pop in insertion order — the same FIFO
   tie-break {!Heap} implements, making the two structures
   order-identical and the engine's fingerprints byte-identical under
   either. Pushing a key behind the cursor re-seats the cursor (the
   engine never does this, but the structure stays a correct general
   priority queue for the property tests).

   Sizing: the bucket count doubles above 2 buckets/event and halves
   below 1/2, and on every rebuild the width is re-derived from the
   live key span (~3 expected events per bucket). Between rebuilds a
   running estimate of the mean pop gap triggers a re-width when the
   observed event density drifts >8x from what the width was built
   for — the "density shift" rule that keeps both skewed bursts and
   long-idle phases O(1). *)

(* Storage is struct-of-arrays: an event occupies a slot index into
   parallel arrays — its key in [keys] (a flat floatarray, so keys
   never box), its seq in [seqs], its successor in [links] (the bucket
   chain, or the free list for vacated slots), its payload in [vals].
   Bucket heads are slot indices too. Every link, seq and key store is
   therefore a plain int or float store; only the payload store on push
   and the payload clear on pop go through the write barrier. Vacated
   payload slots hold [hole], an immediate, so a popped event's payload
   is unreachable from the queue at once ([Heap] keeps the same rule). *)
type 'a t = {
  mutable heads : int array;  (* bucket -> first slot, or [nil] *)
  mutable mask : int;  (* Array.length heads - 1; power of two *)
  mutable w : float;  (* bucket width, > 0 *)
  mutable cur_vb : int;  (* cursor: virtual bucket to scan next *)
  mutable size : int;
  mutable next_seq : int;
  mutable keys : floatarray;
  mutable seqs : int array;
  mutable links : int array;
  mutable vals : 'a array;
  mutable free : int;  (* head of the vacated-slot list, or [nil] *)
  (* Density tracking between rebuilds: mean gap between successive
     pops, compared against the gap the current width was sized for.
     [gaps] holds unboxed cells, so the per-pop accumulation never
     boxes: [0] last pop key; [1] gap sum; [2] the most recent measured
     mean pop gap, 0.0 until the first measurement. That hint is
     preferred over the live key span when deriving the width: a
     handful of far-future timers can stretch the span by orders of
     magnitude (the classic calendar-queue skew pathology), while the
     pop gap tracks where the dequeue action actually is. *)
  gaps : floatarray;
  mutable gap_n : int;
  (* One-slot staging cell for the boxed-key [push] entry point; the
     engine's hot path hands keys over through {!push_at} instead. *)
  scratch : floatarray;
}

let nil = -1

(* The vacated-payload filler: an immediate, so it pins nothing and its
   store needs no remembered-set entry. Never returned to a caller. *)
let hole () : 'a = Obj.magic 0

let min_buckets = 32
let max_buckets = 1 lsl 20

(* Re-examine width after this many pops (power of two, cheap mask). *)
let rewidth_period = 8192

(* Expected events per bucket the width targets. Purely a performance
   knob: pops always take the global (key, seq) minimum, so bucket
   geometry never changes the pop order. Lower → shorter insert walks,
   more empty buckets to skip on dequeue. *)
let width_factor = 12.0

let create () =
  { heads = Array.make min_buckets nil; mask = min_buckets - 1; w = 1.0;
    cur_vb = 0; size = 0; next_seq = 0;
    keys = Float.Array.create 0; seqs = [||]; links = [||]; vals = [||];
    free = nil;
    gaps = (let g = Float.Array.make 3 0.0 in
            Float.Array.set g 0 neg_infinity; g);
    gap_n = 0;
    scratch = Float.Array.make 1 0.0 }

let size q = q.size

(* Virtual bucket of [key]: floor (key / w), clamped so the float →
   int conversion is always defined. The clamp only engages for keys
   astronomically far from the cursor, where the bucket index is
   meaningless anyway (such events are found by the direct scan). *)
let[@inline] vb_of w key =
  let p = key /. w in
  if p >= 4.0e18 then max_int / 2
  else if p >= 0.0 then
    (* Truncation is floor for non-negative quotients — the common case
       (simulated time), minus [Float.floor]'s C call. *)
    int_of_float p
  else if p <= -4.0e18 then min_int / 2
  else int_of_float (Float.floor p)

(* Double the slot arrays (called only when the free list is empty)
   and thread the new slots onto the free list. *)
let grow q =
  let cap = Array.length q.seqs in
  let ncap = if cap = 0 then 32 else 2 * cap in
  let keys = Float.Array.create ncap in
  Float.Array.blit q.keys 0 keys 0 cap;
  let seqs = Array.make ncap 0 in
  Array.blit q.seqs 0 seqs 0 cap;
  let links = Array.make ncap nil in
  Array.blit q.links 0 links 0 cap;
  let vals = Array.make ncap (hole ()) in
  Array.blit q.vals 0 vals 0 cap;
  for s = cap to ncap - 2 do links.(s) <- s + 1 done;
  q.keys <- keys;
  q.seqs <- seqs;
  q.links <- links;
  q.vals <- vals;
  q.free <- cap

(* Slot [a] orders strictly before slot [b] in (key, seq). Ints in,
   bool out: the keys are compared straight from the floatarray. *)
let[@inline] precedes keys seqs a b =
  let ka = Float.Array.unsafe_get keys a
  and kb = Float.Array.unsafe_get keys b in
  ka < kb || (ka = kb && Array.unsafe_get seqs a < Array.unsafe_get seqs b)

(* Link slot [s] after [p] at its (key, seq) position. [seq] grows
   monotonically, so walking while [strictly before s] appends equal
   keys in insertion order. Top-level recursion over ints only, so
   insertion allocates nothing. *)
let rec ins_walk keys seqs links p s =
  let n = Array.unsafe_get links p in
  if n <> nil && precedes keys seqs n s then ins_walk keys seqs links n s
  else begin
    links.(s) <- n;
    links.(p) <- s
  end

let link_sorted q idx s =
  let h = q.heads.(idx) in
  if h <> nil && precedes q.keys q.seqs h s then
    ins_walk q.keys q.seqs q.links h s
  else begin
    q.links.(s) <- h;
    q.heads.(idx) <- s
  end

(* Rebuild with [nbuckets] buckets, width derived from the live key
   span (targeting ~[width_factor] events per bucket so dequeue scans stay short).
   O(size); called on threshold crossings and density drift, both
   amortized. *)
let rebuild q nbuckets =
  let old = q.heads in
  let n = max min_buckets (min max_buckets nbuckets) in
  (* Live key span for the new width. *)
  let kmin = ref infinity and kmax = ref neg_infinity in
  for b = 0 to Array.length old - 1 do
    let s = ref old.(b) in
    while !s <> nil do
      let k = Float.Array.get q.keys !s in
      if k < !kmin then kmin := k;
      if k > !kmax then kmax := k;
      s := q.links.(!s)
    done
  done;
  let span = !kmax -. !kmin in
  let w =
    if q.size = 0 then q.w
    else begin
      (* ~[width_factor] expected events per bucket: from the measured pop gap when
         one exists, else from the live span (start-up, before any
         pops). Span can be wildly skewed by far-future outliers; the
         gap cannot. *)
      let gap_hint = Float.Array.get q.gaps 2 in
      let ideal =
        if gap_hint > 0.0 then width_factor *. gap_hint
        else if span > 0.0 then width_factor *. span /. float_of_int q.size
        else q.w
      in
      (* Keep floor (key / w) far inside int range. *)
      let lo = Float.max 1e-300 (Float.abs !kmax *. 1e-15) in
      Float.max ideal lo
    end
  in
  q.heads <- Array.make n nil;
  q.mask <- n - 1;
  q.w <- w;
  for b = 0 to Array.length old - 1 do
    let s = ref old.(b) in
    while !s <> nil do
      let next = q.links.(!s) in
      link_sorted q (vb_of w (Float.Array.get q.keys !s) land q.mask) !s;
      s := next
    done
  done;
  (* Re-seat the cursor at the earliest live bucket. *)
  if q.size > 0 then q.cur_vb <- vb_of w !kmin;
  Float.Array.set q.gaps 1 0.0;
  q.gap_n <- 0

(* Push with the key handed over through a one-slot floatarray: the
   engine's schedule path writes its cell and calls this, so the key
   never crosses a call boundary as a float argument (each of which
   would allocate a box). [vb_of] is open-coded for the same reason. *)
let push_at q kcell value =
  let key = Float.Array.get kcell 0 in
  (* key -. key = 0.0 <=> finite; keeps Float.is_finite's call (and
     its argument box) out of the per-event path. *)
  if not (key -. key = 0.0) then
    invalid_arg "Calendar.push: key not finite";
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  let p = key /. q.w in
  let vb =
    if p >= 4.0e18 then max_int / 2
    else if p >= 0.0 then int_of_float p
    else if p <= -4.0e18 then min_int / 2
    else int_of_float (Float.floor p)
  in
  if q.size = 0 || vb < q.cur_vb then q.cur_vb <- vb;
  if q.free = nil then grow q;
  let s = q.free in
  q.free <- q.links.(s);
  Float.Array.unsafe_set q.keys s (Float.Array.unsafe_get kcell 0);
  q.seqs.(s) <- seq;
  q.vals.(s) <- value;
  link_sorted q (vb land q.mask) s;
  q.size <- q.size + 1;
  if q.size > 2 * (q.mask + 1) && q.mask + 1 < max_buckets then
    rebuild q (2 * (q.mask + 1))

let push q key value =
  Float.Array.set q.scratch 0 key;
  push_at q q.scratch value

(* Fallback when a whole year's scan found nothing due: the population
   is sparse relative to the width, so take the global minimum across
   all bucket heads (each head is its bucket's minimum) and re-seat the
   cursor there. Cold path; runs at most once per pop. *)
let direct_min q =
  let best = ref nil in
  for b = 0 to q.mask do
    let h = q.heads.(b) in
    if h <> nil && (!best = nil || precedes q.keys q.seqs h !best) then
      best := h
  done;
  q.cur_vb <- vb_of q.w (Float.Array.get q.keys !best);
  !best

(* Slot [s], the head of [vb]'s physical bucket, is due at cursor [vb]:
   its key lies in virtual bucket [vb] (by the cursor invariant, never
   behind it). The product test is the fast path. Rounding can make it
   disagree with the division [push] placed the key by — floor (k / w)
   = vb while k >= (vb + 1) * w — right at a bucket edge; there the
   division decides, or the key would be skipped for a whole year and
   pop after larger keys. *)
let[@inline] due q s vb =
  let k = Float.Array.unsafe_get q.keys s in
  k < float_of_int (vb + 1) *. q.w || vb_of q.w k <= vb

(* Advance the cursor to the virtual bucket holding the global minimum,
   returning that minimum's slot (still linked — the head of the
   cursor's physical bucket). O(1) expected: the cursor only moves over
   buckets with no due event, and each position is visited once per
   year. *)
let rec scan_min q vb remaining =
  if remaining = 0 then direct_min q
  else
    let s = q.heads.(vb land q.mask) in
    if s <> nil && due q s vb then begin
      q.cur_vb <- vb;
      s
    end
    else scan_min q (vb + 1) (remaining - 1)

let find_min q = if q.size = 0 then nil else scan_min q q.cur_vb (q.mask + 1)

(* Unlink the minimum slot [s] found by [find_min], vacate it onto the
   free list, and run the sizing rules. The caller has already read the
   key and payload out of [s]. *)
let remove_min q s =
  (* find_min re-seated the cursor, so the minimum is the head of the
     cursor's physical bucket. *)
  q.heads.(q.cur_vb land q.mask) <- q.links.(s);
  q.size <- q.size - 1;
  q.vals.(s) <- hole ();
  q.links.(s) <- q.free;
  q.free <- s;
  (* Density drift check: compare the mean inter-pop gap against the
     ~w/width_factor gap the current width was derived for; rebuild on
     >8x drift in either direction. *)
  let ckey = Float.Array.unsafe_get q.keys s in
  let last = Float.Array.get q.gaps 0 in
  if last > neg_infinity then begin
    Float.Array.set q.gaps 1 (Float.Array.get q.gaps 1 +. (ckey -. last));
    q.gap_n <- q.gap_n + 1;
    if q.gap_n land (rewidth_period - 1) = 0
       && Float.Array.get q.gaps 1 > 0.0 then begin
      let mean_gap = Float.Array.get q.gaps 1 /. float_of_int q.gap_n in
      Float.Array.set q.gaps 2 mean_gap;
      let built_for = q.w /. width_factor in
      if mean_gap > 8.0 *. built_for || mean_gap < built_for /. 8.0 then
        rebuild q (q.mask + 1)
      else begin
        Float.Array.set q.gaps 1 0.0;
        q.gap_n <- 0
      end
    end
  end;
  Float.Array.set q.gaps 0 ckey;
  if q.size < (q.mask + 1) / 2 && q.mask + 1 > min_buckets then
    rebuild q ((q.mask + 1) / 2)

let peek q =
  let s = find_min q in
  if s = nil then None else Some (Float.Array.get q.keys s, q.vals.(s))

let pop q =
  let s = find_min q in
  if s = nil then None
  else begin
    let key = Float.Array.get q.keys s and value = q.vals.(s) in
    remove_min q s;
    Some (key, value)
  end

(* Allocation-free pop for the engine's run loop (see {!Heap.pop_due}):
   sentinel return instead of an option, bound and key through
   floatarray cells. *)
let pop_due q ~bound ~strict ~default ~key_out =
  let s = find_min q in
  if s = nil then default
  else begin
    let ckey = Float.Array.unsafe_get q.keys s
    and b = Float.Array.get bound 0 in
    if if strict then ckey < b else ckey <= b then begin
      Float.Array.set key_out 0 ckey;
      let value = q.vals.(s) in
      remove_min q s;
      value
    end
    else default
  end

let clear q =
  q.heads <- Array.make min_buckets nil;
  q.mask <- min_buckets - 1;
  q.w <- 1.0;
  q.cur_vb <- 0;
  q.size <- 0;
  q.next_seq <- 0;
  q.keys <- Float.Array.create 0;
  q.seqs <- [||];
  q.links <- [||];
  q.vals <- [||];
  q.free <- nil;
  Float.Array.set q.gaps 0 neg_infinity;
  Float.Array.set q.gaps 1 0.0;
  q.gap_n <- 0

let bucket_count q = q.mask + 1

let width q = q.w
